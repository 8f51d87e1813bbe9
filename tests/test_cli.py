"""Command line entry points: exit codes, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import grstacks
from dsl_corpus import HUGE_SCALAR_INPUTS, PAST_THE_BUDGET, WIDE_POWERS, wide_power
from grstacks import cli, dsl, intpoly, ledgers, lefschetz, motive
from grstacks.report import CheckReport
from grstacks.suites import SUITES, suite_g2, suite_spin78


def _run_cli(*args, flags=()):
    """Run the command line in a fresh process, so a crash shows as a traceback."""
    src = os.path.dirname(os.path.dirname(grstacks.__file__))
    return subprocess.run(
        [sys.executable, *flags, "-m", "grstacks.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )


# -- verify -----------------------------------------------------------


def test_verify_passing_suite(capsys):
    assert cli.main(["verify", "g2"]) == 0
    out = capsys.readouterr().out
    assert "suite g2" in out and "PASS" in out and "0 failures" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(seed=0, samples=100, q=5):
        rep = CheckReport("broken", seed)
        rep.add("always", False, "forced failure", "0", "1")
        return rep

    monkeypatch.setitem(SUITES, "g2", broken)
    assert cli.main(["verify", "g2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_json_is_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "ring", "--seed", "3", "--json", str(p1)]) == 0
    assert cli.main(["verify", "ring", "--seed", "3", "--json", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["suite"] == "ring" and payload["seed"] == 3
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)
    assert all(
        set(c) == {"id", "status", "detail", "lhs", "rhs"} for c in payload["checks"]
    )


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_rejects_unsupported_field(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "finite", "--q", "7"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_one(samples, capsys):
    # with no samples every sampled check would pass having tested nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "ring", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples: must be at least 1" in capsys.readouterr().err


def test_verify_survives_a_closed_pipe(tmp_path):
    # the reader closes its end before the report is printed, as `| head`
    # does; the verdict is the suite's, with no traceback, and the JSON is
    # written first
    src = os.path.dirname(os.path.dirname(grstacks.__file__))
    path = tmp_path / "ring.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "grstacks.cli", "verify", "ring", "--samples", "5", "--json", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err
    assert proc.returncode == 0
    assert json.loads(path.read_bytes())["suite"] == "ring"


@pytest.mark.parametrize("read", [0, 1])
@pytest.mark.parametrize(
    "args",
    [
        ("verify", "ring", "--samples", "5"),
        ("eval", "BSpin(60)*(L^2+3) + BPin(60)*(L-5)"),
        ("bspin", "60"),
        ("bspin", "60", "--format", "json"),
        ("delta", "12"),
    ],
    ids=["verify", "eval", "bspin", "bspin-json", "delta"],
)
def test_every_subcommand_survives_a_closed_pipe(args, read):
    # the reader takes `read` bytes and leaves, as `| head -c 1` does; the
    # rest of the output goes nowhere, with no traceback and exit code 0
    src = os.path.dirname(os.path.dirname(grstacks.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "grstacks.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err
    assert proc.returncode == 0


def _assert_one_error_line(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write ")


def test_verify_unwritable_json_path_is_usage_error(tmp_path):
    _assert_one_error_line(_run_cli("verify", "g2", "--json", str(tmp_path / "no" / "x.json")))


# sha256 of `verify all --json` at seed 0: exact arithmetic fixes every byte
# of the report, so a change that only makes the suites faster keeps it
VERIFY_ALL_SHA256 = "9d31bf5d5df012b8f9aa7d0fdb44f668a1962f89a4179732a118e60d790964e4"


def test_checks_hold_without_asserts(tmp_path):
    # python -O strips assert statements; the invariants must still be checked
    # in every suite, so the whole of `verify all` runs with asserts off, and
    # its report is the pinned one
    report = tmp_path / "all.json"
    proc = _run_cli("verify", "all", "--json", str(report), flags=("-O",))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failures" in proc.stdout
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_ALL_SHA256


def test_ledgers_hold_without_asserts():
    for suite in ("g2", "spin78"):
        proc = _run_cli("verify", suite, flags=("-O",))
        assert proc.returncode == 0, proc.stdout + proc.stderr


# -- eval -------------------------------------------------------------


def test_eval_renders_value(capsys):
    assert cli.main(["eval", "GL(2)"]) == 0
    assert capsys.readouterr().out.strip() == "L * (L-1) * (L^2-1)"


def test_eval_specializes(capsys):
    assert cli.main(["eval", "GL(2)", "--at", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("at L=3: 48")


def test_eval_deltas_one(capsys):
    assert cli.main(["eval", "BSpin(7)", "--deltas-one"]) == 0
    got = capsys.readouterr().out.strip()
    assert got == "L^-9 * (L^2-1)^-1 * (L^4-1)^-1 * (L^6-1)^-1"


def test_eval_takes_an_expression_starting_with_minus_after_the_separator(capsys):
    # argparse reads a bare "-L" as an option, so such an expression follows "--"
    assert cli.main(["eval", "--", "-L"]) == 0
    assert capsys.readouterr().out.strip() == "-1 * L"


def test_eval_parse_error(capsys):
    assert cli.main(["eval", "Spin(7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "offset 6" in err


def test_eval_domain_error(capsys):
    assert cli.main(["eval", "BDelta(2)*BDelta(3)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_at_refuses_a_value_too_long_to_print(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert cli.main(["eval", "GL(30)", "--at", "13"]) == 0
    want = lefschetz.lc_eval_at(motive.class_gl(30), 13)
    assert capsys.readouterr().out.endswith(f"at L=13: {want}\n")
    # about 1.1 million digits: refused before the value is computed
    monkeypatch.setattr(cli, "lc_eval_at", lambda *args: pytest.fail("specialized anyway"))
    assert cli.main(["eval", "GL(1000)", "--at", "13"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "4300" in err
    # 1,115 digits from the degree and 4,000 from the coefficient: the class
    # prints, and its value is refused before it is computed
    assert cli.main(["eval", f"{'9' * 4000}*L^1000+1", "--at", "13"]) == 2
    out, err = capsys.readouterr()
    assert out.startswith(f"({'9' * 4000}*L^1000 + 1)")
    assert err.startswith("error: ") and err.count("\n") == 1 and "4300" in err
    # L^(2000^100): a degree past the float range is refused the same way
    nested = "(" * 100 + "L" + ")^2000" * 100
    for flags in ([], ["--deltas-one"]):
        assert cli.main(["eval", nested, "--at", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "4300" in err


def test_eval_at_with_atoms_left_is_an_error(capsys):
    assert cli.main(["eval", "BSpin(4)", "--at", "5"]) == 2
    assert "--deltas-one" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--deltas-one"]])
@pytest.mark.parametrize("q", ["1", "0", "-4"])
def test_eval_at_refuses_a_point_below_two_before_printing(q, flags, capsys):
    # a usage error from the argument parser, as --samples below 1 is, so
    # the expression is neither evaluated nor rendered
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--at", q, *flags, "L"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--at: must be at least 2, got {q}" in err


@pytest.mark.parametrize("op, want", [("+", "30000"), ("*", "1")])
def test_eval_long_chain_has_no_traceback(op, want):
    # a 30,000-operand chain is far longer than the interpreter's recursion
    # limit
    proc = _run_cli("eval", op.join(["1"] * 30_000))
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout.strip()) == (0, want)


def test_every_ledger_side_reproduces_from_eval(capsys):
    # a ledger row is DSL text, so pasting either side into `eval` prints
    # exactly what the report records for it
    recorded = {c.id: c for c in suite_g2().checks + suite_spin78().checks}
    rows = ledgers.G2_LEDGER + ledgers.SPIN78_LEDGER
    assert len(rows) == len(recorded) == 22
    for id, lhs, rhs, _ in rows:
        for text, side in ((lhs, recorded[id].lhs), (rhs, recorded[id].rhs)):
            assert cli.main(["eval", text]) == 0
            assert capsys.readouterr().out == side + "\n", (id, text)


# -- bspin ------------------------------------------------------------


def test_bspin_text_roundtrips(capsys):
    assert cli.main(["bspin", "4"]) == 0
    text = capsys.readouterr().out.strip()
    from grstacks.motive import bspin

    assert dsl.eval(dsl.parse(text)) == bspin(4)


def test_bspin_json_shape(capsys):
    assert cli.main(["bspin", "12", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"scalar", "atoms"}
    ms = [a["m"] for a in payload["atoms"]]
    assert ms == sorted(ms) and max(ms) <= 11
    for a in payload["atoms"]:
        dsl.parse(a["coeff"])  # every coefficient reparses
    dsl.parse(payload["scalar"])


def test_bspin_rejects_zero(capsys):
    assert cli.main(["bspin", "0"]) == 2
    capsys.readouterr()


def test_tower_index_above_the_bound_is_usage_error(capsys):
    # the first G(n, r) first index whose tower charge passes the budget
    n = next(n for n in range(1, 1000) if dsl.REGISTRY["BPin"][1](n) > dsl.WORK_BUDGET)
    misses = motive._tower.cache_info().misses
    assert cli.main(["bspin", str(n + 1)]) == 2
    assert cli.main(["eval", f"BG({n}, {n - 1})"]) == 2
    assert capsys.readouterr() == ("", OVER_BUDGET * 2)
    assert motive._tower.cache_info().misses == misses


@pytest.mark.parametrize(
    "args", [("bspin", "1000"), ("eval", "BSpin(1000)"), ("eval", "BPin(2000)")]
)
def test_huge_tower_index_fails_fast(args):
    # a cold tower this tall would overflow the interpreter stack or run for hours
    proc = _run_cli(*args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("text", HUGE_SCALAR_INPUTS)
def test_huge_scalar_inputs_fail_fast(text):
    # past the group, cyclo and exponent bounds; each would run for minutes
    proc = _run_cli("eval", text)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


OVER_BUDGET = f"error: the evaluation needs more than {dsl.WORK_BUDGET} work units\n"


@pytest.mark.parametrize("text", PAST_THE_BUDGET)
def test_combinations_past_the_core_bound_fail_fast(text):
    # every leaf and exponent is within its bound, but the products and sums
    # would build cores of degree 4,000 to 10,000, past the work budget
    start = time.perf_counter()
    proc = _run_cli("eval", text)
    assert time.perf_counter() - start < 15
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", OVER_BUDGET)


@pytest.mark.parametrize("power", WIDE_POWERS)
def test_products_past_the_coefficient_bound_fail_fast(power):
    # a degree-1 core with a 4000-digit coefficient: its square is cheap but
    # too long to print, and the 100th power is past the work budget (it ran
    # past 40 s unbounded)
    start = time.perf_counter()
    proc = _run_cli("eval", wide_power(power), flags=("-X", "int_max_str_digits=4300"))
    assert time.perf_counter() - start < 15
    assert (proc.returncode, proc.stdout) == (2, "")
    if power == 2:
        assert proc.stderr == "error: a coefficient has more digits than the 4300 the interpreter prints\n"
    else:
        assert proc.stderr == OVER_BUDGET


@pytest.mark.parametrize("n", [100, 3000])
def test_substituting_the_atoms_is_inside_the_budget(n):
    # the atom's coefficient meets the scalar only when --deltas-one adds
    # them: GL(100) + 1 costs 100 M units, GL(3000) + 1 about 10^14
    start = time.perf_counter()
    proc = _run_cli("eval", f"GL({n})*BDelta(2) + 1", "--deltas-one")
    assert time.perf_counter() - start < 15
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", OVER_BUDGET)


def test_a_power_past_the_coefficient_bound_fails_before_squaring(capsys, monkeypatch):
    # (L+99)^2000 is charged 36 million units before its first product
    monkeypatch.setattr(intpoly, "mul", lambda *ps: pytest.fail("multiplied before refusing"))
    start = time.perf_counter()
    assert cli.main(["eval", "(L+99)^2000"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", OVER_BUDGET)


def test_wide_squares_are_refused_by_one_budget_per_evaluation():
    # each (<750 nines>*(L+2)^1000)^2 would cost 23 M units and 4-5 s, so
    # the sum of four is refused before the first square is built
    square = f"({'9' * 750}*(L+2)^1000)^2"
    text = " + ".join(f"L^{i}*{square}" for i in range(4))
    start = time.perf_counter()
    proc = _run_cli("eval", text)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", OVER_BUDGET)


def test_a_coefficient_too_long_to_print_is_refused_before_printing(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    for args in (["999^1500"], ["999^1500*BDelta(2)", "--deltas-one"]):
        assert cli.main(["eval", *args]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: a coefficient has more digits than the 4300 the interpreter prints\n")
    # a coefficient of exactly 4300 digits still prints
    assert cli.main(["eval", "9" * 4300]) == 0
    assert capsys.readouterr().out == "9" * 4300 + "\n"


@pytest.mark.parametrize("text", [f"1/({'9' * 4000}*L+1)", f"1/(({'9' * 4000}*L+1)^2)"])
def test_a_wide_non_unit_divisor_is_named_by_its_size(text):
    # the core is not rendered: one has 4,000 digits, the other's square is
    # longer than the interpreter prints
    proc = _run_cli("eval", text, flags=("-X", "int_max_str_digits=4300"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200
    assert "not a unit" in proc.stderr


# -- delta ------------------------------------------------------------


def test_delta_summary(capsys):
    assert cli.main(["delta", "2"]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out and "center 2" in out and "abelianization 4" in out
    assert "abelian\n" not in out


def test_delta_rank_one_is_abelian(capsys):
    assert cli.main(["delta", "1"]) == 0
    out = capsys.readouterr().out
    assert "order 4" in out and out.rstrip().endswith("abelian")


def test_delta_table(tmp_path, capsys):
    path = tmp_path / "mult.csv"
    assert cli.main(["delta", "3", "--table", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert len(lines) == 17  # order 16 plus the header


def test_delta_unwritable_table_path_is_usage_error(tmp_path):
    _assert_one_error_line(_run_cli("delta", "3", "--table", str(tmp_path / "no" / "x.csv")))


def test_delta_out_of_range(capsys):
    assert cli.main(["delta", "44"]) == 2
    assert "1 and 12" in capsys.readouterr().err


def test_delta_table_above_nine_is_usage_error(tmp_path, capsys):
    path = tmp_path / "mult.csv"
    assert cli.main(["delta", "10", "--table", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --table needs n <= 9"]
    assert not path.exists()


def test_delta_summaries_match_closed_forms(capsys):
    # spans the sign-table cut-over at n = 9; every n the command accepts
    for n in range(1, 13):
        assert cli.main(["delta", str(n)]) == 0
        want = [
            f"order {2 ** (n + 1)}",
            f"center {2 if n % 2 == 0 else 4}",
            f"abelianization {2**n if n >= 2 else 4}",
        ]
        if n == 1:
            want.append("abelian")
        assert capsys.readouterr().out.splitlines() == want, n


# -- suites registry --------------------------------------------------


def test_registry_names():
    assert set(SUITES) == {"ring", "g2", "spin78", "tower", "clifford", "finite", "all"}


def test_fast_suites_pass():
    for name in ("ring", "g2", "spin78", "tower"):
        rep = SUITES[name](seed=0, samples=25)
        assert rep.ok, rep.to_text()
