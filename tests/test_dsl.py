"""Expression grammar: parsing, evaluation, rendering, and fuzzing."""

import dataclasses
import functools
import gc
import hashlib
import os
import random
import re
import subprocess
import sys
import time

import hypothesis
import hypothesis.strategies as strat
import pytest

from dsl_corpus import CORPUS, HUGE_SCALAR_INPUTS, PAST_THE_BUDGET, WIDE_POWERS, wide_power
from frozen_values import assert_frozen_value
from grstacks import dsl, intpoly, lefschetz
from grstacks.dsl import ArityError, ParseError, UnknownIdent, eval as dsl_eval, parse, render
from grstacks.lefschetz import (
    LC_ONE,
    NotAUnit,
    ZeroInverse,
    l_power,
    lc_add,
    lc_int,
    lc_mul,
    lc_neg,
    lc_normalize,
)
from grstacks import motive
from grstacks.motive import M_ONE, DomainError, class_g2, m_add, m_atom, m_scalar


def ev(text):
    return dsl_eval(parse(text))


# -- the round-trip corpus --------------------------------------------


def test_corpus_has_fifty_expressions():
    assert len(CORPUS) == 50
    assert len(set(CORPUS)) == 50


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_roundtrip(text):
    # parse -> eval -> render -> parse -> eval is the identity on values,
    # and rendering the reparsed value reproduces the rendered text
    value = ev(text)
    out = render(value)
    again = ev(out)
    assert again == value
    assert render(again) == out


# -- precedence and shape ---------------------------------------------


def test_multiplication_binds_tighter_than_addition():
    assert ev("2+3*L") == ev("2+(3*L)")
    assert ev("2+3*L") != ev("(2+3)*L")


def test_power_binds_tighter_than_product_and_minus():
    assert ev("2*L^3") == ev("2*(L^3)")
    assert ev("-L^2") == ev("-(L^2)")


def test_left_associative_chains():
    assert ev("2-3-4") == m_scalar(lc_int(-5))
    assert ev("L^6/L^2/L^3") == m_scalar(l_power(1))


def test_unary_minus():
    assert ev("-L") == m_scalar(lc_neg(l_power(1)))
    assert ev("--1") == M_ONE


def test_whitespace_is_free():
    assert ev(" BG( 5 , 4 ) ") == ev("BG(5,4)")


def test_bytes_input_accepted():
    assert ev(b"L^2") == ev("L^2")


# -- the syntax tree ---------------------------------------------------


ONE, TWO, L_SYM = dsl.IntLit(1), dsl.IntLit(2), dsl.LSymbol()

# class -> (field names, field tuples to build it from, the first one's repr)
AST_VALUES = {
    dsl.IntLit: (("value",), [(5,), (-5,), (0,)], "IntLit(value=5)"),
    dsl.LSymbol: ((), [()], "LSymbol()"),
    dsl.Neg: (("child",), [(ONE,), (L_SYM,)], "Neg(child=IntLit(value=1))"),
    **{
        cls: (
            ("left", "right"),
            [(ONE, L_SYM), (L_SYM, ONE), (ONE, TWO), (ONE, ONE)],
            f"{cls.__name__}(left=IntLit(value=1), right=LSymbol())",
        )
        for cls in (dsl.Add, dsl.Sub, dsl.Mul, dsl.Div)
    },
    dsl.Pow: (("base", "exponent"), [(L_SYM, -2), (L_SYM, 2), (TWO, -2)], "Pow(base=LSymbol(), exponent=-2)"),
    dsl.Call: (
        ("name", "args"),
        [("BSpin", (7,)), ("BPin", (7,)), ("BSpin", (8,)), ("BG", (7, 2))],
        "Call(name='BSpin', args=(7,))",
    ),
}


@pytest.mark.parametrize("cls", list(AST_VALUES), ids=lambda cls: cls.__name__)
def test_a_syntax_node_is_a_frozen_value(cls):
    names, samples, pinned = AST_VALUES[cls]
    assert_frozen_value(cls, names, samples, pinned)


def test_nodes_of_two_kinds_differ_on_the_same_fields():
    nodes = [cls(ONE, L_SYM) for cls in (dsl.Add, dsl.Sub, dsl.Mul, dsl.Div)]
    assert [a == b for a in nodes for b in nodes] == [a is b for a in nodes for b in nodes]


def test_every_symbol_l_parses_to_one_node():
    node = parse("L + L^2")
    assert node == dsl.Add(dsl.LSymbol(), dsl.Pow(dsl.LSymbol(), 2))
    assert node.left is node.right.base


# -- call dispatch ----------------------------------------------------


def test_scalar_calls_match_class_formulas():
    assert ev("G2()") == m_scalar(class_g2())
    assert ev("Spin(7)").is_scalar()


def test_atom_calls():
    assert ev("BDelta(3)") == m_atom(3)
    assert ev("BDelta(2)^1") == m_atom(2)
    assert ev("BDelta(2)^0") == M_ONE


def test_unit_product_collapses_to_one():
    v = ev("G2() * L^-6 * (L^6-1)^-1 * (L^2-1)^-1")
    assert v == m_scalar(LC_ONE)


# -- parse errors -----------------------------------------------------


def test_unclosed_call_reports_offset_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse("Spin(7")
    assert exc.value.offset == 6
    assert ")" in exc.value.expected


def test_missing_parenthesis_after_ident():
    with pytest.raises(ParseError) as exc:
        parse("Spin 7")
    assert exc.value.offset == 5
    assert "(" in exc.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdent) as exc:
        parse("Foo(1)")
    assert exc.value.offset == 0
    assert "L" in exc.value.expected and "BSpin" in exc.value.expected


def test_wrong_arity():
    with pytest.raises(ArityError):
        parse("GL(1,2)")
    with pytest.raises(ArityError):
        parse("BG(2)")
    with pytest.raises(ArityError):
        parse("G2(1)")


def test_hand_built_calls_are_checked_at_evaluation():
    with pytest.raises(UnknownIdent) as exc:
        dsl_eval(dsl.Call("Foo", (1,)))
    assert exc.value.name == "Foo" and exc.value.offset == 0
    with pytest.raises(ArityError):
        dsl_eval(dsl.Call("BG", (3,)))


def test_empty_argument_list_where_one_is_required():
    with pytest.raises(ArityError) as exc:
        parse("GL()")
    assert exc.value.offset == 0 and "got 0" in str(exc.value)


def test_truncated_inputs():
    for text, off in (("", 0), ("1+", 2), ("(1", 2), ("2*", 2)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == off, text


def test_stray_bytes():
    with pytest.raises(ParseError) as exc:
        parse("1 @ 2")
    assert exc.value.offset == 2 and "0x40" in str(exc.value)
    with pytest.raises(ParseError):
        parse(b"\xff\xfe")


def test_depth_limit():
    deep = "(" * 401 + "1" + ")" * 401
    with pytest.raises(ParseError) as exc:
        parse(deep)
    assert "deep" in str(exc.value)
    ok = "(" * 400 + "1" + ")" * 400
    assert dsl_eval(parse(ok)) == M_ONE
    with pytest.raises(ParseError):
        parse("-" * 4096 + "1")


def test_long_flat_sums_evaluate():
    n = 2000
    assert ev("1+" * n + "1") == m_scalar(lc_int(n + 1))


@pytest.mark.parametrize("template", ["{}", "L^{}", "BSpin({})"])
def test_overlong_integer_literal_is_a_parse_error(template):
    # 5,000 digits is past the interpreter's int_max_str_digits
    digits = "1" * 5000
    text = template.format(digits)
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == text.index(digits)


# -- the tokenizer against a byte-at-a-time scanner --------------------

SPACE_BYTES = b" \t\r\n\x0b\x0c"
DIGIT_BYTES = b"0123456789"
NAME_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
PUNCT_BYTES = b"-+*/^(),"


def _scan(data: bytes):
    """The token tuples of data, or the offset and text of its first error,
    read one byte at a time."""
    limit = sys.get_int_max_str_digits()
    toks, i = [], 0
    while i < len(data):
        b, j = data[i], i + 1
        if b in SPACE_BYTES:
            i = j
            continue
        if b in DIGIT_BYTES:
            while j < len(data) and data[j] in DIGIT_BYTES:
                j += 1
            if limit and j - i > limit:
                return i, f"integer literal of {j - i} digits is too long at offset {i}"
            toks.append(("int", i, int(data[i:j])))
        elif b in NAME_BYTES:
            while j < len(data) and data[j] in NAME_BYTES + DIGIT_BYTES:
                j += 1
            toks.append(("ident", i, data[i:j].decode("ascii")))
        elif b in PUNCT_BYTES:
            toks.append((chr(b), i, None))
        else:
            return i, f"unexpected byte 0x{b:02x} at offset {i}"
        i = j
    toks.append(("end", len(data), None))
    return toks


token_bytes = strat.sampled_from(
    [bytes([b]) for b in SPACE_BYTES + DIGIT_BYTES + NAME_BYTES + PUNCT_BYTES + bytes(range(0x80, 0x100))]
)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(strat.lists(token_bytes, max_size=200).map(b"".join))
@hypothesis.example(b"\x0b 12\x0cL^3\r\n+ \t_x9(4,-5)\x0c")
@hypothesis.example(b" (" + b"7" * 5000 + b")")
@hypothesis.example(b"1 + L\xe2\x88\x92 2")
def test_the_tokenizer_matches_a_byte_at_a_time_scanner(data):
    want = _scan(data)
    try:
        got = dsl._tokenize(data)
    except ParseError as exc:
        got = exc.offset, str(exc)
    assert got == want


# -- stack use --------------------------------------------------------

DEEP_INPUTS = ("(" * 400 + "1" + ")" * 400, "-" * 400 + "1")


def test_parse_and_eval_leave_no_cyclic_garbage():
    # a reference cycle per parse would keep each token list alive until the
    # cyclic collector ran, and raise the peak memory of a run of round trips
    text = render(motive.bspin(12))
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            dsl_eval(parse(text))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_and_eval_leave_the_recursion_limit_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    for text in (*DEEP_INPUTS, "+".join(["1"] * 30_000)):
        dsl_eval(parse(text))
    assert calls == []


def test_deep_inputs_fit_the_default_recursion_limit():
    # 100 frames of padding stand for a caller's own stack
    script = (
        "import sys\n"
        "from grstacks import dsl\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "def pad(k, text):\n"
        "    return pad(k - 1, text) if k else dsl.eval(dsl.parse(text))\n"
        "for text in sys.argv[1:]:\n"
        "    pad(100, text)\n"
    )
    src = os.path.dirname(os.path.dirname(dsl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *DEEP_INPUTS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_eval_walks_hand_built_asts_of_any_depth():
    # deep enough to overflow the interpreter stack under a recursive eval
    neg, add = dsl.IntLit(1), dsl.IntLit(1)
    for _ in range(2_000):
        neg = dsl.Neg(neg)
    for _ in range(3_000):
        add = dsl.Add(dsl.IntLit(1), add)
    assert dsl_eval(neg) == M_ONE
    assert dsl_eval(add) == m_scalar(lc_int(3_001))


def test_deepest_parse_evaluates():
    # a sum, a product and a power's base on every level, the most parse allows
    k = dsl.MAX_DEPTH
    text = "1+1*(" * k + "1+1*1^1" + ")^1" * k
    assert dsl_eval(parse(text)) == m_scalar(lc_int(k + 2))


def _outcome(data) -> str:
    """The AST in prefix order, or the error text.

    The walk keeps its own stack: repr or == of a 400-deep AST would overflow
    the default recursion limit by itself.
    """
    try:
        stack = [parse(data)]
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc}"
    out = []
    while stack:
        node = stack.pop()
        if dataclasses.is_dataclass(node):
            out.append(type(node).__name__)
            stack.extend(getattr(node, f.name) for f in reversed(dataclasses.fields(node)))
        else:
            out.append(repr(node))
    return " ".join(out)


def _pinned_inputs():
    rng = random.Random(12)
    yield from CORPUS
    alphabet = "L()+-*/^0123456789, BSpinGDelta"
    for _ in range(2000):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(200)))
    for _ in range(2000):
        # corpus expressions joined by operators, then one byte dropped or
        # inserted half the time
        text = rng.choice(CORPUS)
        for _ in range(rng.randrange(5)):
            form = rng.choice(("({}){}({})", "-{}{}{}", "{}{}-({})^-2"))
            text = form.format(text, rng.choice("+-*/"), rng.choice(CORPUS))
        i = rng.randrange(len(text))
        yield rng.choice((text, text[:i] + text[i + 1 :], text[:i] + rng.choice(alphabet) + text[i:]))
    for _ in range(300):
        yield bytes(rng.randrange(256) for _ in range(rng.randrange(512)))
    for k in (399, 400, 401):
        yield "(" * k + "1" + ")" * k
        yield "-" * k + "1"
        yield "-(" * k + "1" + ")" * k


# recorded with the parser that recursed through expr, term, factor and atom
PINNED_OUTCOMES_SHA256 = "38889f724c222a2f08163fdc9337db22d919d80b4a356d23d4c1c2f096e0cdf8"


def test_parse_outcomes_are_pinned():
    text = "\n".join(_outcome(data) for data in _pinned_inputs())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_OUTCOMES_SHA256


# -- evaluation errors ------------------------------------------------


def test_division_requires_units():
    with pytest.raises(NotAUnit):
        ev("1/(L+2)")
    with pytest.raises(NotAUnit):
        ev("1/BSpin(3)")
    with pytest.raises(ZeroInverse):
        ev("1/0")


def test_atom_products_are_out_of_scope():
    with pytest.raises(DomainError):
        ev("BDelta(2)*BDelta(3)")
    with pytest.raises(DomainError):
        ev("BDelta(2)^2")
    with pytest.raises(NotAUnit):
        ev("BDelta(2)^-1")


def test_call_argument_domains():
    with pytest.raises(DomainError):
        ev("cyclo(0)")
    # cyclo(d) builds its class without a normalization scan; it is the canonical one
    bad = [d for d in range(1, 301) if ev(f"cyclo({d})") != m_scalar(lc_normalize(intpoly.ONE, 0, ((d, 1),)))]
    assert bad == []
    with pytest.raises(DomainError):
        ev("BDelta(0)")
    with pytest.raises(DomainError):
        ev("BG(3,7)")


def _largest_admitted(units):
    """The largest index whose units, increasing in it, fit the work budget."""
    lo, hi = 1, 2
    while units(hi) <= dsl.WORK_BUDGET:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if units(mid) <= dsl.WORK_BUDGET else (lo, mid)
    return lo


def test_tower_index_bound(monkeypatch):
    # the highest first index of an admitted G(n, r) cell: BSpin(top + 1) is
    # G(top, -1), BPin(top) is G(top, 0)
    top = _largest_admitted(dsl.REGISTRY["BPin"][1])
    assert top >= 60
    past = (f"BG({top + 1}, {top})", f"BSpin({top + 2})", f"BPin({top + 1})")
    misses = motive._tower.cache_info().misses
    for text in past:
        with pytest.raises(lefschetz.OverBudget):
            ev(text)
    assert motive._tower.cache_info().misses == misses
    # r = n - 1 is an atom of the recurrence, no tower below it
    assert ev(f"BG({top}, {top - 1})") == m_atom(top)
    # stub builders show what the charge lets through without paying for it;
    # the three leaves below are admitted together because they share T(top)
    built = []
    for name in ("BSpin", "BPin", "BG"):
        arity, units, _ = dsl.REGISTRY[name]
        monkeypatch.setitem(dsl.REGISTRY, name, (arity, units, lambda *args: built.append(args) or M_ONE))
    for text in past:
        with pytest.raises(lefschetz.OverBudget):
            ev(text)
    assert built == []
    assert ev(f"BSpin({top + 1}) + BPin({top}) + BG({top}, 3)") == m_scalar(lc_int(3))
    assert sorted(built) == [(top,), (top, 3), (top + 1,)]


# each index the per-family bounds admitted before the charges stays admitted
@pytest.mark.parametrize("name, admitted", [("GL", 3000), ("SL", 3000), ("Spin", 3000), ("cyclo", 5000)])
def test_scalar_family_index_bound(monkeypatch, name, admitted):
    # a stub builder shows what the charge lets through without paying for it
    units = dsl.REGISTRY[name][1]
    top = _largest_admitted(units)
    built = []
    monkeypatch.setitem(dsl.REGISTRY, name, (1, units, lambda n: built.append(n) or M_ONE))
    with pytest.raises(lefschetz.OverBudget):
        ev(f"{name}({top + 1})")
    assert built == []
    assert ev(f"{name}({top})") == ev(f"{name}({admitted})") == M_ONE
    assert built == [top, admitted]


def test_exponent_bound():
    top = dsl.MAX_EXPONENT
    for k in (top + 1, -top - 1):
        with pytest.raises(DomainError, match="exponent"):
            ev(f"L^{k}")
    assert ev(f"L^{top}") == m_scalar(l_power(top))
    assert ev(f"L^-{top}") == m_scalar(l_power(-top))
    # the exponent is refused before its base is built
    misses = motive._tower.cache_info().misses
    with pytest.raises(DomainError, match="exponent"):
        ev(f"BSpin(60)^{top + 1}")
    assert motive._tower.cache_info().misses == misses


# -- fuzzing ----------------------------------------------------------


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(strat.binary(max_size=4096))
def test_parser_never_crashes_on_bytes(data):
    try:
        parse(data)
    except ParseError:
        pass


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(strat.text(alphabet="L()+-*/^0123456789, BSpinGDelta2cyclo", max_size=300))
def test_parser_never_crashes_on_token_soup(text):
    try:
        parse(text)
    except ParseError:
        pass


safe_exprs = strat.recursive(
    strat.one_of(
        strat.integers(0, 9).map(str),
        strat.just("L"),
        strat.builds(lambda m: f"BDelta({m})", strat.integers(2, 9)),
        strat.builds(lambda n: f"BSpin({n})", strat.integers(1, 9)),
        strat.builds(lambda n: f"BPin({n})", strat.integers(0, 9)),
        strat.builds(lambda n: f"GL({n})", strat.integers(1, 3)),
        strat.builds(lambda n: f"Spin({n})", strat.integers(2, 8)),
        strat.just("G2()"),
        strat.builds(lambda d: f"cyclo({d})", strat.integers(1, 12)),
        strat.builds(
            lambda n, r: f"BG({n},{r})",
            strat.integers(2, 7),
            strat.integers(1, 7),
        ).filter(lambda s: int(s[3]) >= int(s[5])),
    ),
    lambda inner: strat.one_of(
        strat.builds(lambda a, b: f"({a}+{b})", inner, inner),
        strat.builds(lambda a, b: f"({a}-{b})", inner, inner),
        strat.builds(lambda a, k: f"{k}*({a})", inner, strat.integers(-5, 5)),
        strat.builds(lambda a: f"-({a})", inner),
        strat.builds(lambda a: f"({a})/L", inner),
        strat.builds(lambda a, k: f"L^{k}*({a})", inner, strat.integers(-4, 4)),
    ),
    max_leaves=12,
)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(safe_exprs)
def test_generated_expressions_roundtrip(text):
    # closed under +, -, scalar products, and unit division: eval succeeds
    # and render is a fixpoint after one pass
    value = ev(text)
    out = render(value)
    assert ev(out) == value


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(safe_exprs)
def test_charges_cover_the_work_on_generated_expressions(text):
    assert _assert_charges_cover_the_work(text)[0]


# -- work budget ------------------------------------------------------


def _size(value):
    """What rendering a value reads: the degree of each of its cores plus the
    d of each Phi_d it carries."""
    classes = [value.scalar] + [c for _, c in value.atoms]
    return sum(intpoly.degree(c.core) + sum(d for d, _ in c.cyc) for c in classes if c.core)


def _charges_and_work(text):
    """Evaluate text; return whether it was accepted and each work-budget
    charge paired with the work it pays for: a product's charge with the next
    product's length times its largest coefficient bits, a sum's or a folded
    polynomial's (D + 1)^2 with the degree of the core it normalizes, a
    power's with the sizes of all its loop's products, and a family leaf's
    with the size of the value it builds, as (charging function, units,
    work).  The tower leaves share one charge, so theirs are summed and
    paired once, with the largest of their values."""
    events = []
    charge, mul, normalize, leaf = lefschetz._charge, intpoly.mul, lefschetz.lc_normalize, dsl._leaf

    def spy_charge(units_of):
        if lefschetz._budget.get() is not None:
            units = units_of()
            events.append((sys._getframe(1).f_code.co_name, units))
            charge(lambda: units)

    def spy_mul(*ps):
        out = mul(*ps)
        # cyclotomic_power builds a cofactor's factors after the cofactor's
        # charge, which pairs with the cofactor product itself
        if lefschetz._budget.get() is not None and sys._getframe(1).f_code.co_name != "cyclotomic_power":
            events.append(("mul", len(out) * max(max(out), -min(out)).bit_length()))
        return out

    def spy_normalize(core, *rest):
        if lefschetz._budget.get() is not None:
            events.append(("normalize", intpoly.degree(intpoly.normalize(core))))
        return normalize(core, *rest)

    def spy_leaf(node, tower):
        value = leaf(node, tower)
        if isinstance(node, dsl.Call):
            events.append(("tower" if node.name in ("BSpin", "BPin", "BG") else "built", _size(value)))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lefschetz, "_charge", spy_charge)
        patch.setattr(intpoly, "mul", spy_mul)
        patch.setattr(lefschetz, "lc_normalize", spy_normalize)
        patch.setattr(dsl, "_leaf", spy_leaf)
        try:
            ev(text)
            accepted = True
        except (lefschetz.OverBudget, DomainError):
            accepted = False
    pairs, sums, site, units, work = [], [], None, 0, 0
    # a leaf's charge, then the tower leaves' charges and largest value
    leaf_units, tower = 0, None
    for name, size in events + [("end", 0)]:
        if name == "mul":
            if site in ("lc_mul", "_cofactor"):
                pairs.append((site, units, size))
                site = None
            elif site == "lc_pow":
                work += size
        elif name == "normalize":
            if sums:
                pairs.append((*sums.pop(), size))
        elif name == "built":
            pairs.append(("_leaf", leaf_units, size))
            leaf_units = 0
        elif name == "tower":
            tower = (tower[0] + leaf_units, max(tower[1], size)) if tower else (leaf_units, size)
            leaf_units = 0
        else:
            if site == "lc_pow":
                pairs.append((site, units, work))
            site, units, work = name, size, 0
            if name in ("_common_cofactors", "lc_poly"):
                sums.append((name, size))
                site = None
            elif name == "_leaf":
                leaf_units, site = size, None
    if tower:
        pairs.append(("_leaf", *tower))
    return accepted, pairs


def _assert_charges_cover_the_work(text):
    accepted, pairs = _charges_and_work(text)
    assert all(units >= work for _, units, work in pairs), (text, pairs)
    return accepted, pairs


# inputs the budget was calibrated to admit, and two it refuses
CALIBRATED = {
    "cyclo(7)^333 + 1": True,
    "(L+2)^1000*(L+3)^1000": True,
    "BSpin(60)*(L^2+3) + BPin(60)*(L-5)": True,
    "(L+99)^2000": False,
    # 21.5 M units, 5.0-5.3 s cold without the budget
    "(L+15)^2000": False,
}


def test_charges_cover_the_work_on_the_corpus_and_the_fail_fast_tables():
    texts = CORPUS + HUGE_SCALAR_INPUTS + PAST_THE_BUDGET + [wide_power(p) for p in WIDE_POWERS]
    outcomes = {text: _assert_charges_cover_the_work(text) for text in texts + list(CALIBRATED)}
    assert {text: outcomes[text][0] for text in CALIBRATED} == CALIBRATED
    assert not any(outcomes[text][0] for text in HUGE_SCALAR_INPUTS + PAST_THE_BUDGET)
    pairs = [pair for _, text_pairs in outcomes.values() for pair in text_pairs]
    # a product, a sum, a sum's cofactor product, a folded polynomial, a
    # power and a family leaf, some of them large
    sites = {"lc_mul", "_common_cofactors", "_cofactor", "lc_poly", "lc_pow", "_leaf"}
    assert {site for site, _, _ in pairs} == sites
    assert max(work for _, _, work in pairs) > 10**6


def _clear_caches():
    # every memo in intpoly, so the cold branch below is cold throughout
    motive.clear_tower_cache()
    memos = [f for f in vars(intpoly).values() if hasattr(f, "cache_clear")]
    assert intpoly.phi_bounded in memos and intpoly._phi_walk in memos
    for memo in memos:
        memo.cache_clear()


def test_a_verdict_near_the_budget_does_not_depend_on_the_caches(monkeypatch):
    # the tower leaves are memoized and built outside the budget, charged
    # T(30) from their indices alone, so a cold and a warm cache spend the
    # same units
    text = "BSpin(30)*(L^2+3) - BPin(30)*(L-5) + BG(30, 3)"
    spent = sum(units for _, units, _ in _charges_and_work(text)[1])
    for budget, accepted in ((spent, True), (spent - 1, False)):
        monkeypatch.setattr(dsl, "WORK_BUDGET", budget)
        for cold in (True, False):
            if cold:
                _clear_caches()
            try:
                ev(text)
                verdict = True
            except lefschetz.OverBudget:
                verdict = False
            assert verdict == accepted, (budget, cold)


def test_tower_leaves_share_one_charge():
    # BSpin(k) reads the cells G(k - 1, r), BPin(k) the cells G(k, r): the two
    # together pay T(k) once, in either order
    tower, k = dsl.REGISTRY["BPin"][1], 30

    def leaf_units(text):
        return sum(units for site, units, _ in _charges_and_work(text)[1] if site == "_leaf")

    assert leaf_units(f"BSpin({k})") == tower(k - 1) > 0
    assert leaf_units(f"BSpin({k}) + BPin({k})") == leaf_units(f"BPin({k}) + BSpin({k})") == tower(k)
    assert leaf_units(f"BPin({k}) + BG({k}, 3) - L*BSpin(5) + BPin({k})") == tower(k)


@pytest.mark.parametrize("text", ["(L+2)^1000*(L+3)^1000", "cyclo(7)^333 + 1"])
def test_renderings_of_calibrated_inputs_re_evaluate_under_the_budget(text):
    # a rendered core is one sum of up to 2,001 monomials, charged once
    value = ev(text)
    assert ev(render(value)) == value


def test_the_rendering_of_a_wide_tower_sum_stays_refused():
    # 25.4 M units at (D + 1)^2 per core and block, 22.5 M of them its 59
    # atom cores
    value = ev("BSpin(60)*(L^2+3) + BPin(60)*(L-5)")
    with pytest.raises(lefschetz.OverBudget):
        ev(render(value))


# -- folded polynomial literals ----------------------------------------


def _term(op, minus, c, k, shape):
    """One monomial of a chain as (text, op, c, k), c signed by its minus signs."""
    if shape == "c":
        body, k = str(c), 0
    elif shape == "L":
        body, c, k = "L", 1, 1
    elif shape == "L^k":
        body, c = f"L^{k}", 1
    else:
        body = f"{c}*L^{k}"
    return "-" * minus + body, op, (-1) ** minus * c, k


monomial_terms = strat.builds(
    _term,
    strat.sampled_from("+-"),
    strat.integers(0, 3),
    strat.integers(0, 12),
    strat.integers(0, 8),
    strat.sampled_from(("c", "L", "L^k", "c*L^k")),
)


def _chain(terms):
    """The chain's text, the first term's operator dropped, its value added
    term by term and the units those sums charge."""
    text = " ".join(body if i == 0 else f"{op} {body}" for i, (body, op, _, _) in enumerate(terms))
    signed = (c if i == 0 or op == "+" else -c for i, (_, op, c, _) in enumerate(terms))
    parts = (lc_mul(lc_int(c), l_power(k)) for c, (_, _, _, k) in zip(signed, terms))
    with lefschetz.work_budget(10**9):
        value = functools.reduce(lc_add, parts)
        return text, value, lefschetz._budget.get()[0]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(strat.lists(monomial_terms, min_size=2, max_size=12), strat.booleans())
@hypothesis.example([_term("+", 0, 1, 6, "L^k"), _term("-", 0, 1, 0, "c")], False)
@hypothesis.example([_term("+", 0, 1, 6, "L^k"), _term("-", 0, 1, 0, "c")], True)
@hypothesis.example([_term("+", 1, 3, 2, "c*L^k"), _term("-", 1, 3, 2, "c*L^k")], False)
@hypothesis.example([_term("+", 0, 2, 0, "c"), _term("-", 2, 2, 0, "L^k"), _term("+", 0, 5, 0, "c")], True)
def test_a_folded_chain_equals_the_sum_term_by_term(terms, atom_on_top):
    # repeated exponents, L^0 and stacked minus signs; L^6 - 1 factors into
    # Phi_d and -3*L^2 - -3*L^2 cancels to 0; with BDelta(2) on top only the
    # chain below it folds
    text, want, units = _chain(terms)
    expected = m_scalar(want)
    if atom_on_top:
        text, expected = text + " + BDelta(2)", m_add(expected, m_atom(2))
    folds, spent = [], []
    charge = lefschetz._charge

    def spy_charge(units_of):
        spent.append(units_of())
        charge(lambda: spent[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "lc_poly", lambda coeffs: folds.append(coeffs) or lefschetz.lc_poly(coeffs))
        patch.setattr(lefschetz, "_charge", spy_charge)
        assert ev(text) == expected, text
    assert len(folds) == 1, text
    # one charge for the run, no more than its sums were charged
    assert len(spent) <= 1 and sum(spent) <= max(units, 1), (text, spent, units)


def test_terms_out_of_the_monomial_shapes_take_the_generic_path(monkeypatch):
    folds = []
    monkeypatch.setattr(dsl, "lc_poly", lambda coeffs: folds.append(coeffs) or lefschetz.lc_poly(coeffs))
    with pytest.raises(DomainError) as exc:
        ev("L^2001 + 1")
    assert str(exc.value) == "exponent 2001 exceeds 2000 in size"
    assert ev("L^-1 + 1") == m_scalar(lc_add(l_power(-1), LC_ONE))
    assert folds == []


@pytest.mark.parametrize("atom_at_foot", [True, False])
def test_a_long_sum_is_walked_once(monkeypatch, atom_at_foot):
    n = 20_000
    terms = "".join(f" + L^{k % 4}" for k in range(n))
    text = "BDelta(1)" + terms if atom_at_foot else "0" + terms + " + BDelta(1)"
    node, expected = parse(text), ev("5000*(1 + L + L^2 + L^3) + BDelta(1)")
    looks = []
    monomial = dsl._monomial
    monkeypatch.setattr(dsl, "_monomial", lambda *args: looks.append(1) or monomial(*args))
    start = time.perf_counter()
    value = dsl_eval(node)
    elapsed = time.perf_counter() - start
    # each term is looked at once at most
    assert value == expected and len(looks) <= text.count("+") + 1
    # 1.2 s term by term on a shared 2-vCPU host; rescanning the spine below
    # every sum would walk 2 * 10^8 nodes, about 36 s there
    assert elapsed < 10


def test_a_rendered_class_normalizes_once_per_parenthesized_polynomial(monkeypatch):
    text = render(motive.bspin(12))
    polynomials = re.findall(r"\([^()]*[-+][^()]*\)", text)
    monomials = sum(p.count("L") + 1 for p in polynomials)
    calls = []
    normalize = lefschetz.lc_normalize
    monkeypatch.setattr(lefschetz, "lc_normalize", lambda *args: calls.append(1) or normalize(*args))
    ev(text)
    assert len(calls) == len(polynomials) and monomials > 5 * len(calls)
