"""Source scan: invariants of the package that no single test exercises."""

import ast
import pathlib

import grstacks


# process-wide interpreter state that the package leaves alone
PROCESS_STATE_SETTERS = {"setrecursionlimit", "set_int_max_str_digits"}


def test_no_asserts_and_no_recursion_limit():
    # asserts vanish under python -O, so invariants raise typed errors; the
    # recursion limit and the int-to-text digit limit are process-wide state
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, ast.Assert) or name in PROCESS_STATE_SETTERS:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the Random methods whose streams _draws reproduces; finite draws only through it
FINITE_DRAWS = {"randrange", "randint", "choice"}


def test_finite_draws_only_through_one_helper():
    # and only that helper reads raw bits, so no sampler leaves its stream
    path = pathlib.Path(grstacks.__file__).parent / "finite.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    helper = next(n for n in tree.body if getattr(n, "name", None) == "_draws")
    inside = set(map(id, ast.walk(helper)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FINITE_DRAWS:
                found.append(f"finite.py:{node.lineno} {name}")
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "value", None)
        if name == "getrandbits" and id(node) not in inside:
            found.append(f"finite.py:{node.lineno} getrandbits")
    assert found == []


# the package modules a ledger row may reach: the evaluator and the report
LEDGER_IMPORTS = {"dsl", "report"}


def test_ledgers_import_only_the_evaluator_and_the_report():
    # every ledger value then comes from DSL text through dsl.eval
    path = pathlib.Path(grstacks.__file__).parent / "ledgers.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("grstacks")):
            module = module.removeprefix("grstacks").lstrip(".")
            found |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("grstacks")}
    assert found <= LEDGER_IMPORTS


# the tower's division-free table C; only the tower reads it
TOWER_TABLES = {"_table"}


def test_only_the_tower_reads_its_tables():
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        if path.name == "motive.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            names |= {a.name for a in getattr(node, "names", ()) if isinstance(a, ast.alias)}
            if names & TOWER_TABLES:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the tower's memos: the table C and the assembled cells
TOWER_MEMOS = {"_tower", "_table"}
MEMO_DECORATORS = {"cache", "lru_cache"}


def _callee_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_the_tower_memoizes_only_its_table_and_its_cells():
    # a further memo in motive.py would be a second table beside the one
    # every tower coefficient is read from
    path = pathlib.Path(grstacks.__file__).parent / "motive.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    memoized, decorators = [], set()
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            if _callee_name(dec) in MEMO_DECORATORS:
                memoized.append(node.name)
                decorators.add(dec)
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee_name(node) in MEMO_DECORATORS and node not in decorators
    ]
    assert sorted(memoized) == sorted(TOWER_MEMOS) and calls == []


# what the Phi_d scan's candidate loop must not call: it reads Phi_d(t) from
# intpoly.phi_bounded_at and divides the points, never evaluating p anew
SCAN_CALLS = {"cyclotomic_at", "eval_at"}
# the one value the loop reads past the table: Phi_d at the second point
# t + 1, memoized, for the candidates that pass the first point's filter
SECOND_POINT = "cyclotomic_at(d, t + 1)"


def test_the_phi_scan_reads_its_values_from_the_table():
    path = pathlib.Path(grstacks.__file__).parent / "intpoly.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scan = next(n for n in tree.body if getattr(n, "name", None) == "cyclotomic_part")
    loops = [n for n in ast.walk(scan) if isinstance(n, ast.For) and "phi_bounded" in ast.unparse(n.iter)]
    assert len(loops) == 1
    # the prefilter is a lazy generator on the current point: a list built up
    # front would test every candidate, also those past the exit once p is a
    # constant
    assert isinstance(loops[0].iter, ast.GeneratorExp)
    # the first point's values come from the table beside the candidates,
    # and the generator calls nothing else that evaluates
    assert "phi_bounded_at(deg, t)" in ast.unparse(loops[0].iter)
    assert not [n for n in ast.walk(loops[0].iter) if isinstance(n, ast.Call) and _callee_name(n) in SCAN_CALLS]
    # the body evaluates no polynomial, and reads Phi_d only at the second
    # point, never at t
    found = [
        f"intpoly.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(loops[0])
        if isinstance(node, ast.Call) and _callee_name(node) in SCAN_CALLS and ast.unparse(node) != SECOND_POINT
    ]
    assert found == []
    # one multiplicity loop with its one exit in its condition
    inner = [n for n in ast.walk(loops[0]) if isinstance(n, (ast.For, ast.While)) and n is not loops[0]]
    assert [type(n) for n in inner] == [ast.While]
    assert not [n for n in ast.walk(inner[0]) if isinstance(n, (ast.Break, ast.Continue))]


# the polynomial divisions of the package: cyclotomic_quotient is the one
# exact division by Phi_d, and it alone calls monic_div
DIVISIONS = {"cyclotomic_quotient", "monic_div", "_long_division", "_div_binomial"}
# the calls of the Phi_d scan, which intpoly.cyclotomic_part alone makes
SCAN_STEPS = {"cyclotomic_divides", "cyclotomic_quotient", "phi_bounded_at"}


def _calls_by_function(tree: ast.Module):
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    yield func.name, _callee_name(node), node.lineno


def test_one_division_site_for_phi_d():
    package = pathlib.Path(grstacks.__file__).parent
    calls = [
        (func, name)
        for path in sorted(package.glob("*.py"))
        for func, name, _ in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
    ]
    scan = {name for func, name in calls if func == "cyclotomic_part"}
    assert scan & DIVISIONS == {"cyclotomic_quotient"} and SCAN_STEPS <= scan
    assert {func for func, name in calls if name in SCAN_STEPS} == {"cyclotomic_part"}
    # normalization hands the whole scan over and evaluates nothing itself
    normalize = {name for func, name in calls if func == "lc_normalize"}
    assert "cyclotomic_part" in normalize and not normalize & (SCAN_STEPS | DIVISIONS | SCAN_CALLS)
    assert [func for func, name in calls if name == "monic_div"] == ["cyclotomic_quotient"]


# the Phi_d operations of intpoly: each reads Phi_d's one Moebius walk, and
# only the walk and divisors factor d, so no second order of the binomials
PHI_D_OPERATIONS = {"cyclotomic", "cyclotomic_at", "cyclotomic_quotient", "totient"}


def test_every_phi_d_operation_reads_the_one_walk():
    tree = ast.parse((pathlib.Path(grstacks.__file__).parent / "intpoly.py").read_text(encoding="utf-8"))
    calls = list(_calls_by_function(tree))
    assert {func for func, name, _ in calls if name == "_prime_factors"} == {"_moebius_binomials", "divisors"}
    walkers = {func for func, name, _ in calls if name == "_moebius_binomials"}
    assert walkers == PHI_D_OPERATIONS


# the products of blocks L^n - 1 in motive.py: each is built by
# lefschetz.l_blocks, never block by block through inverses and products
BLOCK_PRODUCTS = ("_top_atom", "_odd_row_excess", "class_g2")


def test_the_tower_builds_its_block_products_only_through_l_blocks():
    # so the tower does not grow a second product of blocks beside l_blocks
    tree = ast.parse((pathlib.Path(grstacks.__file__).parent / "motive.py").read_text(encoding="utf-8"))
    assert "_unit_product" not in {getattr(n, "name", None) for n in tree.body}
    calls: dict[str, set[str]] = {}
    for func, name, _ in _calls_by_function(tree):
        calls.setdefault(func, set()).add(name)
    for func in BLOCK_PRODUCTS:
        assert "l_blocks" in calls[func] and not calls[func] & {"lc_inv", "l_pow_minus_one"}, func


# the modules whose looped checks record a failing case only through CheckReport
RECORDING_MODULES = ("clifford.py", "finite.py", "delta.py", "suites.py")


def _is_counter(name: str) -> bool:
    return name == "bad" or name.endswith("_bad") or name.startswith("bad_")


def _is_flag(name: str) -> bool:
    return name == "ok" or name.endswith("_ok")


def _report_adds(func: ast.FunctionDef):
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and getattr(node.func.value, "id", None) == "rep"
        ):
            yield node


def _is_looped_all(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "all"
        and len(node.args) == 1
        and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp, ast.SetComp))
    )


def _folded_loops(func: ast.FunctionDef):
    # an all(...) over a loop whose value reaches rep.add, directly or through
    # a name, or is bound to a pass flag: it reports a bare FAIL with no case
    adds = list(_report_adds(func))
    passed = {n.id for add in adds for n in ast.walk(add) if isinstance(n, ast.Name)}
    feeds = list(adds)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and (_is_flag(t.id) or t.id in passed) for t in node.targets
        ):
            feeds.append(node.value)
    for feed in feeds:
        for node in ast.walk(feed):
            if _is_looped_all(node):
                yield node


def test_failing_checks_are_recorded_only_through_the_report():
    # a hand-kept failure counter or pass flag, or a loop folded into one
    # all(...), reports a count or a bare FAIL, where CheckReport.fail keeps
    # the first failing case; counts of points or tests (axes += 1,
    # tested += 1) are not failure counters
    found = set()
    for module in RECORDING_MODULES:
        path = pathlib.Path(grstacks.__file__).parent / module
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            set_true: dict[str, int] = {}
            set_false: list[tuple[str, int]] = []
            for node in ast.walk(func):
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                    if isinstance(node.target, ast.Name) and _is_counter(node.target.id):
                        found.add(f"{module}:{node.lineno} {node.target.id} += ...")
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                    for target in node.targets:
                        if not (isinstance(target, ast.Name) and _is_flag(target.id)):
                            continue
                        if node.value.value is True:
                            set_true[target.id] = min(set_true.get(target.id, node.lineno), node.lineno)
                        elif node.value.value is False:
                            set_false.append((target.id, node.lineno))
            for name, line in set_false:
                if set_true.get(name, line) < line:
                    found.add(f"{module}:{line} {name} = False")
            found |= {f"{module}:{node.lineno} all(...)" for node in _folded_loops(func)}
    assert sorted(found) == []


def test_products_of_several_polynomials_take_one_call():
    # intpoly.mul takes every factor at once, with one slot width for the
    # whole product; a reduce over it packs and unpacks once per factor
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _callee_name(node) == "reduce" and node.args:
                if _callee_name(node.args[0]) == "mul":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the names of a breadth-first queue
QUEUE_NAMES = {"deque", "popleft"}


def test_one_breadth_first_search_over_group_elements():
    # finite.closure is the package's only queue-driven search; a second one
    # would be a second implementation of the same closure
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for search in tree.body
            if path.name == "finite.py" and getattr(search, "name", None) == "closure"
            for node in ast.walk(search)
        }
        for node in ast.walk(tree):
            if id(node) in inside or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if {getattr(node, "id", None), getattr(node, "attr", None)} & QUEUE_NAMES:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the builders of a polynomial product and of a power Phi_d^m
PRODUCT_BUILDERS = {"mul", "cyclotomic_power"}


def test_products_are_charged_before_they_are_built():
    # a work-budget charge is predicted from the operand sizes alone, so a
    # function that charges builds no product, inside its charge or before it
    path = pathlib.Path(grstacks.__file__).parent / "lefschetz.py"
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
        charges = [node for node in calls if _callee_name(node) == "_charge"]
        if not charges:
            continue
        paid = min((node.end_lineno, node.end_col_offset) for node in charges)
        for node in calls:
            owner = getattr(node.func, "value", None)
            if getattr(owner, "id", None) == "intpoly" and _callee_name(node) in PRODUCT_BUILDERS:
                if (node.lineno, node.col_offset) < paid:
                    found.append(f"lefschetz.py:{node.lineno} {func.name} {_callee_name(node)}")
    assert found == []


# the frozen dataclasses built rarely enough to keep the generated __init__
COLD_FROZEN_DATACLASSES = {"report.py CheckResult", "clifford.py QuadSpace"}


def _frozen_dataclass(node: ast.AST) -> ast.Call | None:
    """The @dataclass(frozen=True, ...) decorator of a class, or None."""
    for deco in getattr(node, "decorator_list", ()):
        if isinstance(deco, ast.Call) and _callee_name(deco) == "dataclass":
            if any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in deco.keywords):
                return deco
    return None


def test_frozen_values_are_built_through_their_slot_setters():
    # the hot frozen values (LefschetzClass, MotiveExpr, the DSL's syntax
    # nodes) skip the generated __init__, which sets each field through
    # object.__setattr__: theirs is hand-written and sets each field through
    # its slot's own setter, a module-level _set_<field> name
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                if getattr(node.value, "id", None) == "object":
                    found.append(f"{path.name}:{node.lineno} object.__setattr__")
            deco = _frozen_dataclass(node)
            if deco is None or f"{path.name} {node.name}" in COLD_FROZEN_DATACLASSES:
                continue
            if not any(k.arg == "init" and getattr(k.value, "value", None) is False for k in deco.keywords):
                found.append(f"{path.name}:{node.lineno} {node.name} without init=False")
            fields = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
            init = next((s for s in node.body if getattr(s, "name", None) == "__init__"), None)
            calls = [] if init is None else [_callee_name(c) for c in ast.walk(init) if isinstance(c, ast.Call)]
            setters = [c for c in calls if c.startswith("_set_")]
            if len(setters) != len(fields) or not all(map(str.endswith, setters, (f"_{f}" for f in fields))):
                found.append(f"{path.name}:{node.lineno} {node.name} fields {fields} set by {setters}")
    assert found == []


def test_every_frozen_dataclass_refuses_writes_alike():
    # a frozen dataclass is stacked under frozen.refuse_writes, outermost,
    # so a write to a field or to any other name raises FrozenInstanceError
    # on every Python version
    found = []
    for path in sorted(pathlib.Path(grstacks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _frozen_dataclass(node) is not None:
                if _callee_name(node.decorator_list[0]) != "refuse_writes" or len(node.decorator_list) != 2:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
