"""Small expression language over the localized ring and atom-bearing classes.

The grammar is a conventional arithmetic layer (sums of products of powers)
whose leaves are integer literals, the symbol L, parenthesized groups, and a
fixed set of named families indexed by integer arguments: GL(n), SL(n),
Spin(n), G2(), BSpin(n), BPin(n), BDelta(m), BG(n, r), cyclo(d).  The caret
binds tightest and takes a signed integer exponent; negative exponents are
the only inversion surface.  Unary minus sits between the additive and the
multiplicative level, so -a*b reads -(a*b) while -a+b reads (-a)+b.

Parsing works on the UTF-8 bytes of the input and reports 0-based byte
offsets in every error, together with the set of tokens that would have been
accepted.  One findall pass of one compiled byte regex splits the input:
each match is a run of whitespace and the token after it, an integer, an
identifier, a punctuation byte, or any other non-whitespace byte, which is
an error.  The matches tile the input, so a token's offset is the summed
length of the matches before it plus its own leading whitespace.  Tokens
are plain (kind, offset, value) tuples, a punctuation byte being its own
kind, and the parser reads them in place by index.  The syntax nodes are
frozen, slotted dataclasses, each built by one __init__ that sets its
fields through their slot setters (the construction idiom of
lefschetz.LefschetzClass); every L is one shared LSymbol.  It recurses only
through `expr` and `factor`, so a parenthesized group costs two interpreter
frames and a leading minus none; MAX_DEPTH nested groups need about 800
free frames, so parse runs inside the default recursion limit.
Evaluation walks the AST on an explicit stack, so its work is linear in the
size of the AST however deep it nests, and produces a MotiveExpr; division
and negative powers demand a unit scalar, and products of two atom-bearing
values are refused.  One work budget of WORK_BUDGET units admits every
input: whatever builds a value is charged before it is built.  REGISTRY
gives each family its arity, its units, charged from its integer arguments
alone, and its builder, which runs outside the budget, so no verdict
depends on the caches; BSpin, BPin and BG share one tower and pay for it
once.  Combine steps charge their predicted sizes (lefschetz).

A sum is walked once down its left spine.  The longest run of integer
monomials from its foot up (c, L, L^k, c*L^k with 0 <= k <= MAX_EXPONENT,
under any minus signs), such as every polynomial render prints, is folded
into one coefficient list and built by lefschetz.lc_poly: one (D + 1)^2
charge and one normalization for the whole run, where adding term by term
would charge and normalize every partial sum.  The terms above the run
combine one sum at a time.
"""

import re
from collections.abc import Callable
from dataclasses import dataclass

from . import intpoly, lefschetz
from .frozen import refuse_writes
from .lefschetz import (
    LC_ONE,
    LefschetzClass,
    NotAUnit,
    l_power,
    lc_int,
    lc_inv,
    lc_neg,
    lc_poly,
)
from .motive import (
    M_ONE,
    DomainError,
    MotiveExpr,
    bg,
    bpin,
    bspin,
    class_g2,
    class_gl,
    class_sl,
    class_spin,
    m_add,
    m_atom,
    m_scalar,
    m_scale,
)


def _cyclo(d: int) -> MotiveExpr:
    if d < 1:
        raise DomainError("cyclotomic index must be >= 1")
    # a lone Phi_d over the core 1 is already canonical
    return m_scalar(LefschetzClass(intpoly.ONE, 0, ((d, 1),)))


MAX_DEPTH = 400

# Absolute exponent, from cold `grstacks eval` on a shared 2-vCPU host:
# (2*L+3)^2000 2.3 s, (L+2)^2500 3.0 s, (L+2)^3000 5.7 s.  It also bounds
# the coefficient list a folded run of monomials allocates before its charge.
MAX_EXPONENT = 2000

# Work units one evaluation may spend (see lefschetz).  It admits
# (2*L+3)^2000, 12 M units in 1.6 s cold on the same host, and refuses a
# 23 M-unit wide square; README has the calibration table.
WORK_BUDGET = 20_000_000


def _tower_units(n: int) -> int:
    # T(n) for the cells G(n, r), fitted to the tower when it held the divided
    # table A (cold build about n^5, BSpin(72) in 2.5-3.7 s).  The division-free
    # table builds BSpin(72) in 0.27-0.31 s in process (0.43-0.45 s through the
    # CLI) and grows about as n^4.3, so T overcharges it; it stays so that no
    # verdict moves.  2n^3 covers small n
    return max(n, 0) ** 6 // 7000 + 2 * max(n, 0) ** 3


# name -> (argument count, units charged from the integer arguments before
# the value is built, builder).  n^2 for GL, SL, Spin(n) and d for cyclo(d) are
# calibrated charges that fix what is admitted; a negative index costs nothing.
REGISTRY: dict[str, tuple[int, Callable[..., int], Callable[..., MotiveExpr]]] = {
    "GL": (1, lambda n: max(n, 0) ** 2, lambda n: m_scalar(class_gl(n))),
    "SL": (1, lambda n: max(n, 0) ** 2, lambda n: m_scalar(class_sl(n))),
    "Spin": (1, lambda n: max(n, 0) ** 2, lambda n: m_scalar(class_spin(n))),
    "G2": (0, lambda: 49, lambda: m_scalar(class_g2())),
    "BSpin": (1, lambda n: _tower_units(n - 1), bspin),
    "BPin": (1, _tower_units, bpin),
    "BDelta": (1, lambda m: 0, m_atom),
    "BG": (2, lambda n, r: _tower_units(n), bg),
    "cyclo": (1, lambda d: max(d, 0), _cyclo),
}


class ParseError(ValueError):
    """Malformed input; carries a 0-based byte offset and the accepted set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(set(expected)))
        text = f"{message} at offset {offset}"
        if self.expected:
            text += ", expected " + " or ".join(_label(k) for k in self.expected)
        super().__init__(text)


class UnknownIdent(ParseError):
    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown name {name!r}", offset, tuple(REGISTRY) + ("L",))


class ArityError(ParseError):
    def __init__(self, name: str, got: int, want: int, offset: int):
        self.name = name
        super().__init__(f"{name} takes {want} argument(s), got {got}", offset)


# -- abstract syntax ---------------------------------------------------


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class IntLit:
    value: int

    def __init__(self, value: int):
        _set_value(self, value)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class LSymbol:
    pass


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Neg:
    child: "ExprAst"

    def __init__(self, child: "ExprAst"):
        _set_child(self, child)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Add:
    left: "ExprAst"
    right: "ExprAst"

    def __init__(self, left: "ExprAst", right: "ExprAst"):
        _set_add_left(self, left)
        _set_add_right(self, right)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Sub:
    left: "ExprAst"
    right: "ExprAst"

    def __init__(self, left: "ExprAst", right: "ExprAst"):
        _set_sub_left(self, left)
        _set_sub_right(self, right)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Mul:
    left: "ExprAst"
    right: "ExprAst"

    def __init__(self, left: "ExprAst", right: "ExprAst"):
        _set_mul_left(self, left)
        _set_mul_right(self, right)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Div:
    left: "ExprAst"
    right: "ExprAst"

    def __init__(self, left: "ExprAst", right: "ExprAst"):
        _set_div_left(self, left)
        _set_div_right(self, right)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Pow:
    base: "ExprAst"
    exponent: int

    def __init__(self, base: "ExprAst", exponent: int):
        _set_base(self, base)
        _set_exponent(self, exponent)


@refuse_writes
@dataclass(frozen=True, slots=True, init=False)
class Call:
    name: str
    args: tuple[int, ...]

    def __init__(self, name: str, args: tuple[int, ...]):
        _set_name(self, name)
        _set_args(self, args)


_set_value = IntLit.value.__set__
_set_child = Neg.child.__set__
_set_add_left, _set_add_right = Add.left.__set__, Add.right.__set__
_set_sub_left, _set_sub_right = Sub.left.__set__, Sub.right.__set__
_set_mul_left, _set_mul_right = Mul.left.__set__, Mul.right.__set__
_set_div_left, _set_div_right = Div.left.__set__, Div.right.__set__
_set_base, _set_exponent = Pow.base.__set__, Pow.exponent.__set__
_set_name, _set_args = Call.name.__set__, Call.args.__set__

# LSymbol has no fields, so the parser reuses one instance
_L = LSymbol()

ExprAst = IntLit | LSymbol | Neg | Add | Sub | Mul | Div | Pow | Call


# -- tokens ------------------------------------------------------------


_LABELS = {"int": "integer", "ident": "identifier", "end": "end of input"}


def _label(kind: str) -> str:
    return _LABELS.get(kind, f'"{kind}"')


# each match is the whitespace before a token and the token: an integer, an
# identifier, a punctuation byte, or any other non-whitespace byte, which is
# an error; every byte but whitespace starts a token, so the matches tile the
# input up to its trailing whitespace
_TOKEN = re.compile(
    rb"([ \t\r\n\x0b\x0c]*)(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),])|([^ \t\r\n\x0b\x0c]))"
)

# a punctuation byte is its own kind
_PUNCT = {bytes([b]): chr(b) for b in b"-+*/^(),"}

# (kind, offset, value): kind is "int", "ident", "end" or a punctuation byte
_Tok = tuple[str, int, object]


def _tokenize(data: bytes) -> list[_Tok]:
    """The tokens of data, then ("end", len(data), None)."""
    toks: list[_Tok] = []
    append = toks.append
    pos = 0
    for space, digits, name, punct, bad in _TOKEN.findall(data):
        pos += len(space)
        if punct:
            append((_PUNCT[punct], pos, None))
            pos += 1
        elif digits:
            try:
                append(("int", pos, int(digits)))
            except ValueError:
                # more digits than the interpreter's int_max_str_digits
                raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None
            pos += len(digits)
        elif name:
            append(("ident", pos, name.decode("ascii")))
            pos += len(name)
        else:
            raise ParseError(f"unexpected byte 0x{bad[0]:02x}", pos)
    append(("end", len(data), None))
    return toks


# -- parser ------------------------------------------------------------


def _unexpected(tok: _Tok, expected: tuple[str, ...]) -> ParseError:
    kind, offset, value = tok
    if kind == "int":
        what = f"integer {value}"
    elif kind == "ident":
        what = f"identifier {value!r}"
    else:
        what = _label(kind)
    return ParseError(f"unexpected {what}", offset, expected)


class _Parser:
    # reads self.toks[self.pos] in place: a token is consumed by moving pos
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def expect(self, kind: str) -> _Tok:
        t = self.toks[self.pos]
        if t[0] != kind:
            raise _unexpected(t, (kind,))
        self.pos += 1
        return t

    def expr(self, depth: int) -> ExprAst:
        toks = self.toks
        node: ExprAst | None = None
        op = ""
        while True:
            # a term: leading minus signs over a product of factors; each
            # sign nests one level, so -a*b reads -(a*b)
            inner = depth
            while toks[self.pos][0] == "-":
                if inner >= MAX_DEPTH:
                    raise ParseError("expression nests too deeply", toks[self.pos][1])
                self.pos += 1
                inner += 1
            term = self.factor(inner)
            kind = toks[self.pos][0]
            while kind == "*" or kind == "/":
                self.pos += 1
                rhs = self.factor(inner)
                term = Mul(term, rhs) if kind == "*" else Div(term, rhs)
                kind = toks[self.pos][0]
            for _ in range(inner - depth):
                term = Neg(term)
            if node is None:
                node = term
            else:
                node = Add(node, term) if op == "+" else Sub(node, term)
            if kind != "+" and kind != "-":
                return node
            op = kind
            self.pos += 1

    def signed_int(self) -> int:
        neg = self.toks[self.pos][0] == "-"
        if neg:
            self.pos += 1
        value = self.expect("int")[2]
        return -value if neg else value

    def factor(self, depth: int) -> ExprAst:
        toks = self.toks
        kind, offset, value = toks[self.pos]
        self.pos += 1
        if kind == "int":
            node = IntLit(value)
        elif kind == "ident" and value == "L":
            node = _L
        elif kind == "(":
            if depth >= MAX_DEPTH:
                raise ParseError("expression nests too deeply", offset)
            node = self.expr(depth + 1)
            self.expect(")")
        elif kind == "ident":
            if value not in REGISTRY:
                raise UnknownIdent(value, offset)
            self.expect("(")
            args: list[int] = []
            if toks[self.pos][0] != ")":
                args.append(self.signed_int())
                while toks[self.pos][0] == ",":
                    self.pos += 1
                    args.append(self.signed_int())
            self.expect(")")
            want = REGISTRY[value][0]
            if len(args) != want:
                raise ArityError(value, len(args), want, offset)
            node = Call(value, tuple(args))
        else:
            raise _unexpected((kind, offset, value), ("int", "ident", "("))
        if toks[self.pos][0] == "^":
            self.pos += 1
            node = Pow(node, self.signed_int())
        return node


def parse(text: str | bytes) -> ExprAst:
    """Parse the expression grammar; any failure raises ParseError."""
    if isinstance(text, str):
        data = text.encode("utf-8", errors="replace")
    else:
        data = bytes(text)
    p = _Parser(_tokenize(data))
    node = p.expr(0)
    p.expect("end")
    return node


# -- evaluation --------------------------------------------------------


def _binary(node: ExprAst, a: MotiveExpr, b: MotiveExpr) -> MotiveExpr:
    if isinstance(node, Add):
        return m_add(a, b)
    if isinstance(node, Sub):
        return a - b
    if isinstance(node, Mul):
        if a.is_scalar():
            return m_scale(b, a.scalar)
        if b.is_scalar():
            return m_scale(a, b.scalar)
        raise DomainError("product of two atom-bearing expressions")
    if not b.is_scalar():
        raise NotAUnit("divisor carries atoms")
    return m_scale(a, lc_inv(b.scalar))


def _power(base: MotiveExpr, k: int) -> MotiveExpr:
    if base.is_scalar():
        return m_scalar(base.scalar**k)
    if k < 0:
        raise NotAUnit("negative power of an atom-bearing expression")
    if k == 0:
        return M_ONE
    if k == 1:
        return base
    raise DomainError("higher power of an atom-bearing expression")


def _monomial(node: ExprAst, negate: bool) -> tuple[int, int] | None:
    """(k, c) when node, negated if negate, is c*L^k with 0 <= k <=
    MAX_EXPONENT, written c, L, L^k or c*L^k under any minus signs."""
    while isinstance(node, Neg):
        negate, node = not negate, node.child
    if isinstance(node, IntLit):
        k, c = 0, node.value
    else:
        c = 1
        if isinstance(node, Mul) and isinstance(node.left, IntLit):
            c, node = node.left.value, node.right
        if isinstance(node, LSymbol):
            k = 1
        elif isinstance(node, Pow) and isinstance(node.base, LSymbol) and 0 <= node.exponent <= MAX_EXPONENT:
            k = node.exponent
        else:
            return None
    return k, -c if negate else c


def _leaf(node: ExprAst, tower: list[int]) -> MotiveExpr:
    if isinstance(node, IntLit):
        return m_scalar(lc_int(node.value))
    if isinstance(node, LSymbol):
        return m_scalar(l_power(1))
    if isinstance(node, Call):
        if node.name not in REGISTRY:
            raise UnknownIdent(node.name, 0)
        want, units_of, build = REGISTRY[node.name]
        if len(node.args) != want:
            raise ArityError(node.name, len(node.args), want, 0)
        units = units_of(*node.args)
        if node.name in ("BSpin", "BPin", "BG"):
            # one tower for the three: pay what T(n) adds to the most paid
            units, tower[0] = max(units - tower[0], 0), max(units, tower[0])
        if units:
            lefschetz._charge(lambda: units)
        with lefschetz.work_budget(None):
            return build(*node.args)
    raise TypeError(f"not an AST node: {node!r}")


def eval(node: ExprAst) -> MotiveExpr:  # noqa: A001 - the public op name
    """Evaluate an AST to a MotiveExpr.

    Division and negative powers require a unit scalar on the right (NotAUnit
    otherwise); a product of two atom-bearing values has no representation
    here and raises DomainError, as does an exponent above MAX_EXPONENT or
    an index its builder refuses.  A leaf or combine step past the
    evaluation's work budget raises OverBudget before it is built.
    """
    # post-order on an explicit stack, so no AST can exhaust the interpreter's:
    # an inner node is popped once to push its children and once, marked
    # ready, to combine their values, which wait on `values` in order
    values: list[MotiveExpr] = []
    todo: list[tuple[ExprAst, bool]] = [(node, False)]
    tower = [0]
    with lefschetz.work_budget(WORK_BUDGET):
        while todo:
            node, ready = todo.pop()
            if ready:
                if isinstance(node, Neg):
                    values[-1] = m_scale(values[-1], lc_neg(LC_ONE))
                elif isinstance(node, Pow):
                    values[-1] = _power(values[-1], node.exponent)
                else:
                    b = values.pop()
                    values[-1] = _binary(node, values[-1], b)
            elif isinstance(node, (Add, Sub)):
                # the whole sum at once: its left spine, top first, the run
                # of monomials from its foot up, folded, and the sums above
                spine, foot = [], node
                while isinstance(foot, (Add, Sub)):
                    spine.append(foot)
                    foot = foot.left
                run = []
                term = _monomial(foot, False)
                while term is not None:
                    run.append(term)
                    if len(run) > len(spine):
                        break
                    up = spine[-len(run)]
                    term = _monomial(up.right, isinstance(up, Sub))
                folded = len(run) > 1
                if folded:
                    del spine[len(spine) + 1 - len(run) :]
                    coeffs = [0] * (max(k for k, _ in run) + 1)
                    for k, c in run:
                        coeffs[k] += c
                    values.append(m_scalar(lc_poly(coeffs)))
                for up in spine:
                    todo += ((up, True), (up.right, False))
                if not folded:
                    todo.append((foot, False))
            elif isinstance(node, (Mul, Div)):
                todo += ((node, True), (node.right, False), (node.left, False))
            elif isinstance(node, Neg):
                todo += ((node, True), (node.child, False))
            elif isinstance(node, Pow):
                if abs(node.exponent) > MAX_EXPONENT:
                    raise DomainError(f"exponent {node.exponent} exceeds {MAX_EXPONENT} in size")
                todo += ((node, True), (node.base, False))
            else:
                values.append(_leaf(node, tower))
    return values[0]


# -- rendering ---------------------------------------------------------


def render(e: MotiveExpr) -> str:
    """Deterministic display that reparses and re-evaluates to the same value."""
    return str(e)
