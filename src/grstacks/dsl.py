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
accepted.  Evaluation produces a MotiveExpr; division and negative powers
demand a unit scalar, products of two atom-bearing values are refused.
"""

import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

from . import intpoly
from .lefschetz import (
    LC_ONE,
    NotAUnit,
    l_power,
    lc_int,
    lc_inv,
    lc_neg,
    lc_normalize,
    lc_pow,
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
    return m_scalar(lc_normalize(intpoly.ONE, 0, ((d, 1),)))


# name -> (argument count, builder of the value from the integer arguments)
REGISTRY: dict[str, tuple[int, Callable[..., MotiveExpr]]] = {
    "GL": (1, lambda n: m_scalar(class_gl(n))),
    "SL": (1, lambda n: m_scalar(class_sl(n))),
    "Spin": (1, lambda n: m_scalar(class_spin(n))),
    "G2": (0, lambda: m_scalar(class_g2())),
    "BSpin": (1, bspin),
    "BPin": (1, bpin),
    "BDelta": (1, m_atom),
    "BG": (2, bg),
    "cyclo": (1, _cyclo),
}

MAX_DEPTH = 400


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


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class LSymbol:
    pass


@dataclass(frozen=True, slots=True)
class Neg:
    child: "ExprAst"


@dataclass(frozen=True, slots=True)
class Add:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True, slots=True)
class Div:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    args: tuple[int, ...]


ExprAst = IntLit | LSymbol | Neg | Add | Sub | Mul | Div | Pow | Call


# -- tokens ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "int", "ident", "end", or the punctuation character itself
    offset: int
    value: object = None


_LABELS = {"int": "integer", "ident": "identifier", "end": "end of input"}


def _label(kind: str) -> str:
    return _LABELS.get(kind, f'"{kind}"')


def _describe(t: Token) -> str:
    if t.kind == "int":
        return f"integer {t.value}"
    if t.kind == "ident":
        return f"identifier {t.value!r}"
    if t.kind == "end":
        return "end of input"
    return f'"{t.kind}"'


_WS = frozenset(b" \t\r\n\x0b\x0c")


def _tokenize(data: bytes) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(data)
    while i < n:
        b = data[i]
        if b in _WS:
            i += 1
            continue
        if 48 <= b <= 57:
            j = i + 1
            while j < n and 48 <= data[j] <= 57:
                j += 1
            toks.append(Token("int", i, int(data[i:j])))
            i = j
            continue
        if 65 <= b <= 90 or 97 <= b <= 122 or b == 95:
            j = i + 1
            while j < n and (
                48 <= data[j] <= 57
                or 65 <= data[j] <= 90
                or 97 <= data[j] <= 122
                or data[j] == 95
            ):
                j += 1
            toks.append(Token("ident", i, data[i:j].decode("ascii")))
            i = j
            continue
        ch = chr(b)
        if ch in "+-*/^(),":
            toks.append(Token(ch, i, ch))
            i += 1
            continue
        raise ParseError(f"unexpected byte 0x{b:02x}", i)
    toks.append(Token("end", n))
    return toks


# -- parser ------------------------------------------------------------


@contextmanager
def _deep_stack():
    # the guard admits 400 nested groups, which costs a few interpreter
    # frames per level and exceeds the default recursion limit
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {_describe(t)}", t.offset, (kind,))
        return self.take()

    def _bump(self, depth: int, offset: int) -> None:
        if depth >= MAX_DEPTH:
            raise ParseError("expression nests too deeply", offset)

    def expr(self, depth: int) -> ExprAst:
        node = self.term(depth)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term(depth)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self, depth: int) -> ExprAst:
        t = self.peek()
        if t.kind == "-":
            self.take()
            self._bump(depth, t.offset)
            return Neg(self.term(depth + 1))
        node = self.factor(depth)
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            rhs = self.factor(depth)
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self, depth: int) -> ExprAst:
        node = self.atom(depth)
        if self.peek().kind == "^":
            self.take()
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self) -> int:
        neg = self.peek().kind == "-"
        if neg:
            self.take()
        t = self.expect("int")
        return -t.value if neg else t.value

    def atom(self, depth: int) -> ExprAst:
        t = self.peek()
        if t.kind == "int":
            self.take()
            return IntLit(t.value)
        if t.kind == "(":
            self.take()
            self._bump(depth, t.offset)
            node = self.expr(depth + 1)
            self.expect(")")
            return node
        if t.kind == "ident":
            self.take()
            if t.value == "L":
                return LSymbol()
            if t.value not in REGISTRY:
                raise UnknownIdent(t.value, t.offset)
            self.expect("(")
            args: list[int] = []
            if self.peek().kind != ")":
                args.append(self.signed_int())
                while self.peek().kind == ",":
                    self.take()
                    args.append(self.signed_int())
            self.expect(")")
            want = REGISTRY[t.value][0]
            if len(args) != want:
                raise ArityError(t.value, len(args), want, t.offset)
            return Call(t.value, tuple(args))
        raise ParseError(
            f"unexpected {_describe(t)}", t.offset, ("int", "ident", "(")
        )


def parse(text: str | bytes) -> ExprAst:
    """Parse the expression grammar; any failure raises ParseError."""
    if isinstance(text, str):
        data = text.encode("utf-8", errors="replace")
    else:
        data = bytes(text)
    with _deep_stack():
        p = _Parser(_tokenize(data))
        node = p.expr(0)
        p.expect("end")
        return node


# -- evaluation --------------------------------------------------------


def eval(node: ExprAst) -> MotiveExpr:  # noqa: A001 - the public op name
    """Evaluate an AST to a MotiveExpr.

    Division and negative powers require a unit scalar on the right (NotAUnit
    otherwise); a product of two atom-bearing values has no representation
    here and raises DomainError.
    """
    with _deep_stack():
        return _eval(node)


_BINARY = (Add, Sub, Mul, Div)


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


def _eval(node: ExprAst) -> MotiveExpr:
    if isinstance(node, IntLit):
        return m_scalar(lc_int(node.value))
    if isinstance(node, LSymbol):
        return m_scalar(l_power(1))
    if isinstance(node, _BINARY):
        # the parser builds a+b+...+z as a left-leaning chain; walk its left
        # spine in a loop so the recursion depth follows nesting, not length
        spine = []
        while isinstance(node, _BINARY):
            spine.append(node)
            node = node.left
        acc = _eval(node)
        for op in reversed(spine):
            acc = _binary(op, acc, _eval(op.right))
        return acc
    if isinstance(node, Neg):
        return m_scale(_eval(node.child), lc_neg(LC_ONE))
    if isinstance(node, Pow):
        base, k = _eval(node.base), node.exponent
        if base.is_scalar():
            if k < 0:
                return m_scalar(lc_pow(lc_inv(base.scalar), -k))
            return m_scalar(lc_pow(base.scalar, k))
        if k < 0:
            raise NotAUnit("negative power of an atom-bearing expression")
        if k == 0:
            return M_ONE
        if k == 1:
            return base
        raise DomainError("higher power of an atom-bearing expression")
    if isinstance(node, Call):
        if node.name not in REGISTRY:
            raise UnknownIdent(node.name, 0)
        want, build = REGISTRY[node.name]
        if len(node.args) != want:
            raise ArityError(node.name, len(node.args), want, 0)
        return build(*node.args)
    raise TypeError(f"not an AST node: {node!r}")


# -- rendering ---------------------------------------------------------


def render(e: MotiveExpr) -> str:
    """Deterministic display that reparses and re-evaluates to the same value."""
    return str(e)
