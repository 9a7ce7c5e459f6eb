"""Formula language for coalition modalities over a finite Lukasiewicz chain.

The kernel AST has five constructors (top, proposition, negation,
implication, coalition box) plus the outcome modality [O] of the enriched
dialect.  Everything else in the surface syntax -- 0, oplus, odot, meet,
join, iff, n-fold sums and threshold maps -- is desugared at parse time.

Surface grammar (whitespace insignificant, unary binds tightest, binary
connectives are right-associative with `(.)` > `(+)` > `&` > `|` > `->` >
`<->`):

    1  0  p<digits>  ~F  (F)  F -> F  F & F  F | F  F (+) F  F (.) F
    F <-> F  [<coalition>]F  [O]F  tau(i)F  <digits>.F

Coalition literals: ``{1,3}``, ``{}`` for the empty coalition, ``N`` for the
grand coalition.
"""

from __future__ import annotations

import re
import sys
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable

from .chain import TAU_OPLUS, Chain, synthesize_tau_term
from .errors import DialectViolation, FormulaSyntaxError, InvalidInput, UnknownPlayer, read_int

DIALECT_L = "L"
DIALECT_LPLUS = "L+"


@dataclass(frozen=True)
class Coalition:
    """A subset of the player set {1, ..., k}, stored as a bitmask."""

    mask: int
    k: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.k):
            raise UnknownPlayer(f"mask {self.mask} does not fit {self.k} players")

    @classmethod
    def of(cls, players, k: int) -> "Coalition":
        mask = 0
        for p in players:
            if not 1 <= p <= k:
                raise UnknownPlayer(f"player {p} outside 1..{k}")
            mask |= 1 << (p - 1)
        return cls(mask, k)

    @classmethod
    def parse(cls, text: str, k: int) -> "Coalition | None":
        """The coalition written N or {i,j,...}, or None for other text."""
        text = text.strip()
        if text == "N":
            return cls.grand(k)
        if not re.fullmatch(r"\{\s*(?:\d+(?:\s*,\s*\d+)*)?\s*\}", text):
            return None
        return cls.of([read_int(p, "player number") for p in re.findall(r"\d+", text)], k)

    @classmethod
    def empty(cls, k: int) -> "Coalition":
        return cls(0, k)

    @classmethod
    def grand(cls, k: int) -> "Coalition":
        return cls((1 << k) - 1, k)

    def members(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.k + 1) if self.mask >> (p - 1) & 1)

    def complement(self) -> "Coalition":
        return Coalition(((1 << self.k) - 1) ^ self.mask, self.k)

    def union(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask, self.k)

    def is_grand(self) -> bool:
        return self.mask == (1 << self.k) - 1

    def __str__(self):
        if self.is_grand():
            return "N"
        return "{" + ",".join(str(p) for p in self.members()) + "}"


class _InternRef(weakref.ref):
    """A weak reference to an interned node that also holds the node's key.
    The key is set after construction, so no Python-level __new__ or
    __init__ runs (weakref.KeyedRef has both)."""

    __slots__ = ("key",)


# the one live node per key (class, *fields), held weakly
_INTERNED: dict[tuple, _InternRef] = {}
# reentrant: a release can run inside a build, when building frees a node
_INTERN_LOCK = threading.RLock()


def _release(ref):
    with _INTERN_LOCK:
        if _INTERNED.get(ref.key) is ref:
            del _INTERNED[ref.key]


class Formula:
    """Base class of the kernel AST nodes.

    Nodes are hash-consed: constructing a node returns the one live node of
    its class and fields, so == and hash are identity.  A node is immutable,
    and pickling or copying it gives back that same node.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        with _INTERN_LOCK:
            # another thread may have built the node since the lookup
            ref = _INTERNED.get(key)
            node = None if ref is None else ref()
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    object.__setattr__(node, name, value)
                ref = _InternRef(node, _release)
                ref.key = key
                _INTERNED[key] = ref
            return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Top(Formula):
    __slots__ = __match_args__ = ()

    def __str__(self):
        return "1"


class Prop(Formula):
    __slots__ = __match_args__ = ("index",)

    def __str__(self):
        return f"p{self.index}"


class Neg(Formula):
    __slots__ = __match_args__ = ("sub",)

    def __str__(self):
        return f"~{self.sub}"


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __str__(self):
        return f"({self.left} -> {self.right})"


class Box(Formula):
    __slots__ = __match_args__ = ("coalition", "sub")

    def __str__(self):
        return f"[{self.coalition}]{self.sub}"


class BoxO(Formula):
    __slots__ = __match_args__ = ("sub",)

    def __str__(self):
        return f"[O]{self.sub}"


TOP = Top()


def bottom() -> Formula:
    return Neg(TOP)


# -- derived connectives (desugared forms) ----------------------------------


def oplus(a: Formula, b: Formula) -> Formula:
    return Implies(Neg(a), b)


def odot(a: Formula, b: Formula) -> Formula:
    return Neg(Implies(a, Neg(b)))


def join(a: Formula, b: Formula) -> Formula:
    return Implies(Implies(a, b), b)


def meet(a: Formula, b: Formula) -> Formula:
    return Neg(join(Neg(a), Neg(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return odot(Implies(a, b), Implies(b, a))


def nfold_oplus(count: int, phi: Formula) -> Formula:
    out = phi
    for _ in range(count - 1):
        out = oplus(out, phi)
    return out


def doubled(ops: tuple[str, ...], phi: Formula) -> Formula:
    """phi under the doubling maps ops (TAU_OPLUS or TAU_ODOT), first
    applied first, as a TauTerm applies them."""
    for op in ops:
        phi = oplus(phi, phi) if op == TAU_OPLUS else odot(phi, phi)
    return phi


def tau_formula(i: int, chain: Chain, phi: Formula) -> Formula:
    """Expand the threshold map at i/n into doubling maps on the formula."""
    return doubled(synthesize_tau_term(chain, i).ops, phi)


# -- structural utilities ---------------------------------------------------


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, (Neg, Box, BoxO)):
        return (phi.sub,)
    if isinstance(phi, Implies):
        return (phi.left, phi.right)
    return ()


def subformulas(phi: Formula) -> tuple[Formula, ...]:
    """All distinct subformulas of phi, children before parents."""
    seen: dict[Formula, None] = {}

    def walk(node):
        if node in seen:
            return
        for child in children(node):
            walk(child)
        seen[node] = None

    walk(phi)
    return tuple(seen)


def substitute(phi: Formula, prop: Prop, repl: Formula) -> Formula:
    """Replace every occurrence of the proposition in phi by repl."""
    if phi == prop:
        return repl
    if isinstance(phi, Neg):
        return Neg(substitute(phi.sub, prop, repl))
    if isinstance(phi, Implies):
        return Implies(
            substitute(phi.left, prop, repl), substitute(phi.right, prop, repl)
        )
    if isinstance(phi, Box):
        return Box(phi.coalition, substitute(phi.sub, prop, repl))
    if isinstance(phi, BoxO):
        return BoxO(substitute(phi.sub, prop, repl))
    return phi


def propositions(phi: Formula) -> tuple[int, ...]:
    """Sorted indices of the propositions occurring in phi."""
    return propositions_among(subformulas(phi))


def propositions_among(nodes: Iterable[Formula]) -> tuple[int, ...]:
    """Sorted indices of the propositions among nodes, such as the
    subformulas of a formula already walked."""
    return tuple(sorted({f.index for f in nodes if isinstance(f, Prop)}))


def uses_outcome_modality(phi: Formula) -> bool:
    return any(isinstance(f, BoxO) for f in subformulas(phi))


def print_formula(phi: Formula) -> str:
    return str(phi)


# -- parser -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<tau>tau\(\s*\d+\s*\))
      | (?P<nfold>\d+\.)
      | (?P<oplus>\(\+\))
      | (?P<odot>\(\.\))
      | (?P<iff><->)
      | (?P<implies>->)
      | (?P<coal>\[\s*(?:O|N|\{[\d\s,]*\})\s*\])
      | (?P<prop>p\d+)
      | (?P<one>1)
      | (?P<zero>0)
      | (?P<neg>~)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<lpar>\()
      | (?P<rpar>\))
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise FormulaSyntaxError(f"unexpected input {text[pos:pos + 8]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


# token -> (binding strength, builder), loosest first; all right-associative
_BINARY = {
    "iff": (1, iff),
    "implies": (2, Implies),
    "or": (3, join),
    "and": (4, meet),
    "oplus": (5, oplus),
    "odot": (6, odot),
}

_TIGHTEST = max(level for level, _ in _BINARY.values())


class _Parser:
    def __init__(self, tokens, k, dialect, chain):
        self.tokens = tokens
        self.i = 0
        self.k = k
        self.dialect = dialect
        self.chain = chain

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        phi = self.binary(1)
        kind, _, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError("trailing input", pos)
        return phi

    def binary(self, level: int) -> Formula:
        if level > _TIGHTEST:
            return self.unary()
        left = self.binary(level + 1)
        op = _BINARY.get(self.peek()[0])
        if op is not None and op[0] == level:
            self.advance()
            right = self.binary(level)  # right-associative
            return op[1](left, right)
        return left

    def unary(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "one":
            return TOP
        if kind == "zero":
            return bottom()
        if kind == "prop":
            return Prop(read_int(text[1:], "proposition index"))
        if kind == "neg":
            return Neg(self.unary())
        if kind == "lpar":
            phi = self.binary(1)
            kind, _, pos = self.advance()
            if kind != "rpar":
                raise FormulaSyntaxError("expected ')'", pos)
            return phi
        if kind == "coal":
            body = text[1:-1].strip()
            if body == "O":
                if self.dialect != DIALECT_LPLUS:
                    raise DialectViolation("[O] is not part of the O-free language")
                return BoxO(self.unary())
            coalition = Coalition.parse(body, self.k)
            if coalition is None:
                raise FormulaSyntaxError(f"malformed coalition {body!r}", pos)
            return Box(coalition, self.unary())
        if kind == "tau":
            i = read_int(text[4:-1], "tau level")
            if self.chain is None:
                raise FormulaSyntaxError("tau(i) needs a chain parameter", pos)
            return tau_formula(i, self.chain, self.unary())
        if kind == "nfold":
            count = read_int(text[:-1], "n-fold count")
            if count < 1:
                raise FormulaSyntaxError("n-fold sum needs a positive count", pos)
            # each term nests one level deeper, so no evaluator walks this sum
            if count > sys.getrecursionlimit():
                raise FormulaSyntaxError("n-fold sum nested too deeply", pos)
            return nfold_oplus(count, self.unary())
        raise FormulaSyntaxError(f"unexpected token {text!r}", pos)


def parse(
    text: str,
    players: int,
    dialect: str = DIALECT_L,
    chain: Chain | None = None,
) -> Formula:
    """Parse surface syntax into the kernel AST, desugaring on the way.

    The chain is only needed when the text uses tau(i); everything else is
    chain-independent.
    """
    if dialect not in (DIALECT_L, DIALECT_LPLUS):
        raise InvalidInput(f"unknown dialect {dialect!r}")
    return _Parser(_tokenize(text), players, dialect, chain).parse()
