"""Reference oracle for the benchmark's correctness checks.

Everything here is written from the definitions, in plain Python, without
calling any of mveff's evaluators, tables or search code.  It reads mveff
objects only as data: formula nodes by class name and fields, effectivity
tables as rows of numerators indexed by coalition bitmask and encoded
assessment, game forms as strategy counts and a row-major outcome map.

Assessments over S outcomes on the chain with parameter n are encoded as
base-(n+1) integers with the first outcome most significant, which is the
layout of the ``table`` field of an effectivity document.

Playability predicates quantify literally over their displayed
quantifiers, so their cost grows with the square of the number of
assessments; they refuse tables above ``PREDICATE_LIMIT`` assessments.
"""

from __future__ import annotations

import itertools

PREDICATE_LIMIT = 81

PLAYABLE_PARTS = (
    "outcome_monotonic",
    "N_maximal",
    "superadditive",
    "homogeneous",
    "liveness",
    "safety",
)


# -- assessments ---------------------------------------------------------------


def encode(f, n):
    idx = 0
    for v in f:
        idx = idx * (n + 1) + v
    return idx


def decode(idx, n, size):
    digits = [0] * size
    for j in range(size - 1, -1, -1):
        idx, digits[j] = divmod(idx, n + 1)
    return tuple(digits)


def assessments(n, size):
    return list(itertools.product(range(n + 1), repeat=size))


def oplus(x, y, n):
    return min(n, x + y)


def odot(x, y, n):
    return max(0, x + y - n)


# -- effectivity tables ------------------------------------------------------------


class Table:
    """A plain copy of an effectivity table: rows[mask][encoded assessment]."""

    def __init__(self, n, k, size, rows):
        self.n = n
        self.k = k
        self.size = size
        self.rows = [list(row) for row in rows]
        if len(self.rows) != 1 << k or any(
            len(row) != (n + 1) ** size for row in self.rows
        ):
            raise ValueError("table shape does not match (k, n, size)")

    @classmethod
    def of(cls, eff):
        """Copy an mveff EffFn."""
        return cls(eff.chain.n, eff.k, len(eff.outcomes), eff.table)

    @property
    def full(self):
        return (1 << self.k) - 1

    def value(self, mask, f):
        return self.rows[mask][encode(f, self.n)]


# -- game forms -------------------------------------------------------------------------


def maxmin_cell(strategy_counts, outcome_map, n, mask, f):
    """max over the coalition's joint strategies of the min over the others'.

    Profiles are indexed row-major with player 1 varying slowest; f lists
    the numerator of every outcome.
    """
    k = len(strategy_counts)
    inside = [i for i in range(k) if mask >> i & 1]
    outside = [i for i in range(k) if not mask >> i & 1]
    best = 0
    for joint_in in itertools.product(*(range(strategy_counts[i]) for i in inside)):
        worst = n
        for joint_out in itertools.product(
            *(range(strategy_counts[i]) for i in outside)
        ):
            profile = [0] * k
            for i, s in zip(inside, joint_in):
                profile[i] = s
            for i, s in zip(outside, joint_out):
                profile[i] = s
            index = 0
            for m, s in zip(strategy_counts, profile):
                index = index * m + s
            worst = min(worst, f[outcome_map[index]])
        best = max(best, worst)
    return best


def game_form_table(strategy_counts, outcome_map, n, size):
    """The whole effectivity table of a game form, one max-min per cell."""
    k = len(strategy_counts)
    return Table(
        n,
        k,
        size,
        [
            [maxmin_cell(strategy_counts, outcome_map, n, mask, f) for f in assessments(n, size)]
            for mask in range(1 << k)
        ],
    )


# -- playability predicates, by definition --------------------------------------------


def _leq(f, g):
    return all(x <= y for x, y in zip(f, g))


def _disjoint_pairs(k):
    return [(c1, c2) for c1 in range(1 << k) for c2 in range(1 << k) if not c1 & c2]


def predicates(T, limit=PREDICATE_LIMIT):
    """Every playability predicate of the table, decided from its definition."""
    n = T.n
    fs = assessments(n, T.size)
    if len(fs) > limit:
        raise ValueError(f"{len(fs)} assessments exceed the oracle limit {limit}")
    index = {f: i for i, f in enumerate(fs)}
    rows = T.rows
    masks = range(1 << T.k)
    full = T.full
    proper = [m for m in masks if m != full]
    top = index[(n,) * T.size]
    bottom = index[(0,) * T.size]
    neg = [index[tuple(n - x for x in f)] for f in fs]
    below = [(fi, gi) for fi, f in enumerate(fs) for gi, g in enumerate(fs) if _leq(f, g)]
    meet = [[index[tuple(map(min, f, g))] for g in fs] for f in fs]
    pairs = _disjoint_pairs(T.k)

    def monotonic(ms):
        return all(rows[C][fi] <= rows[C][gi] for C in ms for fi, gi in below)

    def superadditive(pairs):
        return all(
            min(rows[c1][fi], rows[c2][gi]) <= rows[c1 | c2][meet[fi][gi]]
            for c1, c2 in pairs
            for fi in range(len(fs))
            for gi in range(len(fs))
        )

    def homogeneous(C, fi):
        f, v = fs[fi], rows[C][fi]
        doubled = index[tuple(oplus(x, x, n) for x in f)]
        squared = index[tuple(odot(x, x, n) for x in f)]
        return rows[C][doubled] == oplus(v, v, n) and rows[C][squared] == odot(v, v, n)

    def principal():
        # E(empty, .) is principal when some g has {f : E(empty, f) = 1}
        # equal to the up-set of the n-fold odot power of g
        accepted = {f for f, v in zip(fs, rows[0]) if v == n}
        for g in fs:
            power = g
            for _ in range(n - 1):
                power = tuple(odot(x, y, n) for x, y in zip(power, g))
            if accepted == {f for f in fs if _leq(power, f)}:
                return True
        return False

    every = range(len(fs))
    out = {
        "outcome_monotonic": monotonic(masks),
        "N_maximal": all(n - rows[0][neg[fi]] <= rows[full][fi] for fi in every),
        "regular": all(rows[C][fi] <= n - rows[full & ~C][neg[fi]] for C in masks for fi in every),
        "superadditive": superadditive(pairs),
        "coalition_monotonic": all(
            rows[C][fi] <= rows[D][fi] for C in masks for D in masks if C & D == C for fi in every
        ),
        "homogeneous": all(homogeneous(C, fi) for C in masks for fi in every),
        "liveness": all(rows[C][top] == n for C in masks),
        "safety": all(rows[C][bottom] == 0 for C in masks),
        "principal": principal(),
    }
    out["semi_playable"] = (
        monotonic(proper)
        and all(rows[C][top] == n and rows[C][bottom] == 0 for C in proper)
        and superadditive([p for p in pairs if p[0] | p[1] != full])
    )
    out["playable"] = all(out[name] for name in PLAYABLE_PARTS)
    out["truly_playable"] = out["playable"] and out["principal"]
    return out


def witness_violates(T, name, witness):
    """Whether a reported witness breaks the named predicate's definition.

    Witness layouts are those of mveff's playability reports; a
    semi-playability witness names the failing part first.
    """
    n, size = T.n, T.size
    full = T.full
    E = T.rows

    def f_of(idx):
        return decode(idx, n, size)

    if name == "semi_playable":
        return witness[0] in ("outcome_monotonic", "liveness", "safety", "superadditive") and (
            witness_violates(T, witness[0], witness[1:])
        )
    if name == "outcome_monotonic":
        mask, fi, gi = witness
        return _leq(f_of(gi), f_of(fi)) and E[mask][gi] > E[mask][fi]
    if name == "N_maximal":
        _, fi = witness
        neg_f = tuple(n - x for x in f_of(fi))
        return n - E[0][encode(neg_f, n)] > E[full][fi]
    if name == "regular":
        mask, fi = witness
        neg_f = tuple(n - x for x in f_of(fi))
        return E[mask][fi] > n - E[full & ~mask][encode(neg_f, n)]
    if name == "superadditive":
        c1, c2, fi, gi = witness
        meet = tuple(map(min, f_of(fi), f_of(gi)))
        return not c1 & c2 and min(E[c1][fi], E[c2][gi]) > E[c1 | c2][encode(meet, n)]
    if name == "coalition_monotonic":
        small, big, fi = witness
        return small & big == small and E[small][fi] > E[big][fi]
    if name == "homogeneous":
        mask, fi, op = witness
        f = f_of(fi)
        v = E[mask][fi]
        if op == "oplus":
            return E[mask][encode([oplus(x, x, n) for x in f], n)] != oplus(v, v, n)
        return E[mask][encode([odot(x, x, n) for x in f], n)] != odot(v, v, n)
    if name == "liveness":
        mask, fi = witness
        return f_of(fi) == (n,) * size and E[mask][fi] != n
    if name == "safety":
        mask, fi = witness
        return f_of(fi) == (0,) * size and E[mask][fi] != 0
    raise ValueError(f"no witness layout for {name!r}")


# -- formulas and models ----------------------------------------------------------------


class Model:
    """A plain copy of a model: tables per state, valuation rows, relation R."""

    def __init__(self, n, tables, valuation, relation=None):
        self.n = n
        self.tables = tables
        self.size = len(tables)
        self.valuation = dict(valuation)
        self.relation = relation

    @classmethod
    def of(cls, model):
        """Copy an mveff LnModel or EnrichedLnModel."""
        return cls(
            model.chain.n,
            [Table.of(E) for E in model.eff],
            {p: tuple(row) for p, row in model.valuation},
            getattr(model, "R", None),
        )

    def with_valuation(self, valuation):
        return Model(self.n, self.tables, valuation, self.relation)


def values(node, model, memo=None):
    """Value of a kernel formula at every state, by structural recursion."""
    if memo is None:
        memo = {}
    key = id(node)
    if key in memo:
        return memo[key][1]
    n = model.n
    kind = type(node).__name__
    if kind == "Top":
        out = (n,) * model.size
    elif kind == "Prop":
        out = tuple(model.valuation[node.index])
    elif kind == "Neg":
        out = tuple(n - x for x in values(node.sub, model, memo))
    elif kind == "Implies":
        left = values(node.left, model, memo)
        right = values(node.right, model, memo)
        out = tuple(min(n, n - a + b) for a, b in zip(left, right))
    elif kind == "Box":
        arg = values(node.sub, model, memo)
        mask = node.coalition.mask
        out = tuple(T.value(mask, arg) for T in model.tables)
    elif kind == "BoxO":
        if model.relation is None:
            raise ValueError("[O] needs a relation")
        arg = values(node.sub, model, memo)
        out = tuple(
            min((arg[v] for (w, v) in model.relation if w == u), default=n)
            for u in range(model.size)
        )
    else:
        raise TypeError(f"not a kernel formula node: {kind}")
    memo[key] = (node, out)  # keep the node alive so its id stays unique
    return out


def subformulas(node, out=None):
    """Distinct subformulas (by structure), children first."""
    if out is None:
        out = {}
    if node in out:
        return out
    for field in ("sub", "left", "right"):
        child = getattr(node, field, None)
        if child is not None:
            subformulas(child, out)
    out[node] = None
    return out


def propositions(node):
    return sorted({f.index for f in subformulas(node) if type(f).__name__ == "Prop"})


def standard_relation(model):
    """Pairs (u, v) whose empty-coalition value at the negated point of v is 0."""
    n = model.n
    pairs = set()
    for u, T in enumerate(model.tables):
        for v in range(model.size):
            neg_point = tuple(0 if j == v else n for j in range(model.size))
            if T.value(0, neg_point) == 0:
                pairs.add((u, v))
    return frozenset(pairs)
