"""Element- and structure-level predicates: ordered idempotents, inverses,
regularity variants, group-likeness, H-commutativity, inverse deciders,
and H-unique idempotent generation.

Each structure's facts are computed once, as int bit masks, into an
immutable :class:`Facts` record built by :func:`facts`; the deciders
below are adapters over it, and the catalog conditions of
:mod:`osgkit.theorems` read it directly.  Every decider returns a
:class:`PropertyReport` whose witness is the lexicographically least
violating tuple, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from osgkit.relations import GreensRelations, Partition, filter_relation, greens_from_ideals
from osgkit.structure import OrderedSemigroup
from osgkit.subsets import bit_mask, ideal_masks, table_masks

REGULARITY_KINDS = ("regular", "completely_regular", "right_regular", "left_regular")
GROUP_LIKE_KINDS = ("two_sided", "left", "right")
GENERATOR_SIDES = ("left", "right")


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    holds: bool
    witness: tuple[int, ...] | None = None
    notes: str = ""
    applicable: bool = True


@dataclass(frozen=True)
class Facts:
    """One structure's tables, subsets of the carrier as int bit masks.

    up[v] and down[v] hold the elements above and below v; row[p] and
    col[q] the sets pS and Sq; pxq[p][q] the set {(p*x)*q : x}.  inv[a]
    lists the inverses of a ascending, inv_mask[a] as a mask; idem and
    idem_mask are the ordered idempotents.  not_regular and
    not_completely_regular are the least element outside (aSa], resp.
    (a2Sa2], or None.  Green's relations and sigma are built from these
    masks on first read, so the deciders that need neither skip them.
    """

    s: OrderedSemigroup
    n: int
    mult: tuple[tuple[int, ...], ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    row: tuple[int, ...]
    col: tuple[int, ...]
    pxq: tuple[tuple[int, ...], ...]
    inv: tuple[tuple[int, ...], ...]
    inv_mask: tuple[int, ...]
    idem: tuple[int, ...]
    idem_mask: int
    not_regular: int | None
    not_completely_regular: int | None

    @cached_property
    def greens(self) -> GreensRelations:
        return greens_from_ideals(*ideal_masks(self.down, self.row, self.col))

    @cached_property
    def sigma(self) -> Partition:
        return filter_relation(self.mult, self.up)

    def regularity(self, kind: str) -> PropertyReport:
        if kind == "regular":
            a = self.not_regular
        elif kind == "completely_regular":
            a = self.not_completely_regular
        else:
            sq = [r[a] for a, r in enumerate(self.mult)]
            core = self.row if kind == "right_regular" else self.col
            a = next((a for a in range(self.n) if not core[sq[a]] & self.up[a]), None)
        return PropertyReport(kind, a is None, None if a is None else (a,))

    def group_like(self, kind: str) -> PropertyReport:
        prop = f"group_like_{kind}"
        if self.not_regular is not None:
            return PropertyReport(
                prop, False, (self.not_regular,),
                notes="not applicable: structure is not regular", applicable=False,
            )
        witness = self.not_group_like(range(self.n), kind)
        return PropertyReport(prop, witness is None, witness)

    def not_group_like(self, members, kind: str = "two_sided"):
        """The least (a, b) over the members C with a outside (Cb] (kinds
        two_sided and left) or b outside (aC] (two_sided and right),
        products taken in S, or None.

        On a subsemigroup C under the induced order, None for two_sided
        says C is group-like with no regularity check first: a <= ac' for
        some c' in C (take b = a) and c' <= da for some d in C, so
        a <= ada by compatibility, and C is regular.
        """
        mult, up = self.mult, self.up
        left, right = kind in ("two_sided", "left"), kind in ("two_sided", "right")
        col = {b: bit_mask([mult[c][b] for c in members]) for b in members}
        row = {a: bit_mask([mult[a][c] for c in members]) for a in members}
        return next(
            ((a, b) for a in members for b in members
             if left and not col[b] & up[a] or right and not row[a] & up[b]),
            None,
        )

    def h_commutes(self, a: int, b: int) -> bool:
        mult, up, pxq = self.mult, self.up, self.pxq
        return bool(pxq[b][a] & up[mult[a][b]]) and bool(pxq[a][b] & up[mult[b][a]])

    def inverse(self) -> PropertyReport:
        if self.not_regular is not None:
            return PropertyReport("inverse", False, (self.not_regular,), notes="not regular")
        holds, witness = self.inverses_h_related(range(self.n))
        return PropertyReport("inverse", holds, witness)

    def inverses_h_related(self, elements):
        """(holds, witness): any two inverses of each a in elements share
        an H-class; a failing witness is the first such (a, b, c) in the
        scan order of :meth:`inverses_pairwise_related`, where b is the
        least inverse of a."""
        h = self.greens.H.class_of
        for a in elements:
            inv = self.inv[a]
            for c in inv[1:]:
                if h[c] != h[inv[0]]:
                    return False, (a, inv[0], c)
        return True, None

    def inverses_pairwise_related(self, elements, related):
        """(holds, witness): related(b, c) for any two inverses b, c of
        each a in elements; a failing witness is the first such (a, b, c)."""
        for a in elements:
            inv = self.inv[a]
            for b in inv:
                for c in inv:
                    if not related(b, c):
                        return False, (a, b, c)
        return True, None

    def generator_uniqueness(self, side: str) -> PropertyReport:
        prop = f"generator_uniqueness_{side}"
        # principal ideals of the side are equal exactly when their
        # generators are L- (left) or R- (right) related
        greens = self.greens
        same_ideal = greens.L if side == "left" else greens.R
        idem, same, h = self.idem, same_ideal.class_of, greens.H.class_of
        idem_classes = {same[e] for e in idem}
        for a in range(self.n):
            if same[a] not in idem_classes:
                return PropertyReport(prop, False, (a,), notes="no idempotent generator")
        for e in idem:
            for f in idem:
                if same[e] == same[f] and h[e] != h[f]:
                    return PropertyReport(prop, False, (e, f), notes="generators not H-related")
        return PropertyReport(prop, True)


def facts(s: OrderedSemigroup) -> Facts:
    """Build the fact record of s.  Products keep the bracketing of their
    definitions, so the record holds for any table, associative or not."""
    span, mult, leq = range(s.order), s.mult, s.leq
    up, down, row, col = table_masks(s)
    pxq = tuple(
        tuple([bit_mask([mult[z][q] for z in ps]) for q in span]) for ps in map(set, mult)
    )
    inv = tuple(
        tuple([b for b in span if leq[a][mult[mult[a][b]][a]] and leq[b][mult[mult[b][a]][b]]])
        for a in span
    )
    idem = tuple([e for e in span if leq[e][mult[e][e]]])
    sq = [r[a] for a, r in enumerate(mult)]
    return Facts(
        s, s.order, mult, up, down, row, col, pxq, inv, tuple(map(bit_mask, inv)),
        idem, bit_mask(idem),
        next((a for a in span if not pxq[a][a] & up[a]), None),
        next((a for a in span if not pxq[sq[a]][sq[a]] & up[a]), None),
    )


def ordered_idempotents(s: OrderedSemigroup) -> frozenset[int]:
    """Elements e with e <= e*e."""
    return frozenset(facts(s).idem)


@lru_cache(maxsize=65536)
def inverses_of(s: OrderedSemigroup, a: int) -> frozenset[int]:
    """All b with a <= a*b*a and b <= b*a*b."""
    return frozenset(facts(s).inv[a])


@lru_cache(maxsize=65536)
def regularity(s: OrderedSemigroup, kind: str = "regular") -> PropertyReport:
    """Every element lies in its kind's closure set: a in (aSa] for
    regular, (a2Sa2] for completely regular, (a2S] / (Sa2] for the
    one-sided variants.  Witness is the least failing element."""
    if kind not in REGULARITY_KINDS:
        raise ValueError(f"kind must be one of {REGULARITY_KINDS}, got {kind!r}")
    return facts(s).regularity(kind)


def is_group_like(s: OrderedSemigroup, kind: str = "two_sided") -> PropertyReport:
    """two_sided: every a, b satisfy a in (Sb] and b in (aS]; left keeps
    only the first membership, right only the second.

    Defined on regular structures only; a non-regular input yields a
    not-applicable report (distinct from a false one).
    """
    if kind not in GROUP_LIKE_KINDS:
        raise ValueError(f"kind must be one of {GROUP_LIKE_KINDS}, got {kind!r}")
    return facts(s).group_like(kind)


def h_commutes(s: OrderedSemigroup, a: int, b: int) -> bool:
    """a*b <= b*x*a for some x, and symmetrically b*a <= a*y*b for some y."""
    return facts(s).h_commutes(a, b)


@lru_cache(maxsize=65536)
def is_inverse_ordered(s: OrderedSemigroup) -> PropertyReport:
    """Regular, and any two inverses of each element share an H-class.

    A non-regular structure reports false with its least non-regular
    element; otherwise a failing witness is the least (a, b, c) with b
    and c both inverse to a but not H-related.
    """
    return facts(s).inverse()


def generator_uniqueness(s: OrderedSemigroup, side: str) -> PropertyReport:
    """Each principal ideal of the side matches one generated by an
    ordered idempotent, and idempotents generating equal ideals share an
    H-class."""
    if side not in GENERATOR_SIDES:
        raise ValueError(f"side must be one of {GENERATOR_SIDES}, got {side!r}")
    return facts(s).generator_uniqueness(side)


# ---------------------------------------------------------------------------
# predicate registry, used by enumeration filters and by the decomposition
# search in osgkit.oracles

def _bool(fn):
    return lambda s: fn(s).holds


PROPERTY_PREDICATES = {
    "regular": _bool(lambda s: regularity(s, "regular")),
    "completely_regular": _bool(lambda s: regularity(s, "completely_regular")),
    "right_regular": _bool(lambda s: regularity(s, "right_regular")),
    "left_regular": _bool(lambda s: regularity(s, "left_regular")),
    "group_like": _bool(lambda s: is_group_like(s, "two_sided")),
    "left_group_like": _bool(lambda s: is_group_like(s, "left")),
    "right_group_like": _bool(lambda s: is_group_like(s, "right")),
    "inverse": _bool(is_inverse_ordered),
}
# aliases: catalog names kept stable for callers
PROPERTY_PREDICATES["is_inverse_ordered"] = PROPERTY_PREDICATES["inverse"]
PROPERTY_PREDICATES["t_simple"] = PROPERTY_PREDICATES["group_like"]


def resolve_predicate(prop: str):
    try:
        return PROPERTY_PREDICATES[prop]
    except KeyError:
        raise KeyError(
            f"unknown property {prop!r}; known: {sorted(PROPERTY_PREDICATES)}"
        ) from None
