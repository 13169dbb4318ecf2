"""Element- and structure-level predicates: ordered idempotents, inverses,
regularity variants, group-likeness, H-commutativity, inverse deciders,
and H-unique idempotent generation.

Every decider returns a :class:`PropertyReport` whose witness is the
lexicographically least violating tuple, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from osgkit.relations import greens_relations
from osgkit.structure import OrderedSemigroup
from osgkit.subsets import Subset, downward_closure, subset_product

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


def ordered_idempotents(s: OrderedSemigroup) -> Subset:
    """Elements e with e <= e*e."""
    bits = 0
    for e in range(s.order):
        if s.leq[e][s.mult[e][e]]:
            bits |= 1 << e
    return Subset(bits, s.order)


@lru_cache(maxsize=65536)
def inverses_of(s: OrderedSemigroup, a: int) -> Subset:
    """All b with a <= a*b*a and b <= b*a*b."""
    bits = 0
    mult, leq = s.mult, s.leq
    for b in range(s.order):
        aba = mult[mult[a][b]][a]
        bab = mult[mult[b][a]][b]
        if leq[a][aba] and leq[b][bab]:
            bits |= 1 << b
    return Subset(bits, s.order)


def _closure_membership(s: OrderedSemigroup, a: int, kind: str) -> bool:
    n = s.order
    full = Subset.full(n)
    single = Subset.of([a], n)
    sq = Subset.of([s.mult[a][a]], n)
    if kind == "regular":
        core = subset_product(s, subset_product(s, single, full), single)
    elif kind == "completely_regular":
        core = subset_product(s, subset_product(s, sq, full), sq)
    elif kind == "right_regular":
        core = subset_product(s, sq, full)
    else:  # left_regular
        core = subset_product(s, full, sq)
    return a in downward_closure(s, core)


@lru_cache(maxsize=65536)
def regularity(s: OrderedSemigroup, kind: str = "regular") -> PropertyReport:
    """Every element lies in its kind's closure set: a in (aSa] for
    regular, (a2Sa2] for completely regular, (a2S] / (Sa2] for the
    one-sided variants.  Witness is the least failing element."""
    if kind not in REGULARITY_KINDS:
        raise ValueError(f"kind must be one of {REGULARITY_KINDS}, got {kind!r}")
    for a in range(s.order):
        if not _closure_membership(s, a, kind):
            return PropertyReport(kind, False, (a,))
    return PropertyReport(kind, True)


def is_group_like(s: OrderedSemigroup, kind: str = "two_sided") -> PropertyReport:
    """two_sided: every a, b satisfy a in (Sb] and b in (aS]; left keeps
    only the first membership, right only the second.

    Defined on regular structures only; a non-regular input yields a
    not-applicable report (distinct from a false one).
    """
    if kind not in GROUP_LIKE_KINDS:
        raise ValueError(f"kind must be one of {GROUP_LIKE_KINDS}, got {kind!r}")
    prop = f"group_like_{kind}"
    reg = regularity(s, "regular")
    if not reg.holds:
        return PropertyReport(
            prop, False, reg.witness,
            notes="not applicable: structure is not regular", applicable=False,
        )
    n = s.order
    full = Subset.full(n)
    below_sb = [downward_closure(s, subset_product(s, full, Subset.of([b], n))) for b in range(n)]
    below_as = [downward_closure(s, subset_product(s, Subset.of([a], n), full)) for a in range(n)]
    for a in range(n):
        for b in range(n):
            if kind in ("two_sided", "left") and a not in below_sb[b]:
                return PropertyReport(prop, False, (a, b))
            if kind in ("two_sided", "right") and b not in below_as[a]:
                return PropertyReport(prop, False, (a, b))
    return PropertyReport(prop, True)


def h_commutes(s: OrderedSemigroup, a: int, b: int) -> bool:
    """a*b <= b*x*a for some x, and symmetrically b*a <= a*y*b for some y."""
    mult, leq = s.mult, s.leq
    ab, ba = mult[a][b], mult[b][a]
    forward = any(leq[ab][mult[mult[b][x]][a]] for x in range(s.order))
    if not forward:
        return False
    return any(leq[ba][mult[mult[a][y]][b]] for y in range(s.order))


@lru_cache(maxsize=65536)
def is_inverse_ordered(s: OrderedSemigroup) -> PropertyReport:
    """Regular, and any two inverses of each element share an H-class.

    A non-regular structure reports false with its least non-regular
    element; otherwise a failing witness is the least (a, b, c) with b
    and c both inverse to a but not H-related.
    """
    reg = regularity(s, "regular")
    if not reg.holds:
        return PropertyReport(
            "inverse", False, reg.witness, notes="not regular",
        )
    holds, witness = inverses_pairwise_related(
        s, range(s.order), greens_relations(s).H.related
    )
    return PropertyReport("inverse", holds, witness)


def inverses_pairwise_related(s: OrderedSemigroup, elements, related):
    """(holds, witness): related(b, c) for any two inverses b, c of each a
    in elements; a failing witness is the first such (a, b, c)."""
    for a in elements:
        inv = inverses_of(s, a).members()
        for b in inv:
            for c in inv:
                if not related(b, c):
                    return False, (a, b, c)
    return True, None


def generator_uniqueness(s: OrderedSemigroup, side: str) -> PropertyReport:
    """Each principal ideal of the side matches one generated by an
    ordered idempotent, and idempotents generating equal ideals share an
    H-class."""
    if side not in GENERATOR_SIDES:
        raise ValueError(f"side must be one of {GENERATOR_SIDES}, got {side!r}")
    prop = f"generator_uniqueness_{side}"
    # principal ideals of the side are equal exactly when their
    # generators are L- (left) or R- (right) related
    greens = greens_relations(s)
    same_ideal = greens.L if side == "left" else greens.R
    idem = ordered_idempotents(s).members()
    idem_classes = {same_ideal.class_of[e] for e in idem}
    for a in range(s.order):
        if same_ideal.class_of[a] not in idem_classes:
            return PropertyReport(prop, False, (a,), notes="no idempotent generator")
    for e in idem:
        for f in idem:
            if same_ideal.related(e, f) and not greens.H.related(e, f):
                return PropertyReport(prop, False, (e, f), notes="generators not H-related")
    return PropertyReport(prop, True)


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
