"""Condition catalog and equivalence sweeps.

Each catalog condition is a decidable statement about one valid
structure, decided on its fact record (:func:`osgkit.properties.facts`).
Lemma 4's four inverse-pair laws (L4.1-L4.4) and the sandwich-set
condition (TESF) read the record's witnesses, scanned by the kernel as
it builds the record.  The others are bounded quantifier scans over the
record, where each inner existential scan is one bit-mask test, and each
inner universal scan over a set of elements tests a whole row: Green's
classes and H-commutation are read from the record's rows, so the
witness of a row test is its lowest stray bit.  Witnesses are
lexicographically least over the scan order.  Theorem
groupings bundle conditions that are expected to agree (equivalences),
to follow from the first condition (implications), or to hold outright,
under an ambient hypothesis.

Groupings share conditions (T35.1 is in four of them), so each condition
that a set of groupings needs is decided once per fact record.
Sweeping a corpus reports, per grouping, how many structures met the
hypothesis and every disagreement found; structures outside the ambient
are still evaluated and logged separately so borderline cases stay
visible.  A sweep decides each grouping once per distinct verdict pattern
(12 over the 4753 order-4 classes) and builds reports only for the
records it prints: 1096 for the 992 labelled structures of orders 1..3,
where building every grouping's report on each class took 2199.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable

from osgkit.properties import Facts, facts, lowest
from osgkit.relations import Partition
from osgkit.structure import OrderedSemigroup, is_valid, structure_key

REGULAR = "regular"

Verdict = tuple[bool, "tuple | None"]


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: bool
    witness: tuple | None
    hypothesis_met: bool


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    # structure_key hex: the canonical form up to order 5, above it the
    # structure's own encoding (canonical_form and is_isomorphic raise)
    structure: str
    vector: tuple[ConditionVerdict, ...]
    consistent: bool
    hypothesis_met: bool


@dataclass(frozen=True)
class Condition:
    """A catalog condition: the functions of the ids in given, then fn,
    must hold on the record; the verdict is the first failing one's, else
    fn's.  given ids are looked up in ``CONDITIONS`` as the functions are
    read, so a shared function is one object, decided once per record.
    Verdicts that hold with no witness must not depend on the labelling."""

    id: str
    description: str
    ambient: str | None
    fn: Callable[[Facts], Verdict]
    given: tuple[str, ...] = ()

    @property
    def fns(self) -> tuple[Callable[[Facts], Verdict], ...]:
        return (*(CONDITIONS[cid].fn for cid in self.given), self.fn)


@dataclass(frozen=True)
class Theorem:
    id: str
    description: str
    kind: str  # equivalence | implications | all_hold
    items: tuple[tuple[str, ...], ...]
    ambient: str | None


# ---------------------------------------------------------------------------
# condition scans, each over one structure's fact record


def _report_verdict(report) -> Verdict:
    return report.holds, report.witness


def _idempotents_h_commute_with(f: Facts, others: int) -> Verdict:
    """Each ordered idempotent e is H-commutative with each member of the
    mask others."""
    for e in f.idem:
        stray = others & ~f.hc[e]
        if stray:
            return False, (e, lowest(stray))
    return True, None


def _regular_and_idempotents_commute(f: Facts) -> Verdict:
    if f.not_regular is not None:
        return False, (f.not_regular,)
    return _idempotents_h_commute_with(f, f.idem_mask)


def _green_related_idempotents_h_related(f: Facts, relations) -> Verdict:
    """Ordered idempotents related by any of the named Green relations
    are H-related."""
    rows = [getattr(f, rel) for rel in relations]
    for e in f.idem:
        related = 0
        for row in rows:
            related |= row[e]
        stray = f.idem_mask & related & ~f.H[e]
        if stray:
            return False, (e, lowest(stray))
    return True, None


def _inverse_pair_products_commute(f: Facts, elements) -> Verdict:
    """aa' and a'a are H-commutative for each a in elements, each a'."""
    mult, hc = f.mult, f.hc
    for a in elements:
        for ap in f.inv[a]:
            if not hc[mult[a][ap]] >> mult[ap][a] & 1:
                return False, (a, ap)
    return True, None


def _idempotent_inverses_h_commute(f: Facts) -> Verdict:
    """Any two inverses b, c of each ordered idempotent e are
    H-commutative; the witness is the least such (e, b, c) that are not."""
    for e in f.idem:
        for b in f.inv[e]:
            stray = f.inv_mask[e] & ~f.hc[b]
            if stray:
                return False, (e, b, lowest(stray))
    return True, None


def _inverse(f: Facts) -> Verdict:
    return _report_verdict(f.inverse())


def _completely_regular(f: Facts) -> Verdict:
    return _report_verdict(f.regularity("completely_regular"))


def _group_like_decomposition(f: Facts) -> Verdict:
    """S is a complete semilattice of group-like ordered semigroups exactly
    when every class of sigma, the least complete semilattice congruence,
    is group-like; the witness is sigma's classes.  Each class, a
    subsemigroup, is tested on S's own record (``Facts.not_group_like``).

    Proof.  Let rho be a complete semilattice congruence whose classes are
    all group-like.  sigma is contained in rho, because sigma is the least.
    Conversely, let a and b share a rho-class C.  C is group-like, so
    a <= cb and b <= ac' for some c, c' in C.  Write [x] for the sigma-class
    of x; sigma is a complete semilattice congruence, so x <= y gives
    [x] = [xy].  Then [a] = [a][c][b], and as [b][b] = [b], [a][b] = [a]
    in the semilattice S/sigma: [a] <= [b].  Likewise b <= ac' gives
    [b] <= [a], so [a] = [b] and rho is contained in sigma.  So rho = sigma:
    sigma is the only partition that can serve, and the decomposition in
    the paper's main theorem is unique when it exists.

    A structure that is not regular fails without sigma being built: each
    group-like class C is regular, a <= ada with d in C
    (``Facts.not_group_like``), so were every sigma-class group-like,
    every element of S would be regular in S.
    """
    if f.not_regular is not None:
        return False, None
    classes = Partition.from_labels(f.filters).classes
    if all(f.not_group_like(c) is None for c in classes):
        return True, classes
    return False, None


def _idempotent_products_h_related(f: Facts) -> Verdict:
    mult, idem, h = f.mult, f.idem_mask, f.H
    for a in range(f.n):
        for b in range(f.n):
            ab, ba = mult[a][b], mult[b][a]
            if idem >> ab & 1 and idem >> ba & 1 and h[ab] != h[ba]:
                return False, (a, b)
    return True, None


def _all_greens_coincide(f: Facts) -> Verdict:
    """The witness is the least a, b with a < b that one of L, R, J
    relates differently from H: the lowest bit above a where a's rows
    differ."""
    for a in range(f.n):
        h = f.H[a]
        split = ((f.L[a] ^ h) | (f.R[a] ^ h) | (f.J[a] ^ h)) >> a + 1
        if split:
            return False, (a, a + 1 + lowest(split))
    return True, None


def _cr_gives_witnessed_powers(f: Facts) -> Verdict:
    if f.not_completely_regular is not None:
        return True, None
    mult, leq, span = f.mult, f.s.leq, range(f.n)
    for a in span:
        aa = mult[a][a]
        found = any(
            leq[a][mult[mult[a][x]][aa]] and leq[a][mult[mult[aa][x]][a]]
            for x in span
        )
        if not found:
            return False, (a,)
    return True, None


def _cr_least_congruence_is_j(f: Facts) -> Verdict:
    if f.not_completely_regular is not None:
        return True, None
    least, j = f.filters, f.J  # equal filters, equal J rows: related
    for a in range(f.n):
        for b in range(a + 1, f.n):
            if (least[a] == least[b]) != (j[a] == j[b]):
                return False, (a, b)
    return True, None


# ---------------------------------------------------------------------------
# catalog

CONDITIONS: dict[str, Condition] = {}


def _register(id: str, description: str, ambient: str | None, fn, given=()):
    CONDITIONS[id] = Condition(id, description, ambient, fn, given)


_register("T33.L", "principal left ideals have H-unique idempotent generators",
          None, lambda f: _report_verdict(f.generator_uniqueness("left")))
_register("T33.R", "principal right ideals have H-unique idempotent generators",
          None, lambda f: _report_verdict(f.generator_uniqueness("right")))
_register("T35.1", "inverse: any two inverses of an element are H-related",
          REGULAR, _inverse)
_register("T35.2", "regular with pairwise H-commutative ordered idempotents",
          None, _regular_and_idempotents_commute)
_register("T35.3", "L- or R-related ordered idempotents are H-related",
          None, lambda f: _green_related_idempotents_h_related(f, ("L", "R")))
_register("L4.1", "a L b exactly when a'a H b'b for all inverse choices",
          REGULAR, lambda f: (f.not_left_matched is None, f.not_left_matched))
_register("L4.2", "a R b exactly when aa' H bb' for all inverse choices",
          REGULAR, lambda f: (f.not_right_matched is None, f.not_right_matched))
_register("L4.3", "aexa' and a'eya land in the ordered idempotents for some x, y",
          REGULAR, lambda f: (f.not_conjugate is None, f.not_conjugate))
_register("L4.4", "ab <= abb'xa'ab and b'a' <= b'a'aybb'a' for some x, y",
          REGULAR, lambda f: (f.not_reproduced is None, f.not_reproduced))
_register("TESF", "inverses of members of (eSf] lie in (fSe]",
          None, lambda f: (f.not_sandwich_closed is None, f.not_sandwich_closed))
_register("C.1", "inverse: any two inverses of an element are H-related",
          REGULAR, lambda f: (True, None), given=("T35.1",))
_register("C.2", "aa' and a'a are H-commutative for every inverse pair",
          REGULAR, lambda f: _inverse_pair_products_commute(f, range(f.n)))
_register("C.3", "any two inverses of an ordered idempotent are H-related",
          REGULAR, lambda f: f.inverses_h_related(f.idem))
_register("C.4", "any two inverses of an ordered idempotent are H-commutative",
          REGULAR, _idempotent_inverses_h_commute)
_register("C.5", "ee' and e'e are H-commutative for idempotent inverse pairs",
          REGULAR, lambda f: _inverse_pair_products_commute(f, f.idem))
_register("B.1", "inverse and completely regular",
          REGULAR, _completely_regular, given=("T35.1",))
_register("B.2", "complete semilattice decomposition into group-like classes",
          REGULAR, _group_like_decomposition)
_register("B.3", "ab H ba whenever both products are ordered idempotents",
          REGULAR, _idempotent_products_h_related)
_register("B.4", "every ordered idempotent is H-commutative with every element",
          REGULAR, lambda f: _idempotents_h_commute_with(f, (1 << f.n) - 1))
_register("B.5", "J-related ordered idempotents are H-related",
          REGULAR, lambda f: _green_related_idempotents_h_related(f, ("J",)))
_register("B.6", "H, L, R, J all coincide",
          REGULAR, _all_greens_coincide)
_register("CR.W", "complete regularity yields a <= axa2 and a <= a2xa",
          None, _cr_gives_witnessed_powers)
_register("CR.J", "complete regularity makes the least complete semilattice "
          "congruence equal to J", None, _cr_least_congruence_is_j)


THEOREMS: dict[str, Theorem] = {}


def _group(id, description, kind, items, ambient):
    THEOREMS[id] = Theorem(id, description, kind, tuple(tuple(i) for i in items), ambient)


_group("THM_3_3", "inverse iff one-sided principal ideals are generated by "
       "H-unique ordered idempotents", "equivalence",
       [("T35.1",), ("T33.L", "T33.R")], REGULAR)
_group("THM_3_5", "inverse iff idempotents H-commute iff one-sided Green "
       "relations force H on idempotents", "equivalence",
       [("T35.1",), ("T35.2",), ("T35.3",)], REGULAR)
_group("THM_ESF", "inverse iff sandwich sets (eSf] send inverses to (fSe]",
       "equivalence", [("T35.1",), ("TESF",)], REGULAR)
_group("COR", "five equivalent forms of the inverse property on regular "
       "structures", "equivalence",
       [("C.1",), ("C.2",), ("C.3",), ("C.4",), ("C.5",)], REGULAR)
_group("THM_BIG", "six equivalent forms of inverse plus completely regular",
       "equivalence",
       [("B.1",), ("B.2",), ("B.3",), ("B.4",), ("B.5",), ("B.6",)], REGULAR)
_group("LEM_4", "inverse structures satisfy the four inverse-pair laws",
       "implications",
       [("T35.1",), ("L4.1",), ("L4.2",), ("L4.3",), ("L4.4",)], REGULAR)
_group("LEM_2_1", "complete regularity consequences", "all_hold",
       [("CR.W",), ("CR.J",)], None)


def condition_ids() -> tuple[str, ...]:
    return tuple(CONDITIONS)


def theorem_ids() -> tuple[str, ...]:
    return tuple(THEOREMS)


# ---------------------------------------------------------------------------
# evaluation


def _ambient_met(f: Facts, ambient: str | None) -> bool:
    if ambient is None:
        return True
    if ambient == REGULAR:
        return f.not_regular is None
    raise ValueError(f"unknown ambient {ambient!r}")


def evaluate_condition(s: OrderedSemigroup, condition_id: str) -> ConditionVerdict:
    """Decide one catalog condition on a valid structure."""
    return _condition_verdict(facts(s), condition_id, {})


def _entry(table: dict, what: str, key: str):
    try:
        return table[key]
    except KeyError:
        raise KeyError(f"unknown {what} {key!r}; known: {list(table)}") from None


def _condition_verdict(f: Facts, condition_id: str, outcomes: dict) -> ConditionVerdict:
    condition = _entry(CONDITIONS, "condition", condition_id)
    for fn in condition.fns:
        if fn not in outcomes:  # ids that share a function share its call
            outcomes[fn] = fn(f)
        holds, witness = outcomes[fn]
        if not holds:
            break
    return ConditionVerdict(
        condition_id, holds, witness, _ambient_met(f, condition.ambient)
    )


def _item_verdict(decided: dict, item: tuple[str, ...]) -> ConditionVerdict:
    verdicts = [decided[cid] for cid in item]
    if len(verdicts) == 1:
        return verdicts[0]
    holds = all(v.holds for v in verdicts)
    witness = next((v.witness for v in verdicts if not v.holds), None)
    return ConditionVerdict(
        "&".join(item), holds, witness, all(v.hypothesis_met for v in verdicts)
    )


def _consistent(kind: str, holds: list[bool], met: list[bool]) -> bool:
    """Whether the item verdicts fit the kind, counting only those taken
    inside their hypotheses (met); an implication whose first item misses
    its hypothesis holds vacuously.  With every met bit set, this is the
    test of a whole vector outside the grouping's hypothesis."""
    if kind == "implications":
        return not (met[0] and holds[0]) or all(h for h, m in zip(holds, met) if m)
    inside = [h for h, m in zip(holds, met) if m]
    if kind == "equivalence":
        return len(set(inside)) <= 1
    if kind == "all_hold":
        return all(inside)
    raise ValueError(f"unknown theorem kind {kind!r}")


def _judged(f: Facts, theorem: Theorem, decided: dict) -> tuple:
    """A grouping's item vector on the record f, whether it fits the
    grouping's kind, and whether f meets the grouping's ambient: the fields
    of its report after the ids."""
    vector = tuple(_item_verdict(decided, item) for item in theorem.items)
    holds, met = [v.holds for v in vector], [v.hypothesis_met for v in vector]
    return vector, _consistent(theorem.kind, holds, met), _ambient_met(f, theorem.ambient)


def _reports(f: Facts, structure: str, theorem_ids, outcomes=None,
             decided=None) -> list[TheoremReport]:
    """One report per grouping, in order, on the structure whose fact
    record is f and whose canonical form is structure; each condition
    function the groupings name is called once, however many ids share it,
    and not at all if outcomes already holds its verdict on f, nor an id's
    verdict built if decided holds it.  Both dicts are filled in."""
    theorems = [_entry(THEOREMS, "theorem", tid) for tid in theorem_ids]
    needed = dict.fromkeys(cid for t in theorems for item in t.items for cid in item)
    outcomes = {} if outcomes is None else outcomes
    decided = {} if decided is None else decided
    decided.update({cid: _condition_verdict(f, cid, outcomes)
                    for cid in needed if cid not in decided})
    return [TheoremReport(t.id, structure, *_judged(f, t, decided)) for t in theorems]


def check_theorem(s: OrderedSemigroup, theorem_id: str) -> TheoremReport:
    """Evaluate a grouping's condition vector on one valid structure.

    The report is marked hypothesis-unmet (and should be excluded from
    consistency accounting) when the structure misses the ambient.  It is
    the report :func:`sweep` gives it for that grouping, at any order 1..255.
    """
    return _reports(facts(s), structure_key(s).hex(), (theorem_id,))[0]


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class InconsistencyRecord:
    canonical: str
    structure: OrderedSemigroup
    report: TheoremReport


@dataclass(frozen=True)
class TheoremSweep:
    theorem: str
    checked: int
    hypothesis_met: int
    inconsistent: int
    inconsistencies: tuple[InconsistencyRecord, ...]
    outside_disagreements: tuple[InconsistencyRecord, ...]


@dataclass(frozen=True)
class SweepReport:
    theorems: tuple[TheoremSweep, ...]
    structures: int
    skipped: tuple[str, ...]

    @property
    def total_inconsistent(self) -> int:
        return sum(t.inconsistent for t in self.theorems)

    @staticmethod
    def merge(reports: Iterable["SweepReport"]) -> "SweepReport":
        reports = list(reports)
        if not reports:
            return SweepReport((), 0, ())
        by_theorem: dict[str, list[TheoremSweep]] = {}
        order: list[str] = []
        for report in reports:
            for sweep in report.theorems:
                if sweep.theorem not in by_theorem:
                    by_theorem[sweep.theorem] = []
                    order.append(sweep.theorem)
                by_theorem[sweep.theorem].append(sweep)
        merged = []
        for tid in order:
            parts = by_theorem[tid]
            incs = tuple(sorted(
                (r for p in parts for r in p.inconsistencies),
                key=lambda r: r.canonical,
            ))
            outs = tuple(sorted(
                (r for p in parts for r in p.outside_disagreements),
                key=lambda r: r.canonical,
            ))
            merged.append(TheoremSweep(
                theorem=tid,
                checked=sum(p.checked for p in parts),
                hypothesis_met=sum(p.hypothesis_met for p in parts),
                inconsistent=sum(p.inconsistent for p in parts),
                inconsistencies=incs,
                outside_disagreements=outs,
            ))
        return SweepReport(
            theorems=tuple(merged),
            structures=sum(r.structures for r in reports),
            skipped=tuple(n for r in reports for n in r.skipped),
        )


def _decision(f: Facts, theorem: Theorem, decided: dict) -> tuple[bool, bool]:
    """Whether f meets the grouping's hypothesis, and whether its class is
    recorded: inconsistent inside it, or outside it with a whole vector
    (every item taken as met) that does not fit the kind."""
    vector, consistent, met = _judged(f, theorem, decided)
    holds = [v.holds for v in vector]
    return met, not (consistent if met else _consistent(theorem.kind, holds, [True] * len(holds)))


def sweep(corpus, theorem_ids=None) -> SweepReport:
    """Check groupings across a corpus; deterministic ordering by
    :func:`~osgkit.structure.structure_key`, the canonical form at orders
    1..5 and the structure's own encoding above them.  A grouping id given
    more than once is swept once.  Invalid corpus members are skipped with
    a note, in corpus order.  Validity does not change under relabelling,
    so each class is validated once, on its first copy, after the keys are
    taken.

    Isomorphic copies of order at most 5 share their key (above order 5
    each copy is its own class, decided alone), and a condition's
    ``holds`` and ``hypothesis_met`` must not depend on the labelling
    (only its witness may), nor may a verdict that holds with no witness
    (B.2, witnessed by sigma's classes, is the one that holds with one), as
    for every catalog condition.  Each class is
    therefore evaluated on its first copy in corpus order, and counts for
    every copy under its verdict pattern: each needed condition function's
    ``holds`` and each named ambient's verdict.  Each grouping is decided
    once per pattern, with no report built, and ``hypothesis_met`` is read
    from the pattern counts.  Reports are built only for the groupings that
    record the class: on the first copy from the verdicts already decided;
    the other copies take the first copy's verdicts that hold with no
    witness and decide only the rest afresh, so each record carries its
    own copy's report and witnesses.
    """
    ids = tuple(dict.fromkeys(theorem_ids or THEOREMS))
    theorems = [_entry(THEOREMS, "theorem", tid) for tid in ids]
    needed = dict.fromkeys(cid for t in theorems for item in t.items for cid in item)
    conditions = [_entry(CONDITIONS, "condition", cid) for cid in needed]
    fns = dict.fromkeys(fn for c in conditions for fn in c.fns)
    ambients = dict.fromkeys([*(t.ambient for t in theorems), *(c.ambient for c in conditions)])

    keyed = []
    skipped = []
    valid = {}  # key -> validity, decided on the class's first copy
    for i, s in enumerate(corpus):
        key = structure_key(s).hex()
        if key not in valid:
            valid[key] = is_valid(s)
        if valid[key]:
            keyed.append((key, s))
        else:
            skipped.append(f"corpus[{i}] skipped: fails validation")
    keyed.sort(key=lambda pair: pair[0])

    # class by class: a copy's fact record serves every grouping, and is
    # dropped with its class
    histogram = Counter()  # verdict pattern -> copies
    decisions = {}  # verdict pattern -> each grouping's _decision
    inconsistencies = [[] for _ in ids]
    outside = [[] for _ in ids]
    for hexkey, group in groupby(keyed, key=lambda pair: pair[0]):
        copies = [s for _, s in group]
        f = facts(copies[0])
        outcomes = {fn: fn(f) for fn in fns}
        pattern = (*(holds for holds, _ in outcomes.values()),
                   *(_ambient_met(f, a) for a in ambients))
        histogram[pattern] += len(copies)
        if pattern not in decisions:
            decided = {cid: _condition_verdict(f, cid, outcomes) for cid in needed}
            decisions[pattern] = [_decision(f, t, decided) for t in theorems]
        recorded = [(tid, incs if met else outs) for tid, incs, outs, (met, record)
                    in zip(ids, inconsistencies, outside, decisions[pattern]) if record]
        chosen = [tid for tid, _ in recorded]
        for i, s in enumerate(copies if chosen else ()):
            if not i:
                verdicts = {}  # the first copy's condition verdicts, filled by _reports
            elif i == 1:  # the other copies keep the verdicts that hold with no witness
                outcomes = {fn: o for fn, o in outcomes.items() if o == (True, None)}
                verdicts = {cid: v for cid, v in verdicts.items() if v.holds and v.witness is None}
            reports = _reports(facts(s) if i else f, hexkey, chosen,
                               {**outcomes} if i else outcomes, {**verdicts} if i else verdicts)
            for (_, records), report in zip(recorded, reports):
                records.append(InconsistencyRecord(hexkey, s, report))
    sweeps = tuple(
        TheoremSweep(
            theorem=tid,
            checked=len(keyed),
            hypothesis_met=sum(n for p, n in histogram.items() if decisions[p][k][0]),
            inconsistent=len(inconsistencies[k]),
            inconsistencies=tuple(inconsistencies[k]),
            outside_disagreements=tuple(outside[k]),
        )
        for k, tid in enumerate(ids)
    )
    return SweepReport(sweeps, len(keyed), tuple(skipped))
