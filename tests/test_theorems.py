import functools
import hashlib
import random
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgkit.properties import (
    GENERATOR_SIDES,
    GROUP_LIKE_KINDS,
    REGULARITY_KINDS,
    facts,
    generator_uniqueness,
    h_commutes,
    inverses_of,
    is_group_like,
    is_inverse_ordered,
    ordered_idempotents,
    regularity,
)
from osgkit.relations import greens_relations
from osgkit import kernel, oracles, properties, relations, theorems
from osgkit.enumeration import (
    EnumerationOptions,
    enumerate_ordered_semigroups,
    enumerate_partial_orders,
)
from osgkit.structure import canonical_form, from_flat, from_table, relabel, validate
from osgkit.theorems import (
    CONDITIONS,
    THEOREMS,
    SweepReport,
    check_theorem,
    condition_ids,
    evaluate_condition,
    sweep,
    theorem_ids,
)


# ---------------------------------------------------------------------------
# catalog shape


def test_catalog_contains_every_condition():
    expected = {
        "T33.L", "T33.R", "T35.1", "T35.2", "T35.3",
        "L4.1", "L4.2", "L4.3", "L4.4", "TESF",
        "C.1", "C.2", "C.3", "C.4", "C.5",
        "B.1", "B.2", "B.3", "B.4", "B.5", "B.6",
        "CR.W", "CR.J",
    }
    assert set(condition_ids()) == expected


def test_catalog_contains_every_grouping():
    assert set(theorem_ids()) == {
        "THM_3_3", "THM_3_5", "THM_ESF", "COR", "THM_BIG", "LEM_4", "LEM_2_1",
    }
    assert THEOREMS["THM_3_3"].items == (("T35.1",), ("T33.L", "T33.R"))
    assert THEOREMS["LEM_4"].kind == "implications"
    assert THEOREMS["LEM_2_1"].kind == "all_hold"


# ---------------------------------------------------------------------------
# evaluate_condition


def test_evaluate_condition_examples(lz2, sl2, t1):
    verdict = evaluate_condition(lz2, "B.3")
    assert not verdict.holds
    assert verdict.witness == (0, 1)
    assert evaluate_condition(sl2, "T33.L").holds
    for cid in condition_ids():
        assert evaluate_condition(t1, cid).holds


def test_evaluate_condition_unknown_id(t1):
    with pytest.raises(KeyError):
        evaluate_condition(t1, "T99.9")


def test_condition_witnesses_reverify(lz2):
    greens = greens_relations(lz2)
    idem = ordered_idempotents(lz2)

    b3 = evaluate_condition(lz2, "B.3")
    a, b = b3.witness
    ab, ba = lz2.mult[a][b], lz2.mult[b][a]
    assert ab in idem and ba in idem and not greens.H.related(ab, ba)

    b4 = evaluate_condition(lz2, "B.4")
    e, x = b4.witness
    assert e in idem and not h_commutes(lz2, e, x)

    b5 = evaluate_condition(lz2, "B.5")
    e, f = b5.witness
    assert greens.J.related(e, f) and not greens.H.related(e, f)

    c3 = evaluate_condition(lz2, "C.3")
    e, b, c = c3.witness
    inv = inverses_of(lz2, e)
    assert e in idem and b in inv and c in inv
    assert not greens.H.related(b, c)


def test_hypothesis_met_marks_non_regular(n2):
    verdict = evaluate_condition(n2, "T35.1")
    assert not verdict.hypothesis_met
    assert evaluate_condition(n2, "T35.3").hypothesis_met


def test_cr_conditions_vacuous_without_antecedent(n2):
    # n2 is not completely regular, so both implications hold vacuously
    assert evaluate_condition(n2, "CR.W").holds
    assert evaluate_condition(n2, "CR.J").holds


# ---------------------------------------------------------------------------
# check_theorem


def test_check_theorem_sl2(sl2):
    report = check_theorem(sl2, "THM_3_5")
    assert report.hypothesis_met
    assert report.consistent
    assert [v.holds for v in report.vector] == [True, True, True]


def test_check_theorem_lz2_all_false_still_consistent(lz2):
    report = check_theorem(lz2, "THM_3_5")
    assert report.consistent
    assert [v.holds for v in report.vector] == [False, False, False]
    assert report.vector[0].witness == (0, 0, 1)
    assert report.vector[1].witness == (0, 1)
    assert report.vector[2].witness == (0, 1)


def test_check_theorem_t1_big(t1):
    report = check_theorem(t1, "THM_BIG")
    assert report.consistent
    assert all(v.holds for v in report.vector)


def test_check_theorem_conjunction_item(sl2):
    report = check_theorem(sl2, "THM_3_3")
    assert [v.condition for v in report.vector] == ["T35.1", "T33.L&T33.R"]
    assert report.consistent


def test_check_theorem_unknown_id(t1):
    with pytest.raises(KeyError):
        check_theorem(t1, "THM_0")


def test_check_theorem_marks_hypothesis_unmet(n2):
    report = check_theorem(n2, "THM_3_5")
    assert not report.hypothesis_met


def test_lem_4_reports_implications(sl2, lz2):
    assert check_theorem(sl2, "LEM_4").consistent
    # antecedent false on lz2, so the implications hold trivially
    report = check_theorem(lz2, "LEM_4")
    assert report.consistent
    assert not report.vector[0].holds


# ---------------------------------------------------------------------------
# sweep


def test_sweep_order_2_labelled_clean(corpus_upto3_labelled):
    corpus = [s for s in corpus_upto3_labelled if s.order <= 2]
    report = sweep(corpus, ["THM_3_5"])
    assert report.structures == 21  # orders 1 and 2 together
    assert report.theorems[0].inconsistent == 0


def test_sweep_canonicalises_each_structure_once(monkeypatch, n2, sl2, lz2):
    calls = []
    canonical_key = kernel.canonical_key

    def counted(*args):
        calls.append(args)
        return canonical_key(*args)

    monkeypatch.setattr(kernel, "canonical_key", counted)
    report = sweep([n2, sl2, lz2])
    assert len(calls) == 3
    for entry in report.theorems:
        for record in entry.outside_disagreements + entry.inconsistencies:
            assert record.report.structure == record.canonical
            assert record.canonical == canonical_form(record.structure).hex()


def test_sweep_checks_no_partition(monkeypatch, corpus_upto3_iso):
    # B.2 reads sigma: no catalog condition scans a candidate congruence
    # or lists the Bell(n) partitions of the carrier.  The conditions read
    # one fact record per structure, and each is decided once per record,
    # however many groupings name it (T35.1 is in four).  Records built
    # inside osgkit.properties count too: B.2 tests sigma's classes on the
    # structure's own record, not on a record of each class.  The kernel
    # builds each record's rows once, and Green's relations and sigma come
    # from them: no row is rebuilt and no structure-keyed cache filled.
    corpus = [s for s in corpus_upto3_iso if s.order == 3]
    assert len(corpus) == 173
    built, masked = [], []
    runs = {cid: 0 for cid in CONDITIONS}

    def forbidden(*args):
        raise AssertionError("the sweep searched partitions")

    def counted(s):
        built.append(s)
        return facts(s)

    def counted_rows(*args, fact_rows=kernel.fact_rows):
        masked.append(args)
        return fact_rows(*args)

    def counted_condition(cid, fn):
        def run(f):
            runs[cid] += 1
            return fn(f)
        return run

    greens_relations.cache_clear()
    relations.least_complete_semilattice_congruence.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(relations, "is_congruence", forbidden)
        patched.setattr(oracles, "all_partitions", forbidden)
        patched.setattr(theorems, "facts", counted)
        patched.setattr(properties, "facts", counted)
        patched.setattr(kernel, "fact_rows", counted_rows)
        for cid, condition in CONDITIONS.items():
            patched.setitem(CONDITIONS, cid, replace(
                condition, fn=counted_condition(cid, condition.fn)))
        report = sweep(corpus)
    assert greens_relations.cache_info().currsize == 0
    assert relations.least_complete_semilattice_congruence.cache_info().currsize == 0
    assert report == sweep(corpus)
    assert len(built) == 173  # one record per class, none per grouping
    assert len(masked) == 173  # one set of fact rows per record
    assert runs == {cid: 173 for cid in CONDITIONS}


def test_c1_is_t35_1_decided_once(monkeypatch, corpus_upto3_iso):
    # C.1 is T35.1's function given by id, and a record calls each
    # distinct function once, so one shared wrapper runs once per class
    # while both ids keep their own verdicts
    corpus = [s for s in corpus_upto3_iso if s.order == 3]
    assert CONDITIONS["C.1"].given == ("T35.1",)
    calls = []

    def shared(f, fn=CONDITIONS["T35.1"].fn):
        calls.append(f)
        return fn(f)

    with monkeypatch.context() as patched:
        for cid in ("T35.1", "C.1"):
            patched.setitem(CONDITIONS, cid, replace(CONDITIONS[cid], fn=shared))
        report = sweep(corpus)
    assert len(calls) == 173
    assert report == sweep(corpus)
    for s in corpus[:20]:
        one, cor = evaluate_condition(s, "T35.1"), evaluate_condition(s, "C.1")
        assert (one.condition, cor.condition) == ("T35.1", "C.1")
        assert (one.holds, one.witness) == (cor.holds, cor.witness)


def test_b1_reuses_the_inverse_verdict(monkeypatch, corpus_upto3_iso):
    # B.1 is "inverse and completely regular", and its first half is
    # T35.1's function given by id, decided once per record with T35.1
    # and C.1
    corpus = [s for s in corpus_upto3_iso if s.order == 3]
    assert CONDITIONS["B.1"].given == ("T35.1",)
    calls = []

    def counted(f, inverse=properties.Facts.inverse):
        calls.append(f)
        return inverse(f)

    with monkeypatch.context() as patched:
        patched.setattr(properties.Facts, "inverse", counted)
        report = sweep(corpus)
    assert len(calls) == 173
    assert report == sweep(corpus)


def test_wrapping_every_condition_keeps_one_inverse_test(monkeypatch, corpus_upto3_iso):
    # a wrapper around each registered function, as a tracer installs
    # them: C.1 and B.1 name T35.1 by id, so they read its wrapper, and
    # the inverse test still runs once per class
    corpus = [s for s in corpus_upto3_iso if s.order == 3]
    calls = []

    def counted(f, inverse=properties.Facts.inverse):
        calls.append(f)
        return inverse(f)

    def wrapped(fn):
        return lambda f: fn(f)

    with monkeypatch.context() as patched:
        patched.setattr(properties.Facts, "inverse", counted)
        for cid, condition in CONDITIONS.items():
            patched.setitem(CONDITIONS, cid, replace(condition, fn=wrapped(condition.fn)))
        report = sweep(corpus)
    assert len(calls) == 173
    assert report == sweep(corpus)


def test_sweep_fixture_pair(sl2, lz2):
    report = sweep([sl2, lz2], ["THM_BIG"])
    entry = report.theorems[0]
    assert entry.checked == 2
    assert entry.hypothesis_met == 2
    assert entry.inconsistent == 0


def test_sweep_empty_corpus():
    report = sweep([], ["THM_3_5"])
    assert report.structures == 0
    assert report.theorems[0].checked == 0
    assert report.theorems[0].inconsistent == 0


def test_sweep_skips_invalid_members(px3, sl2):
    report = sweep([px3, sl2], ["THM_3_5"])
    assert report.structures == 1
    assert len(report.skipped) == 1
    assert "corpus[0]" in report.skipped[0]


def test_sweep_validates_each_class_once(monkeypatch, corpus_upto3_labelled):
    # validity does not change under relabelling, so each class is
    # validated on its first copy only
    corpus = [s for s in corpus_upto3_labelled if s.order == 3]
    calls = []

    def counted(s, is_valid=theorems.is_valid):
        calls.append(s)
        return is_valid(s)

    monkeypatch.setattr(theorems, "is_valid", counted)
    report = sweep(corpus)
    assert report.structures == len(corpus) == 971
    assert len(calls) == 173


def test_sweep_skip_notes_match_validating_every_member(px3, c2, sl2, lz2):
    # invalid members, several isomorphic copies of some, valid copies and
    # an invalid order-6 member, which has no canonical form, shuffled: the
    # notes and their corpus order are those of validating every member
    rng = random.Random(20)

    def copies(s, count):
        return [relabel(s, rng.sample(range(s.order), s.order)) for _ in range(count)]

    invalid_6 = from_table([[(a - b) % 6 for b in range(6)] for a in range(6)])
    corpus = copies(px3, 4) + copies(c2, 3) + copies(sl2, 3) + copies(lz2, 2) + [invalid_6]
    rng.shuffle(corpus)
    valid = [s for s in corpus if validate(s).valid]
    reference = tuple(f"corpus[{i}] skipped: fails validation"
                      for i, s in enumerate(corpus) if not validate(s).valid)
    assert len(reference) == 8 and len(valid) == 5
    report = sweep(corpus)
    assert report.skipped == reference
    assert report.structures == 5
    assert report.theorems == sweep(valid).theorems
    # a valid member above the kernel's orders is swept under its own
    # encoding, like every other member
    chain_6 = from_table([[min(a, b) for b in range(6)] for a in range(6)],
                         [(a, b) for a in range(6) for b in range(a + 1, 6)])
    assert validate(chain_6).valid
    report = sweep(corpus + [chain_6])
    assert report.skipped == reference
    assert report.structures == 6
    assert report.theorems == sweep(valid + [chain_6]).theorems


def test_sweep_unknown_theorem(sl2):
    with pytest.raises(KeyError):
        sweep([sl2], ["THM_42"])


def test_sweep_outside_hypothesis_log(n2):
    # n2 fails T35.1 but satisfies T35.3 vacuously: logged, not counted
    report = sweep([n2], ["THM_3_5"])
    entry = report.theorems[0]
    assert entry.hypothesis_met == 0
    assert entry.inconsistent == 0
    assert len(entry.outside_disagreements) == 1


def test_sweep_merge_matches_single_run(corpus_upto3_labelled):
    corpus = [s for s in corpus_upto3_labelled if s.order <= 2]
    whole = sweep(corpus, ["THM_3_5", "LEM_2_1"])
    parts = [
        sweep([s for i, s in enumerate(corpus) if i % 3 == k], ["THM_3_5", "LEM_2_1"])
        for k in range(3)
    ]
    merged = SweepReport.merge(parts)
    assert merged.structures == whole.structures
    for a, b in zip(merged.theorems, whole.theorems):
        assert (a.theorem, a.checked, a.hypothesis_met, a.inconsistent) == (
            b.theorem, b.checked, b.hypothesis_met, b.inconsistent,
        )


def test_condition_ambients_match_catalog():
    regular_ambient = {
        "T35.1", "L4.1", "L4.2", "L4.3", "L4.4",
        "C.1", "C.2", "C.3", "C.4", "C.5",
        "B.1", "B.2", "B.3", "B.4", "B.5", "B.6",
    }
    for cid, condition in CONDITIONS.items():
        assert condition.ambient == ("regular" if cid in regular_ambient else None)


# ---------------------------------------------------------------------------
# regression: a deliberately broken catalog entry must surface


def test_sweep_flags_manufactured_disagreement(monkeypatch):
    import osgkit.theorems as theorems_module

    broken = dict(theorems_module.CONDITIONS)
    original = broken["T35.2"]
    broken["T35.2"] = type(original)(
        original.id, original.description, original.ambient, lambda s: (False, (0,))
    )
    monkeypatch.setattr(theorems_module, "CONDITIONS", broken)
    sl2 = from_table([[0, 1], [1, 1]], [(1, 0)])
    assert validate(sl2).valid
    report = sweep([sl2], ["THM_3_5"])
    assert report.theorems[0].inconsistent == 1
    record = report.theorems[0].inconsistencies[0]
    assert record.report.vector[1].holds is False


def test_repeated_grouping_ids_count_once(monkeypatch, corpus_upto3_iso):
    # a repeated id names one grouping: one entry, its inconsistencies
    # counted once in the total
    monkeypatch.setitem(CONDITIONS, "T35.2",
                        replace(CONDITIONS["T35.2"], fn=lambda f: (False, (0,))))
    corpus = [s for s in corpus_upto3_iso if s.order == 2]
    once = sweep(corpus, ["THM_3_5"])
    assert once.total_inconsistent == 5
    assert sweep(corpus, ["THM_3_5", "THM_3_5"]) == once
    assert sweep(corpus, ("THM_3_5", "COR", "THM_3_5", "COR")) \
        == sweep(corpus, ["THM_3_5", "COR"])


# ---------------------------------------------------------------------------
# frozen verdicts: every condition and property report, witnesses included

VERDICTS_UPTO3_LABELLED_SHA256 = (
    "6b51708a33b0ba229928ef8f46f335ab98a97778356695ea5f41d9b10bb99f6a"
)
VERDICTS_ORDER4_ISO_SHA256 = (
    "113ff9dc13ce76e569dd97ebf7bb7fa85d108f20df3ffeedb211c6e4594dba8b"
)


def _record_reports(f):
    """The property reports of the record f, in the order the public
    deciders give them: regularity of each kind, group-likeness of each
    kind, the inverse test, generator uniqueness on each side."""
    reports = [f.regularity(kind) for kind in REGULARITY_KINDS]
    reports += [f.group_like(kind) for kind in GROUP_LIKE_KINDS]
    reports.append(f.inverse())
    reports += [f.generator_uniqueness(side) for side in GENERATOR_SIDES]
    return reports


def _verdict_record(s) -> str:
    # every condition decided on one record, as evaluate_condition decides
    # each, with a shared function called once, and every property report
    # taken from the same record (the public deciders are its adapters)
    f, outcomes = facts(s), {}
    verdicts = [theorems._condition_verdict(f, cid, outcomes) for cid in condition_ids()]
    conditions = [(v.condition, v.holds, v.witness, v.hypothesis_met) for v in verdicts]
    reports = _record_reports(f)
    return repr((s.order, s.mult, s.leq, conditions, [asdict(r) for r in reports]))


def test_public_deciders_equal_their_record_methods(corpus_upto3_labelled):
    assert len(corpus_upto3_labelled) == 992
    for s in corpus_upto3_labelled:
        public = [regularity(s, kind) for kind in REGULARITY_KINDS]
        public += [is_group_like(s, kind) for kind in GROUP_LIKE_KINDS]
        public.append(is_inverse_ordered(s))
        public += [generator_uniqueness(s, side) for side in GENERATOR_SIDES]
        assert public == _record_reports(facts(s))


@pytest.fixture(scope="module")
def corpus_order4_iso():
    return list(enumerate_ordered_semigroups(EnumerationOptions(4, mode="up_to_iso")))


@pytest.mark.parametrize("corpus, count, expected", [
    ("corpus_upto3_labelled", 992, VERDICTS_UPTO3_LABELLED_SHA256),
    ("corpus_order4_iso", 4753, VERDICTS_ORDER4_ISO_SHA256),
], ids=["upto-3-labelled", "order-4-iso"])
def test_verdicts_are_frozen(request, corpus, count, expected):
    corpus = request.getfixturevalue(corpus)
    assert len(corpus) == count
    digest = hashlib.sha256()
    for s in corpus:
        digest.update(_verdict_record(s).encode() + b"\n")
    assert digest.hexdigest() == expected


# ---------------------------------------------------------------------------
# the kernel's inverse-pair witnesses against their literal readings


def _inverse_pair_comparison(corpus):
    """The (condition, structure) pairs where the catalog's verdict, holds
    and least witness, differs from the literal reference's, and how many
    structures fail each condition."""
    wrong, failing = [], Counter()
    for s in corpus:
        f = facts(s)
        for cid, reference in oracles.INVERSE_PAIR_REFERENCES.items():
            verdict = reference(s)
            failing[cid] += not verdict[0]
            if CONDITIONS[cid].fn(f) != verdict:
                wrong.append((cid, s))
    return wrong, failing


# L4.3 fails on no structure of order <= 4, L4.4 on none of order <= 3
@pytest.mark.parametrize("corpus, count, failing", [
    ("corpus_upto3_labelled", 992, {"L4.1": 199, "L4.2": 199, "TESF": 398}),
    pytest.param("corpus_order4_iso", 4753,
                 {"L4.1": 1136, "L4.2": 1136, "L4.4": 10, "TESF": 2232},
                 marks=pytest.mark.slow),
], ids=["upto-3-labelled", "order-4-iso"])
def test_inverse_pair_witnesses_match_literal_readings(request, corpus, count, failing):
    corpus = request.getfixturevalue(corpus)
    assert len(corpus) == count
    wrong, failed = _inverse_pair_comparison(corpus)
    assert wrong == []
    assert +failed == failing


# ---------------------------------------------------------------------------
# verdicts do not depend on the labelling, so sweeps share them by class


def _labelling_free_verdicts(s):
    conditions = tuple(
        (v.holds, v.hypothesis_met)
        for v in (evaluate_condition(s, cid) for cid in condition_ids())
    )
    groupings = tuple(
        (r.consistent, r.hypothesis_met)
        for r in (check_theorem(s, tid) for tid in theorem_ids())
    )
    return conditions, groupings


def test_verdicts_agree_within_each_class_upto_order_3(corpus_upto3_labelled):
    by_class = {}
    for s in corpus_upto3_labelled:
        by_class.setdefault(canonical_form(s), set()).add(_labelling_free_verdicts(s))
    assert len(by_class) == 1 + 11 + 173
    assert all(len(verdicts) == 1 for verdicts in by_class.values())


@functools.lru_cache(maxsize=None)
def _order_4_tables(poset: int) -> tuple[bytes, list[bytes]]:
    rel = enumerate_partial_orders(4)[poset]
    leq = bytes(rel[i][j] for i in range(4) for j in range(4))
    return leq, kernel.enumerate_valid_tables(4, leq)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 218), st.permutations(range(4)), st.data())
def test_verdicts_survive_random_relabelling_at_order_4(poset, perm, data):
    leq, tables = _order_4_tables(poset)
    table = tables[data.draw(st.integers(0, len(tables) - 1))]
    s = from_flat(4, table, leq)
    moved = relabel(s, perm)
    assert canonical_form(moved) == canonical_form(s)
    assert _labelling_free_verdicts(moved) == _labelling_free_verdicts(s)


@pytest.mark.parametrize("orders, count, classes", [
    ((1, 2, 3), 992, 185),
    pytest.param((4,), 107688, 4753, marks=pytest.mark.slow),
], ids=["upto-3-labelled", "order-4-labelled"])
def test_witness_free_verdicts_do_not_depend_on_labelling(orders, count, classes):
    # a function that holds with no witness on one copy holds with none
    # on every copy, so the sweep hands such verdicts from a class's first
    # copy to the others; B.2, whose witness is sigma's classes, is the
    # only function that holds with one
    fns = tuple(dict.fromkeys(fn for c in CONDITIONS.values() for fn in c.fns))
    structures, shapes, witnessed = 0, {}, set()
    for n in orders:
        for s in enumerate_ordered_semigroups(EnumerationOptions(n)):
            f = facts(s)
            outcomes = [fn(f) for fn in fns]
            shapes.setdefault(canonical_form(s), set()).add(
                tuple((holds, witness is None) for holds, witness in outcomes))
            witnessed.update(fn for fn, (holds, witness) in zip(fns, outcomes)
                             if holds and witness is not None)
            structures += 1
    assert (structures, len(shapes)) == (count, classes)
    assert all(len(vectors) == 1 for vectors in shapes.values())
    assert witnessed == {CONDITIONS["B.2"].fn}


def test_copies_call_only_what_carries_a_witness(monkeypatch, corpus_upto3_labelled):
    # a copy after its class's first takes every function verdict that
    # holds with no witness from the first copy, and calls only the others
    # on its own record
    corpus = [s for s in corpus_upto3_labelled if s.order == 3]
    assert len(corpus) == 971
    first = {}
    for s in corpus:
        first.setdefault(canonical_form(s), s)
    first_of = {id(s): first[canonical_form(s)] for s in corpus}
    built, calls = [], []

    def counted(s):
        built.append(s)
        return facts(s)

    def wrapped(cid, fn):
        def run(f):
            calls.append((cid, f.s, fn(f)))
            return calls[-1][2]
        return run

    with monkeypatch.context() as patched:
        patched.setattr(theorems, "facts", counted)
        patched.setattr(properties, "facts", counted)
        for cid, condition in CONDITIONS.items():
            patched.setitem(CONDITIONS, cid, replace(condition, fn=wrapped(cid, condition.fn)))
        report = sweep(corpus)
    assert report == sweep(corpus)
    assert len(built) == 397
    assert len(calls) == 4691  # 6891 when every copy called every function
    verdict = {(cid, id(s)): outcome for cid, s, outcome in calls if first_of[id(s)] is s}
    again = [(cid, first_of[id(s)]) for cid, s, _ in calls if first_of[id(s)] is not s]
    assert again
    assert all(verdict[cid, id(s)] != (True, None) for cid, s in again)


def _full_vector_disagrees(report, kind) -> bool:
    """The outside-hypothesis test, written out: every item of the vector
    counts, inside its hypothesis or not."""
    holds = [v.holds for v in report.vector]
    if kind == "equivalence":
        return len(set(holds)) > 1
    if kind == "implications":
        return holds[0] and not all(holds)
    assert kind == "all_hold"
    return not all(holds)


def _l4_1_up_to_equality(f):
    # L4.1 with H replaced by equality: a L b exactly when a'a = b'b;
    # related elements have equal L rows
    rows, mult = f.L, f.mult
    for a in range(f.n):
        for b in range(f.n):
            for ap in f.inv[a]:
                for bp in f.inv[b]:
                    if (rows[a] == rows[b]) != (mult[ap][a] == mult[bp][b]):
                        return False, (a, b, ap, bp)
    return True, None


# (condition id, mutant function, the grouping it must make inconsistent)
MUTANTS = {
    "catalog": None,
    "L4.1-up-to-equality": ("L4.1", _l4_1_up_to_equality, "LEM_4"),
    "T35.2-never": ("T35.2", lambda f: (False, (0,)), "THM_3_5"),
    # every inverse, completely regular copy is recorded, each with its own
    # sigma as B.2's witness, which no copy may take from its class's first
    "B.3-never": ("B.3", lambda f: (False, (0, 0)), "THM_BIG"),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_sweep_equals_checking_every_copy(monkeypatch, corpus_upto3_labelled, mutant):
    # the sweep decides each grouping once per verdict pattern and builds
    # reports only for printed records; every count and record must equal
    # what checking every copy's full report gives, with the catalog as it
    # stands and with mutants that make it inconsistent
    if MUTANTS[mutant]:
        cid, fn, broken = MUTANTS[mutant]
        monkeypatch.setitem(CONDITIONS, cid, replace(CONDITIONS[cid], fn=fn))
    report = sweep(corpus_upto3_labelled)
    keyed = sorted(
        ((canonical_form(s).hex(), s) for s in corpus_upto3_labelled),
        key=lambda pair: pair[0],
    )
    records = 0
    for entry in report.theorems:
        kind = THEOREMS[entry.theorem].kind
        met, inconsistencies, outside = 0, [], []
        for hexkey, s in keyed:
            checked = check_theorem(s, entry.theorem)
            if checked.hypothesis_met:
                met += 1
                if not checked.consistent:
                    inconsistencies.append((hexkey, s, checked))
            elif _full_vector_disagrees(checked, kind):
                outside.append((hexkey, s, checked))
        assert (entry.checked, entry.hypothesis_met, entry.inconsistent) == (
            len(keyed), met, len(inconsistencies),
        )
        assert [(r.canonical, r.structure, r.report) for r in entry.inconsistencies] \
            == inconsistencies
        assert [(r.canonical, r.structure, r.report) for r in entry.outside_disagreements] \
            == outside
        records += len(inconsistencies) + len(outside)
        if MUTANTS[mutant] and entry.theorem == broken:
            assert entry.inconsistent > 0
    assert report.structures == 992
    assert records > 0  # the per-copy path is exercised, not only the shared one
    assert (report.total_inconsistent > 0) == bool(MUTANTS[mutant])


def test_sweep_builds_reports_only_for_records(monkeypatch, corpus_upto3_labelled):
    # the classes are decided by verdict pattern; a report is built for a
    # printed record only, once (the first copy's reuses the verdicts
    # decided, and the other copies its verdicts that hold with no witness)
    built = []

    def counted(*args, report=theorems.TheoremReport, **kwargs):
        built.append(report(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(theorems, "TheoremReport", counted)
    report = sweep(corpus_upto3_labelled)
    records = [r.report for t in report.theorems
               for r in t.inconsistencies + t.outside_disagreements]
    assert len(built) == len(records) == 1096
    assert {id(r) for r in built} == {id(r) for r in records}


@pytest.mark.parametrize("corpus, structures, patterns", [
    ("corpus_upto3_labelled", 992, 7),
    ("corpus_order4_iso", 4753, 12),
], ids=["upto-3-labelled", "order-4-iso"])
def test_sweep_decides_each_grouping_once_per_pattern(
        monkeypatch, request, corpus, structures, patterns):
    # the classes fold into a histogram of verdict patterns; each grouping
    # is decided once per distinct pattern, and every copy is counted
    histograms, decisions = [], []

    class Kept(theorems.Counter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            histograms.append(self)

    def counted(f, theorem, decided, decision=theorems._decision):
        decisions.append(theorem.id)
        return decision(f, theorem, decided)

    monkeypatch.setattr(theorems, "Counter", Kept)
    monkeypatch.setattr(theorems, "_decision", counted)
    report = sweep(request.getfixturevalue(corpus))
    (histogram,) = histograms
    assert report.structures == structures == sum(histogram.values())
    assert len(histogram) == patterns
    assert len(decisions) == patterns * len(THEOREMS) == patterns * 7
    assert set(decisions) == set(THEOREMS)


def test_non_regular_classes_have_a_sigma_class_not_group_like(
        corpus_upto3_iso, corpus_order4_iso):
    # B.2 fails on a non-regular structure without building sigma: a
    # group-like class is regular, so some sigma-class is not group-like
    non_regular = 0
    for s in corpus_upto3_iso + corpus_order4_iso:
        f = facts(s)
        if f.not_regular is not None:
            non_regular += 1
            sigma = relations.least_complete_semilattice_congruence(s)
            assert any(f.not_group_like(c) is not None for c in sigma.classes)
            assert evaluate_condition(s, "B.2").holds is False
    assert non_regular == 2 + 64 + 2406  # at orders 2, 3 and 4


# ---------------------------------------------------------------------------
# "inverse" against "inverse and completely regular"


B2_FAILURES = {
    "B.1": (2,), "B.2": None, "B.3": (2, 3), "B.4": (1, 2), "B.5": (1, 4), "B.6": (1, 2),
}


def test_brandt_b2_separates_inverse_from_completely_regular(b2):
    assert validate(b2).valid
    verdicts = {cid: evaluate_condition(b2, cid) for cid in condition_ids()}
    assert all(v.hypothesis_met for v in verdicts.values())
    assert {cid: v.witness for cid, v in verdicts.items() if not v.holds} == B2_FAILURES
    for tid in theorem_ids():
        report = check_theorem(b2, tid)
        assert report.hypothesis_met and report.consistent, tid


def test_inverse_and_b1_agree_up_to_order_4():
    for n, classes in zip((1, 2, 3, 4), (1, 11, 173, 4753)):
        corpus = list(enumerate_ordered_semigroups(EnumerationOptions(n, mode="up_to_iso")))
        assert len(corpus) == classes
        inverse, b1 = [], []
        for s in corpus:  # both decided on one record, as the sweep decides them
            f, outcomes = facts(s), {}
            inverse.append(theorems._condition_verdict(f, "T35.1", outcomes).holds)
            b1.append(theorems._condition_verdict(f, "B.1", outcomes).holds)
        assert b1 == inverse
    assert sum(inverse) == 1095  # of the order-4 classes


# ---------------------------------------------------------------------------
# past order 5: the Brandt family and products of small classes


def _brandt(n, zero_below):
    """B(1, n): a zero 0 and the matrix units e_ij (0 <= i, j < n) as
    1 + i*n + j, where e_ij e_kl = e_il when j == k and 0 otherwise;
    discrete order, or 0 below every element."""
    def mul(a, b):
        if not a or not b:
            return 0
        (i, j), (k, l) = divmod(a - 1, n), divmod(b - 1, n)
        return 1 + i * n + l if j == k else 0

    order = n * n + 1
    return from_table([[mul(a, b) for b in range(order)] for a in range(order)],
                      [(0, x) for x in range(1, order)] if zero_below else ())


BRANDT = [(n, zero_below) for n in (2, 3, 4, 5) for zero_below in (False, True)]


@pytest.mark.parametrize("n, zero_below", BRANDT)
def test_brandt_family_is_inverse_not_completely_regular(b2, n, zero_below):
    # the standard inverse semigroups that are not completely regular, of
    # orders 5, 10, 17 and 26: THM_BIG's B.1 to B.6 all fail, and nothing else
    s = _brandt(n, zero_below)
    assert s.order == n * n + 1
    assert validate(s).valid
    if (n, zero_below) == (2, False):
        assert s == b2
    report = sweep([s])
    assert report.structures == 1 and report.total_inconsistent == 0
    assert {t.theorem: t.hypothesis_met for t in report.theorems}["THM_BIG"] == 1
    failing = {cid for cid in condition_ids() if not evaluate_condition(s, cid).holds}
    assert failing == {"B.1", "B.2", "B.3", "B.4", "B.5", "B.6"}


def test_b1_without_its_cr_conjunct_is_killed_by_brandt(monkeypatch, corpus_upto3_labelled):
    # B.1 read as "inverse" alone: the 992 labelled structures of orders
    # 1..3 do not tell the two apart, and every B(1, n) does
    monkeypatch.setitem(CONDITIONS, "B.1",
                        replace(CONDITIONS["B.1"], fn=lambda f: (True, None)))
    assert sweep(corpus_upto3_labelled).total_inconsistent == 0
    for n, zero_below in BRANDT:
        report = sweep([_brandt(n, zero_below)])
        assert {t.theorem: t.inconsistent for t in report.theorems
                if t.inconsistent} == {"THM_BIG": 1}


def _product(s, t):
    """s x t with the componentwise product and order; (a, b) is a*|t| + b."""
    pairs = [divmod(x, t.order) for x in range(s.order * t.order)]
    mult = [[s.mult[a][c] * t.order + t.mult[b][d] for c, d in pairs] for a, b in pairs]
    below = [(x, y) for x, (a, b) in enumerate(pairs) for y, (c, d) in enumerate(pairs)
             if x != y and s.leq[a][c] and t.leq[b][d]]
    return from_table(mult, below)


def test_order_6_products_sweep_consistently(corpus_upto3_iso):
    # every product of an order-2 and an order-3 class is a valid order-6
    # structure, regular and inverse exactly when both factors are
    twos = [s for s in corpus_upto3_iso if s.order == 2]
    threes = [s for s in corpus_upto3_iso if s.order == 3]
    assert (len(twos), len(threes)) == (11, 173)

    def laws(s):
        f = facts(s)
        return f.not_regular is None, f.inverse().holds

    factor_laws = {s: laws(s) for s in twos + threes}
    products, regular = [], 0
    for s in twos:
        for t in threes:
            p = _product(s, t)
            assert validate(p).valid
            (sr, si), (tr, ti) = factor_laws[s], factor_laws[t]
            assert laws(p) == (sr and tr, si and ti)
            products.append(p)
            regular += sr and tr
    assert regular == 981
    report = sweep(products)
    assert report.structures == 1903 and report.total_inconsistent == 0
    assert {t.theorem: (t.hypothesis_met, len(t.outside_disagreements))
            for t in report.theorems} == {
        "THM_3_3": (981, 0), "THM_3_5": (981, 432), "THM_ESF": (981, 432),
        "COR": (981, 432), "THM_BIG": (981, 432), "LEM_4": (981, 0),
        "LEM_2_1": (1903, 0),
    }
