"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear; criteria carry their stated runtime budgets.
"""

import functools
import io
import multiprocessing
import time

import pytest

from osgkit import oracles
from osgkit.cli import main as cli_main
from osgkit.enumeration import (
    EnumerationOptions,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
)
from osgkit.fixtures import fixture_path, load_fixture
from osgkit.properties import (
    inverses_of,
    is_inverse_ordered,
    ordered_idempotents,
    regularity,
)
from osgkit.oracles import complete_semilattice_congruences
from osgkit.relations import greens_relations, least_complete_semilattice_congruence
from osgkit.structure import format_structure, opposite, relabel, validate
from osgkit.subsets import downward_closure, is_simple
from osgkit.theorems import SweepReport, sweep, theorem_ids

ALL_THEOREMS = theorem_ids()


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return run

    return wrap


def _fail_with_structures(records, theorem):
    chunks = [f"inconsistency under {theorem}:"]
    for record in records:
        chunks.append(record.canonical)
        chunks.append(format_structure(record.structure))
    pytest.fail("\n".join(chunks))


def _assert_clean(report):
    for entry in report.theorems:
        if entry.inconsistent:
            _fail_with_structures(entry.inconsistencies, entry.theorem)


# ---------------------------------------------------------------------------


@criterion(1, "px3 adjudication")
def test_criterion_1_px3_fixture_adjudication():
    start = time.perf_counter()

    px3 = load_fixture("px3")
    report = validate(px3)
    assert not report.valid
    failures = {f.axiom: f.witness for f in report.failures}
    assert failures["associativity"] == (1, 0, 0)  # names: (e, a, a)
    assert not validate(opposite(px3)).valid

    out = io.StringIO()
    assert cli_main(["validate", str(fixture_path("px3"))], out=out) == 1
    assert "(e, a, a)" in out.getvalue()
    out = io.StringIO()
    assert cli_main(["oracle", "px3"], out=out) == 0
    assert "least witness: (e, a, a)" in out.getvalue()

    assert time.perf_counter() - start < 1.0


@criterion(2, "enumeration oracle equality")
def test_criterion_2_enumeration_matches_naive_oracle():
    start = time.perf_counter()

    for n in (1, 2, 3):
        enumerated = set(enumerate_semigroups(EnumerationOptions(n)))
        naive = set(oracles.assoc_tables_naive(n))
        assert enumerated == naive
    assert len(list(enumerate_semigroups(EnumerationOptions(2)))) == 8
    assert len(list(enumerate_semigroups(EnumerationOptions(2, mode="up_to_iso")))) == 5
    assert oracles.iso_class_count(oracles.assoc_tables_naive(2), 2) == 5

    assert time.perf_counter() - start < 10.0


@criterion(3, "order <= 3 labelled sweep")
def test_criterion_3_exhaustive_sweep_order_3():
    start = time.perf_counter()

    corpus = []
    for n in (1, 2, 3):
        corpus.extend(enumerate_ordered_semigroups(EnumerationOptions(n)))
    report = sweep(corpus, ALL_THEOREMS)
    _assert_clean(report)
    for entry in report.theorems:
        assert entry.checked == len(corpus)

    assert time.perf_counter() - start < 60.0


def _sweep_shard(shard_index):
    corpus = enumerate_ordered_semigroups(
        EnumerationOptions(4, mode="up_to_iso", shard=(shard_index, 4))
    )
    return sweep(list(corpus), ALL_THEOREMS)


@criterion(4, "order 4 sweep, 4-way sharded")
def test_criterion_4_order_4_sweep_sharded():
    start = time.perf_counter()

    with multiprocessing.Pool(4) as pool:
        parts = pool.map(_sweep_shard, range(4))
    report = SweepReport.merge(parts)
    _assert_clean(report)
    assert report.structures == 4753
    for entry in report.theorems:
        assert entry.checked == 4753

    assert time.perf_counter() - start < 600.0


@criterion(5, "fixture verdicts")
def test_criterion_5_fixture_verdicts():
    sl2 = load_fixture("sl2")
    assert is_inverse_ordered(sl2).holds
    greens = greens_relations(sl2)
    for partition in greens:
        assert partition.classes == ((0,), (1,))
    assert least_complete_semilattice_congruence(sl2) == greens.J

    lz2 = load_fixture("lz2")
    report = is_inverse_ordered(lz2)
    assert not report.holds
    assert report.witness == (0, 0, 1)  # names: (a, a, b)
    assert is_simple(lz2, "left").ok
    assert not is_simple(lz2, "right").ok

    n2 = load_fixture("n2")
    report = regularity(n2, "regular")
    assert not report.holds
    assert report.witness == (1,)  # name: a


@criterion(6, "invariant suites")
def test_criterion_6_invariant_suites():
    corpus = []
    for n in (1, 2, 3):
        corpus.extend(
            enumerate_ordered_semigroups(EnumerationOptions(n, mode="up_to_iso"))
        )

    # closure laws
    for s in corpus:
        subsets = [
            frozenset(v for v in range(s.order) if bits >> v & 1)
            for bits in range(1 << s.order)
        ]
        for x in subsets:
            closed = downward_closure(s, x)
            assert x <= closed
            assert downward_closure(s, closed) == closed
        full = frozenset(range(s.order))
        for x in subsets:
            assert downward_closure(s, x) <= downward_closure(s, full)

    # H = L meet R, inverse symmetry, idempotent inverse products
    for s in corpus:
        greens = greens_relations(s)
        idem = ordered_idempotents(s)
        for a in range(s.order):
            for b in range(s.order):
                assert greens.H.related(a, b) == (
                    greens.L.related(a, b) and greens.R.related(a, b)
                )
            for b in inverses_of(s, a):
                assert a in inverses_of(s, b)
                assert s.mult[a][b] in idem
                assert s.mult[b][a] in idem

    # isomorphism invariance under 100 random relabelings per fixture
    import random

    rng = random.Random(2)
    for name in ("t1", "sl2", "lz2", "n2"):
        s = load_fixture(name)
        reference = (
            is_inverse_ordered(s).holds,
            regularity(s, "regular").holds,
            regularity(s, "completely_regular").holds,
            len(ordered_idempotents(s)),
        )
        for _ in range(100):
            perm = list(range(s.order))
            rng.shuffle(perm)
            moved = relabel(s, perm)
            assert (
                is_inverse_ordered(moved).holds,
                regularity(moved, "regular").holds,
                regularity(moved, "completely_regular").holds,
                len(ordered_idempotents(moved)),
            ) == reference

    # shard-union determinism
    whole = sorted(s.flat() for s in enumerate_ordered_semigroups(EnumerationOptions(3)))
    union = sorted(
        s.flat()
        for index in range(4)
        for s in enumerate_ordered_semigroups(EnumerationOptions(3, shard=(index, 4)))
    )
    assert union == whole


@criterion(7, "least congruence vs J on completely regular structures")
def test_criterion_7_least_congruence_lemma():
    corpus = []
    for n in (1, 2, 3):
        corpus.extend(enumerate_ordered_semigroups(EnumerationOptions(n)))
    checked = 0
    for s in corpus:
        if not regularity(s, "completely_regular").holds:
            continue
        checked += 1
        least = least_complete_semilattice_congruence(s)
        assert least == greens_relations(s).J
        for candidate in complete_semilattice_congruences(s):
            assert least.refines(candidate)
    assert checked > 0
