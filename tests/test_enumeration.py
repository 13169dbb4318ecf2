import hashlib
import io
from itertools import permutations
from math import factorial

import pytest

from osgkit import kernel, oracles
from osgkit.enumeration import (
    ASSOC_TABLE_COUNTS,
    POSET_COUNTS,
    EnumerationOptions,
    _leq_flat,
    enumerate_ordered_semigroups,
    enumerate_partial_orders,
    enumerate_semigroups,
    poset_representatives,
    read_corpus,
    write_corpus,
)
from osgkit.fixtures import load_fixture
from osgkit.properties import (
    PROPERTY_PREDICATES,
    Facts,
    REGULARITY_KINDS,
    is_group_like,
    is_inverse_ordered,
    regularity,
)
from osgkit.structure import StructureParseError, canonical_form, validate
from osgkit.theorems import condition_ids, evaluate_condition


# ---------------------------------------------------------------------------
# options


def test_options_validate_order_range():
    # the kernel's orders; the order-5 opt-in is the CLI's
    for order in (0, 6):
        with pytest.raises(ValueError, match=r"^order must be within 1\.\.5$"):
            EnumerationOptions(order)
    EnumerationOptions(5)


def test_options_validate_shard():
    with pytest.raises(ValueError):
        EnumerationOptions(2, shard=(2, 2))
    with pytest.raises(ValueError):
        EnumerationOptions(2, shard=(0, 0))
    EnumerationOptions(2, shard=(1, 2))


def test_options_validate_mode():
    with pytest.raises(ValueError):
        EnumerationOptions(2, mode="every")


# ---------------------------------------------------------------------------
# semigroup tables


def test_semigroup_counts_match_naive_oracle():
    for n in (1, 2, 3):
        enumerated = list(enumerate_semigroups(EnumerationOptions(n)))
        assert len(enumerated) == len(oracles.assoc_tables_naive(n))
        assert set(enumerated) == set(oracles.assoc_tables_naive(n))


def test_semigroup_iso_count_matches_bijection_oracle():
    iso = list(enumerate_semigroups(EnumerationOptions(2, mode="up_to_iso")))
    assert len(iso) == 5
    assert oracles.iso_class_count(oracles.assoc_tables_naive(2), 2) == 5


def test_semigroup_counts_small():
    assert len(list(enumerate_semigroups(EnumerationOptions(1)))) == 1
    assert len(list(enumerate_semigroups(EnumerationOptions(2)))) == 8
    assert len(list(enumerate_semigroups(EnumerationOptions(3)))) == 113
    assert len(list(enumerate_semigroups(EnumerationOptions(3, mode="up_to_iso")))) == 24


# ---------------------------------------------------------------------------
# literature counts: labelled semigroups OEIS A023814, semigroups up to
# isomorphism A027851, labelled posets A001035


def _semigroup_counts(n):
    labelled = sum(1 for _ in enumerate_semigroups(EnumerationOptions(n)))
    iso = sum(1 for _ in enumerate_semigroups(EnumerationOptions(n, mode="up_to_iso")))
    return labelled, iso


def test_order_4_semigroup_counts(backend):
    assert _semigroup_counts(4) == (3492, 188)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["c"], indirect=True)
def test_order_5_semigroup_counts(backend):
    assert _semigroup_counts(5) == (183732, 1915)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labelled_semigroups_are_the_plain_associative_search(backend, n):
    # the copies of the classes over the discrete order, against the
    # search that keeps every associative table
    tables = [bytes(sum(t, ())) for t in enumerate_semigroups(EnumerationOptions(n))]
    assert tables == kernel.enumerate_assoc_tables(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_assoc_table_counts_match_the_search(backend, n):
    # check-theorems reports candidates from these counts without a search
    assert len(kernel.enumerate_assoc_tables(n)) == ASSOC_TABLE_COUNTS[n]


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["c"], indirect=True)
def test_order_5_assoc_table_count_matches_the_search(backend):
    assert len(kernel.enumerate_assoc_tables(5)) == ASSOC_TABLE_COUNTS[5]


# ---------------------------------------------------------------------------
# partial orders


def test_poset_counts():
    assert len(enumerate_partial_orders(1)) == 1
    assert len(enumerate_partial_orders(2)) == 3
    assert len(enumerate_partial_orders(3)) == 19
    assert len(enumerate_partial_orders(4)) == 219
    assert len(enumerate_partial_orders(5)) == 4231
    # check-theorems reports candidates from this table without a walk
    assert POSET_COUNTS == {n: len(enumerate_partial_orders(n)) for n in range(1, 6)}


def test_poset_enumeration_matches_naive_filter():
    for n in (1, 2, 3):
        assert sorted(enumerate_partial_orders(n)) == sorted(oracles.posets_naive(n))


def _automorphisms(n, mult, leq):
    """How many permutations fix the row-major (mult, leq) tables."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    return sum(
        all(
            mult[p[i] * n + p[j]] == p[mult[i * n + j]]
            and leq[p[i] * n + p[j]] == leq[i * n + j]
            for i, j in cells
        )
        for p in permutations(range(n))
    )


def test_poset_classes_count_and_cover_every_labelled_poset():
    # unlabelled posets, OEIS A000112; by orbit-stabiliser, the orbits of
    # the class representatives add up to the labelled posets
    for n, count in zip((1, 2, 3, 4, 5), (1, 2, 5, 16, 63)):
        reps = poset_representatives(n)
        assert len(reps) == count
        left_zero = bytes(i for i in range(n) for _ in range(n))
        orbits = sum(
            factorial(n) // _automorphisms(n, left_zero, _leq_flat(rel, n))
            for rel in reps
        )
        assert orbits == len(enumerate_partial_orders(n))


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 11), (3, 173), (4, 4753)])
def test_orbit_minimal_tables_over_the_representatives_count_the_classes(backend, n, classes):
    # one table per isomorphism class of ordered semigroups
    found = sum(
        len(kernel.enumerate_valid_tables(n, _leq_flat(rel, n), orbit_minimal=True))
        for rel in poset_representatives(n)
    )
    assert found == classes


def test_poset_rejects_large_order():
    with pytest.raises(ValueError):
        enumerate_partial_orders(6)


# ---------------------------------------------------------------------------
# ordered semigroups


def test_ordered_count_order_1():
    assert len(list(enumerate_ordered_semigroups(EnumerationOptions(1)))) == 1


def test_ordered_labelled_matches_pair_oracle():
    enumerated = list(enumerate_ordered_semigroups(EnumerationOptions(2)))
    naive = oracles.ordered_structures_naive(2)
    assert len(enumerated) == len(naive) == 20
    assert {s.flat() for s in enumerated} == {s.flat() for s in naive}


def test_ordered_labelled_order_3_matches_pair_oracle():
    enumerated = list(enumerate_ordered_semigroups(EnumerationOptions(3)))
    naive = oracles.ordered_structures_naive(3)
    assert len(enumerated) == len(naive) == 971
    assert {s.flat() for s in enumerated} == {s.flat() for s in naive}


def _plain_labelled_stream(n):
    """The labelled stream from the plain search over every labelled poset,
    each table keyed, sorted by (canonical key, mult, leq)."""
    entries = []
    for rel in enumerate_partial_orders(n):
        leq = _leq_flat(rel, n)
        for table in kernel.enumerate_valid_tables(n, leq):
            entries.append((kernel.canonical_key(table, leq, n), table, leq))
    entries.sort()
    return [(table, leq) for _, table, leq in entries]


@pytest.mark.parametrize("backend,n", [
    ("python", 1), ("python", 2), ("python", 3),
    ("c", 1), ("c", 2), ("c", 3), ("c", 4),
], indirect=["backend"])
def test_labelled_stream_is_the_orbit_view_of_the_classes(backend, n):
    stream = [s.flat() for s in enumerate_ordered_semigroups(EnumerationOptions(n))]
    assert stream == _plain_labelled_stream(n)


def test_every_emitted_structure_is_valid(corpus_upto3_labelled):
    for s in corpus_upto3_labelled:
        assert validate(s).valid


def test_up_to_iso_no_duplicates_and_covers(corpus_upto3_labelled, corpus_upto3_iso):
    reps = [canonical_form(s) for s in corpus_upto3_iso]
    assert len(reps) == len(set(reps))
    rep_set = set(reps)
    for s in corpus_upto3_labelled:
        assert canonical_form(s) in rep_set


def test_up_to_iso_representatives_are_canonical(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        key = canonical_form(s)
        mult, leq = s.flat()
        assert key == bytes([s.order]) + mult + leq


def test_up_to_iso_corpora_cover_the_labelled_structures_and_are_frozen(backend):
    labelled = {1: 1, 2: 20, 3: 971, 4: 107688}
    frozen_sha256 = {
        3: "22df54137f703dc21d7e74363ef3dd0b658d6de86027888543d5878cf93c77ff",
        4: "a8683fe14894d03e1ecf61a3d5329e7dbbedd3a4db10c1b8acce34648c740d67",
    }
    for n, count in labelled.items():
        opts = EnumerationOptions(n, mode="up_to_iso")
        classes = list(enumerate_ordered_semigroups(opts))
        # orbit-stabiliser certificate: sum over classes of n!/|Aut(s)|
        assert sum(
            factorial(n) // _automorphisms(n, *s.flat()) for s in classes
        ) == count
        if n in frozen_sha256:
            sink = io.StringIO()
            write_corpus(sink, classes, opts)
            digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
            assert digest == frozen_sha256[n]


@pytest.mark.parametrize("n,sha256", [
    (1, "83af26a8405ad98f2d165a105aeb8a15240fa3d462710ef9f8c164223728eed0"),
    (2, "328cc788c2376f2c5d911ba38b9266390facdc38f90a066e7e2d426eb2e27aa7"),
    (3, "469fcddc6c70fa875b221658e1d750d56ebe672a427d3e73696acad7bd9345c2"),
    (4, "908b68f906360b654983b3968d367610d1698c3d53d3512b2160eb29cc9dd7e7"),
])
def test_labelled_corpora_are_frozen(backend, n, sha256):
    # the corpus that `enumerate --order n` prints
    opts = EnumerationOptions(n)
    sink = io.StringIO()
    write_corpus(sink, enumerate_ordered_semigroups(opts), opts)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == sha256


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["c"], indirect=True)
def test_order_5_up_to_iso_class_count(backend):
    opts = EnumerationOptions(5, mode="up_to_iso")
    sink = io.StringIO()
    assert write_corpus(sink, enumerate_ordered_semigroups(opts), opts) == 198838
    # the corpus that `enumerate --order 5 --up-to-iso --unlock-order-5 --out` writes
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == \
        "8c29b2b4c2b834b52c5921dcdd5618439e48e8cfd4f79dcd1d1e4ba7d88a1d79"


def test_inverse_filter_includes_sl2_not_lz2():
    filtered = {
        canonical_form(s)
        for s in enumerate_ordered_semigroups(
            EnumerationOptions(2, mode="up_to_iso", filters=("is_inverse_ordered",))
        )
    }
    assert canonical_form(load_fixture("sl2")) in filtered
    assert canonical_form(load_fixture("lz2")) not in filtered
    unfiltered = list(
        enumerate_ordered_semigroups(EnumerationOptions(2, mode="up_to_iso"))
    )
    assert filtered < {canonical_form(s) for s in unfiltered}


def test_unknown_filter():
    with pytest.raises(KeyError):
        list(enumerate_ordered_semigroups(EnumerationOptions(2, filters=("bogus",))))


def test_condition_ids_work_as_filters():
    via_condition = list(
        enumerate_ordered_semigroups(EnumerationOptions(2, filters=("T35.1",)))
    )
    via_property = list(
        enumerate_ordered_semigroups(EnumerationOptions(2, filters=("inverse",)))
    )
    assert [s.flat() for s in via_condition] == [s.flat() for s in via_property]


# the kind of each group-like property id
GROUP_LIKE_IDS = {"group_like": "two_sided", "t_simple": "two_sided",
                  "left_group_like": "left", "right_group_like": "right"}


def decider(fid):
    """The public decider of a filter id: structure to report."""
    if fid in REGULARITY_KINDS:
        return lambda s: regularity(s, fid)
    if fid in GROUP_LIKE_IDS:
        return lambda s: is_group_like(s, GROUP_LIKE_IDS[fid])
    if fid in ("inverse", "is_inverse_ordered"):
        return is_inverse_ordered
    return lambda s: evaluate_condition(s, fid)


@pytest.fixture(scope="module")
def labelled_order_3():
    return list(enumerate_ordered_semigroups(EnumerationOptions(3)))


def test_filter_ids_are_the_properties_and_conditions():
    assert len(PROPERTY_PREDICATES) == 10 and len(condition_ids()) == 23
    assert set(PROPERTY_PREDICATES) == set(REGULARITY_KINDS) | set(GROUP_LIKE_IDS) \
        | {"inverse", "is_inverse_ordered"}


@pytest.mark.parametrize("fid", sorted(PROPERTY_PREDICATES) + list(condition_ids()))
def test_each_filter_keeps_what_its_decider_holds(fid, labelled_order_3):
    filtered = enumerate_ordered_semigroups(EnumerationOptions(3, filters=(fid,)))
    decide = decider(fid)
    assert [s.flat() for s in filtered] == \
        [s.flat() for s in labelled_order_3 if decide(s).holds]


def test_filters_share_one_fact_record_per_structure(fact_rows_calls):
    # one record for each of the 971 labelled structures, whatever the
    # filters; none without filters
    opts = EnumerationOptions(3, filters=("T35.1", "B.2", "regular"))
    assert list(enumerate_ordered_semigroups(opts)) and len(fact_rows_calls) == 971
    fact_rows_calls.clear()
    assert len(list(enumerate_ordered_semigroups(EnumerationOptions(3)))) == 971
    assert fact_rows_calls == []


def test_filters_naming_one_function_call_it_once_per_record(monkeypatch):
    # C.1 is T35.1's function under another id: with both filters, each
    # record decides it once, as with T35.1 alone
    calls = []
    inverses_h_related = Facts.inverses_h_related

    def counted(f, elements):
        calls.append(f)
        return inverses_h_related(f, elements)

    monkeypatch.setattr(Facts, "inverses_h_related", counted)
    runs = []
    for filters in (("T35.1",), ("T35.1", "C.1")):
        calls.clear()
        kept = list(enumerate_ordered_semigroups(EnumerationOptions(3, filters=filters)))
        runs.append((len(kept), len(calls)))
    assert runs[0] == runs[1] == (309, 593)


# ---------------------------------------------------------------------------
# determinism and sharding


def test_runs_are_byte_identical():
    def render(opts):
        sink = io.StringIO()
        write_corpus(sink, enumerate_ordered_semigroups(opts), opts)
        return sink.getvalue()

    opts = EnumerationOptions(3, mode="up_to_iso")
    assert render(opts) == render(opts)


def test_shard_union_equals_unsharded():
    whole = [s.flat() for s in enumerate_ordered_semigroups(EnumerationOptions(3))]
    sharded = []
    for index in range(4):
        sharded.extend(
            s.flat()
            for s in enumerate_ordered_semigroups(
                EnumerationOptions(3, shard=(index, 4))
            )
        )
    assert sorted(sharded) == sorted(whole)
    assert len(sharded) == len(whole)


def test_shards_are_disjoint():
    shard_a = {
        s.flat()
        for s in enumerate_ordered_semigroups(EnumerationOptions(2, shard=(0, 2)))
    }
    shard_b = {
        s.flat()
        for s in enumerate_ordered_semigroups(EnumerationOptions(2, shard=(1, 2)))
    }
    assert not (shard_a & shard_b)


# ---------------------------------------------------------------------------
# corpus files


def test_corpus_round_trip(corpus_upto3_iso):
    opts = EnumerationOptions(2, mode="up_to_iso")
    structures = list(enumerate_ordered_semigroups(opts))
    sink = io.StringIO()
    count = write_corpus(sink, structures, opts)
    text = sink.getvalue()
    assert count == len(structures)
    assert f"# count: {count}" in text
    assert "order=2 mode=up_to_iso" in text
    recovered = read_corpus(text)
    assert [s.flat() for s in recovered] == [s.flat() for s in structures]


def test_corpus_read_skips_blank_records():
    text = "# osgkit corpus\norder 1\nmult e0\n---\n---\norder 1\nmult 0\n"
    assert len(read_corpus(text)) == 2


def test_corpus_count_header_must_match():
    text = "# osgkit corpus\n# count: 2\norder 1\nmult e0\n---\norder 1\nmult 0\n"
    assert len(read_corpus(text)) == 2
    truncated = text[: text.rindex("---")]
    with pytest.raises(StructureParseError, match="declares 2 records, found 1"):
        read_corpus(truncated)


def test_corpus_malformed_count_header():
    with pytest.raises(StructureParseError, match="malformed count header"):
        read_corpus("# count: many\norder 1\nmult 0\n")


def test_corpus_count_only_read_from_leading_comments():
    # a count comment after the first record is not a header
    assert len(read_corpus("order 1\nmult 0\n# count: 5\n")) == 1
