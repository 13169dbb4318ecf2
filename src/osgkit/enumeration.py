"""Exhaustive generation of semigroups, partial orders, and ordered
semigroups of a given order, labelled or up to isomorphism.

The table search runs order-first: fix a partial order, then backtrack
the multiplication table cell by cell with incremental associativity and
compatibility pruning (the kernel's job).  Every ordered semigroup is
isomorphic to one whose order is the first labelled poset of its
isomorphism class, so the search runs over those class representatives
only (16 posets instead of 219 at order 4, 63 instead of 4231 at order 5).
Over each representative it keeps only the least table of each orbit
under the poset's automorphisms, which is one table per class; each is
reduced once to its full canonical form, affordable for n <= 5.  Labelled
mode lays out each class's distinct relabellings in turn, so both modes,
and semigroups (the discrete order), run that one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

from osgkit import kernel
from osgkit.properties import PROPERTY_PREDICATES, facts
from osgkit.structure import (
    OrderedSemigroup,
    StructureParseError,
    content_lines,
    default_names,
    format_structure,
    from_flat,
    parse_structure,
)
from osgkit.theorems import CONDITIONS, _condition_verdict

MODES = ("labelled", "up_to_iso")

# Associative tables on n labelled points (OEIS A023814); the tests check
# every entry against the kernel's table search.
ASSOC_TABLE_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}

# Partial orders on n labelled points (OEIS A001035); the tests check every
# entry against enumerate_partial_orders.
POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


@dataclass(frozen=True)
class EnumerationOptions:
    order: int
    mode: str = "labelled"
    filters: tuple[str, ...] = ()
    shard: tuple[int, int] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.order <= kernel.MAX_ORDER:
            raise ValueError(f"order must be within 1..{kernel.MAX_ORDER}")
        check_shard(self.shard)


def check_shard(shard: tuple[int, int] | None) -> None:
    """Reject a shard ``(index, count)`` that is not one of ``count`` parts."""
    if shard is not None:
        index, count = shard
        if count < 1 or not 0 <= index < count:
            raise ValueError(f"shard index must be within 0..count-1, got {shard}")


def shard_stream(items, shard):
    if shard is None:
        yield from items
        return
    index, count = shard
    for i, item in enumerate(items):
        if i % count == index:
            yield item


def _resolve_filters(filters):
    """The test of a fact record that every filter passes, each filter a
    property's predicate or a catalog condition's verdict.  The conditions
    share one map of function outcomes per record, as in the sweep, so a
    function that several filters name is called once."""
    for fid in filters:
        if fid not in PROPERTY_PREDICATES and fid not in CONDITIONS:
            raise KeyError(
                f"unknown filter {fid!r}: not a property or catalog condition"
            )

    def passes(f) -> bool:
        outcomes: dict = {}
        return all(PROPERTY_PREDICATES[fid](f) if fid in PROPERTY_PREDICATES
                   else _condition_verdict(f, fid, outcomes).holds for fid in filters)

    return passes


def enumerate_partial_orders(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """All partial orders on n labelled points, sorted by matrix encoding.

    Each unordered pair is incomparable, upward, or downward (3 states);
    candidates are filtered by a transitivity scan.
    """
    if not 1 <= n <= kernel.MAX_ORDER:
        raise ValueError(f"order must be within 1..{kernel.MAX_ORDER}")
    pairs = list(combinations(range(n), 2))
    out = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), state in zip(pairs, states):
            if state == 1:
                rel[i][j] = True
            elif state == 2:
                rel[j][i] = True
        if all(rel[a][c] for a in range(n) for b in range(n) if rel[a][b]
               for c in range(n) if rel[b][c]):
            out.append(tuple(tuple(row) for row in rel))
    out.sort()
    return out


def _leq_flat(rel, n: int) -> bytes:
    return bytes(1 if rel[i][j] else 0 for i in range(n) for j in range(n))


def poset_representatives(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """The first labelled poset of each isomorphism class, in the order of
    ``enumerate_partial_orders``.

    The left-zero table ``x*y = x`` is fixed by every relabelling, so its
    canonical key together with a poset is a canonical form of the poset.
    """
    left_zero = bytes(i for i in range(n) for _ in range(n))
    seen = set()
    reps = []
    for rel in enumerate_partial_orders(n):
        key = kernel.canonical_key(left_zero, _leq_flat(rel, n), n)
        if key not in seen:
            seen.add(key)
            reps.append(rel)
    return reps


def _class_keys(n: int, posets) -> list[bytes]:
    """The canonical key of each class of ordered semigroups over the given
    pairwise non-isomorphic posets, sorted.

    Two tables over one poset are isomorphic exactly when an automorphism
    of the poset maps one to the other, so the least table of each orbit
    stands for one class, and no two of them share a canonical key.
    """
    keys = []
    for rel in posets:
        leq = _leq_flat(rel, n)
        for table in kernel.enumerate_valid_tables(n, leq, orbit_minimal=True):
            keys.append(kernel.canonical_key(table, leq, n))
    keys.sort()
    return keys


def _copies(keys: list[bytes], n: int) -> Iterator[tuple[bytes, bytes]]:
    """The labelled structures of each class, class by class in key order:
    the distinct relabellings of its canonical (mult, leq), sorted."""
    size = n * n
    relabellings = []
    for p in permutations(range(n)):
        # the copy under p holds p[T(a, b)] in cell (p[a], p[b])
        inv = sorted(range(n), key=p.__getitem__)
        cells = [inv[k // n] * n + inv[k % n] for k in range(size)]
        rename = bytes.maketrans(bytes(range(n)), bytes(p))
        relabellings.append((rename, itemgetter(*cells, *(size + c for c in cells))))
    for key in keys:
        mult, leq = key[1 : 1 + size], key[1 + size :]
        copies = {bytes(move(mult.translate(rename) + leq)) for rename, move in relabellings}
        for copy in sorted(copies):
            yield copy[:size], copy[size:]


def enumerate_semigroups(opts: EnumerationOptions) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All associative tables of the given order, labelled in lexicographic
    order or canonical representatives sorted by canonical form."""
    n = opts.order
    # every relabelling fixes the discrete order
    keys = _class_keys(n, [[[i == j for j in range(n)] for i in range(n)]])
    if opts.mode == "labelled":
        stream = sorted(mult for mult, _ in _copies(keys, n))
    else:
        stream = [key[1 : 1 + n * n] for key in keys]
    for flat in shard_stream(stream, opts.shard):
        yield tuple(tuple(flat[i * n : i * n + n]) for i in range(n))


def enumerate_ordered_semigroups(opts: EnumerationOptions) -> Iterator[OrderedSemigroup]:
    """All valid (table, order) pairs, labelled or up to isomorphism.

    Results come out sorted by canonical form (ties among labelled
    structures broken by the raw encoding), so runs are byte-identical
    and shard unions reproduce the unsharded stream.
    """
    n = opts.order
    passes = _resolve_filters(opts.filters)
    keys = _class_keys(n, poset_representatives(n))
    if opts.mode == "labelled":
        pairs = _copies(keys, n)
    else:
        pairs = ((key[1 : 1 + n * n], key[1 + n * n :]) for key in keys)
    shared: dict = {}  # equal rows and orders become one tuple object
    stream = (from_flat(n, mult, leq, shared) for mult, leq in pairs)
    if opts.filters:  # every filter reads the structure's one fact record
        stream = (s for s in stream if passes(facts(s)))
    yield from shard_stream(stream, opts.shard)


# ---------------------------------------------------------------------------
# corpus files

RECORD_SEPARATOR = "---"
COUNT_HEADER = "# count:"


def write_corpus(out: TextIO, structures: Iterable[OrderedSemigroup],
                 options: EnumerationOptions | None = None) -> int:
    """One record per structure in the file format, separated by ``---``;
    the header comment records the options and the count."""
    structures = list(structures)
    out.write("# osgkit corpus\n")
    if options is not None:
        shard = "none" if options.shard is None else "%d/%d" % options.shard
        out.write(
            f"# options: order={options.order} mode={options.mode} "
            f"filters={','.join(options.filters) or 'none'} shard={shard}\n"
        )
    out.write(f"{COUNT_HEADER} {len(structures)}\n")
    names: dict[int, tuple[str, ...]] = {}  # the default names of each order
    for i, s in enumerate(structures):
        if i:
            out.write(RECORD_SEPARATOR + "\n")
        if s.order not in names:
            names[s.order] = default_names(s.order)
        out.write(format_structure(s, names[s.order]))
    return len(structures)


def _header_count(text: str) -> int | None:
    """The record count declared in the leading comment lines, if any."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            return None
        if line.startswith(COUNT_HEADER):
            try:
                return int(line[len(COUNT_HEADER):])
            except ValueError:
                raise StructureParseError(f"malformed count header {line!r}", lineno) from None
    return None


def read_corpus(text: str) -> list[OrderedSemigroup]:
    """Parse a corpus file; a ``# count:`` header, when present, must match
    the number of records, so a truncated corpus is rejected."""
    records: list[list] = [[]]  # each record's content lines, as the file numbers them
    for line in content_lines(text):
        if line[1] == [RECORD_SEPARATOR]:
            records.append([])
        else:
            records[-1].append(line)
    structures = [parse_structure(lines) for lines in records if lines]
    expected = _header_count(text)
    if expected is not None and expected != len(structures):
        raise StructureParseError(
            f"corpus header declares {expected} records, found {len(structures)}"
        )
    return structures
