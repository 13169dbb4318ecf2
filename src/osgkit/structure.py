"""Finite ordered semigroups: core value, file format, axiom checks, isomorphism.

A structure of order n is a multiplication table over carrier indices
0..n-1 plus an n x n boolean matrix for the partial order.  Element names
live only in files and rendered reports; every in-memory operation works
on indices.

Structure file format (UTF-8 text, ``#`` starts a comment)::

    order <n>
    elements <name_0> ... <name_{n-1}>   # optional; defaults e0..e{n-1}
    mult <row of n names or indices>     # n rows; row i, column j holds i*j
    leq <x> <y>                          # x <= y; reflexive pairs implied

Entries in ``mult`` and ``leq`` lines are resolved as element names first,
then as integer carrier indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from osgkit import kernel

__all__ = [
    "OrderedSemigroup",
    "AxiomFailure",
    "ValidationReport",
    "StructureParseError",
    "from_table",
    "content_lines",
    "parse_structure",
    "parse_named_structure",
    "format_structure",
    "default_names",
    "validate",
    "is_valid",
    "canonical_form",
    "structure_key",
    "decode_canonical",
    "is_isomorphic",
    "opposite",
    "relabel",
]

AXIOM_KINDS = (
    "associativity",
    "reflexivity",
    "antisymmetry",
    "transitivity",
    "left_compatibility",
    "right_compatibility",
)


@dataclass(frozen=True)
class OrderedSemigroup:
    """Multiplication table plus partial order over carrier indices 0..order-1.

    Construction checks shape and index range only; use :func:`validate`
    for the semigroup and order axioms.  Instances are immutable and
    hashable, safe for unrestricted concurrent use.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n, mult, leq = self.order, self.mult, self.leq
        if n < 1:
            raise ValueError("order must be positive")
        if len(mult) != n or {*map(len, mult)} != {n}:
            raise ValueError("mult must be an order x order table")
        if not {*chain(*mult)}.issubset(range(n)):
            raise ValueError("mult entry out of carrier range")
        if len(leq) != n or {*map(len, leq)} != {n}:
            raise ValueError("leq must be an order x order matrix")

    def flat(self) -> tuple[bytes, bytes]:
        """Row-major (mult, leq) byte tables, the kernel wire format."""
        mult = bytes(chain.from_iterable(self.mult))
        leq = bytes(map(bool, chain.from_iterable(self.leq)))
        return mult, leq


def from_table(mult, pairs=()) -> OrderedSemigroup:
    """Build a structure from multiplication rows and strict order pairs.

    ``pairs`` lists (x, y) meaning x <= y; reflexive pairs are added
    automatically.  Convenient for fixtures written in code.
    """
    rows = tuple(tuple(row) for row in mult)
    n = len(rows)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    return OrderedSemigroup(n, rows, tuple(tuple(row) for row in leq))


def from_flat(n: int, mult: bytes, leq: bytes, shared: dict | None = None) -> OrderedSemigroup:
    """Build a structure from row-major bytes.  Calls that pass one
    ``shared`` dict, all at one order, get each distinct row and each
    distinct order matrix as one tuple object."""
    shared = {} if shared is None else shared
    rows = []
    for i in range(0, n * n, n):
        row = mult[i : i + n]
        rows.append(shared.get(row) or shared.setdefault(row, tuple(row)))
    rel = shared.get(leq)
    if rel is None:
        rel = shared[leq] = tuple(
            tuple(map(bool, leq[i : i + n])) for i in range(0, n * n, n)
        )
    return OrderedSemigroup(n, tuple(rows), rel)


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


# ---------------------------------------------------------------------------
# file format


class StructureParseError(ValueError):
    """Malformed structure file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def content_lines(text: str):
    """(line number, tokens) for each line of text that holds more than a
    comment; line numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_named_structure(text) -> tuple[OrderedSemigroup, tuple[str, ...]]:
    """Parse a structure file, returning the value and its element names.
    text is the file's text, or a list of its :func:`content_lines`, as a
    corpus reader splits them, so errors name the line of the file.

    Only syntactic checks are performed (header shape, index range,
    duplicate order pairs); axioms are the business of :func:`validate`.
    """
    lines = list(content_lines(text)) if isinstance(text, str) else text
    if not lines:
        raise StructureParseError("empty structure file")

    lineno, tokens = lines[0]
    if len(tokens) != 2 or tokens[0] != "order":
        raise StructureParseError("expected header 'order <n>'", lineno)
    try:
        n = int(tokens[1])
    except ValueError:
        raise StructureParseError(f"order is not an integer: {tokens[1]!r}", lineno) from None
    if not 1 <= n <= 255:  # a structure's key holds its order in one byte
        raise StructureParseError("order must be within 1..255", lineno)

    pos = 1
    names = default_names(n)
    if pos < len(lines) and lines[pos][1][0] == "elements":
        lineno, tokens = lines[pos]
        if len(tokens) != n + 1:
            raise StructureParseError(f"expected {n} element names, got {len(tokens) - 1}", lineno)
        names = tuple(tokens[1:])
        if len(set(names)) != n:
            raise StructureParseError("duplicate element name", lineno)
        pos += 1

    index_of = {name: i for i, name in enumerate(names)}

    def resolve(token: str, lineno: int) -> int:
        if token in index_of:
            return index_of[token]
        try:
            value = int(token)
        except ValueError:
            raise StructureParseError(f"unknown element {token!r}", lineno) from None
        if not 0 <= value < n:
            raise StructureParseError(f"index {value} out of range for order {n}", lineno)
        return value

    mult: list[tuple[int, ...]] = []
    while pos < len(lines) and lines[pos][1][0] == "mult":
        lineno, tokens = lines[pos]
        if len(mult) == n:
            raise StructureParseError("unexpected extra mult row", lineno)
        if len(tokens) != n + 1:
            raise StructureParseError(f"expected {n} entries in mult row, got {len(tokens) - 1}", lineno)
        mult.append(tuple(resolve(tok, lineno) for tok in tokens[1:]))
        pos += 1
    if len(mult) < n:
        last = lines[pos][0] if pos < len(lines) else lines[-1][0]
        raise StructureParseError(f"expected {n} mult rows, got {len(mult)}", last)

    leq = [[i == j for j in range(n)] for i in range(n)]
    seen_pairs: set[tuple[int, int]] = set()
    while pos < len(lines):
        lineno, tokens = lines[pos]
        if tokens[0] != "leq":
            raise StructureParseError(f"unexpected directive {tokens[0]!r}", lineno)
        if len(tokens) != 3:
            raise StructureParseError("expected 'leq <x> <y>'", lineno)
        x = resolve(tokens[1], lineno)
        y = resolve(tokens[2], lineno)
        if (x, y) in seen_pairs:
            raise StructureParseError(f"duplicate order pair {tokens[1]} <= {tokens[2]}", lineno)
        seen_pairs.add((x, y))
        leq[x][y] = True
        pos += 1

    structure = OrderedSemigroup(n, tuple(mult), tuple(tuple(row) for row in leq))
    return structure, names


def parse_structure(text) -> OrderedSemigroup:
    """The structure of :func:`parse_named_structure`, from a file's text
    or content lines."""
    return parse_named_structure(text)[0]


def format_structure(s: OrderedSemigroup, names: tuple[str, ...] | None = None) -> str:
    """Render a structure in the file format; inverse of parsing."""
    n = s.order
    names = default_names(n) if names is None else tuple(names)
    lines = [f"order {n}", "elements " + " ".join(names)]
    lines += ["mult " + " ".join([names[v] for v in row]) for row in s.mult]
    lines += [
        f"leq {names[i]} {names[j]}"
        for i, row in enumerate(s.leq)
        for j, below in enumerate(row)
        if below and i != j
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[AxiomFailure, ...]


def validate(s: OrderedSemigroup) -> ValidationReport:
    """Check associativity, the partial-order axioms, and compatibility.

    Reports the lexicographically least witness for each failed axiom:
    (i, j, k) for associativity and transitivity, (i,) for reflexivity,
    (i, j) for antisymmetry, and (a, b, x) for compatibility where a <= b
    but the products of x with a and b are not ordered.  Works at any order.
    """
    mult, leq = s.mult, s.leq
    rng = range(s.order)
    order_pairs = [(a, b) for a in rng for b in rng if leq[a][b]]
    scans = (
        ("associativity", ((i, j, k) for i, row in enumerate(mult)
                           for j, ij in enumerate(row) for k in rng
                           if mult[ij][k] != row[mult[j][k]])),
        ("reflexivity", ((i,) for i in rng if not leq[i][i])),
        ("antisymmetry", ((i, j) for i, j in order_pairs if i != j and leq[j][i])),
        ("transitivity", ((i, j, k) for i, j in order_pairs for k in rng
                          if leq[j][k] and not leq[i][k])),
        ("left_compatibility", ((a, b, x) for a, b in order_pairs for x in rng
                                if not leq[mult[x][a]][mult[x][b]])),
        ("right_compatibility", ((a, b, x) for a, b in order_pairs for x in rng
                                 if not leq[mult[a][x]][mult[b][x]])),
    )
    failures = tuple(
        AxiomFailure(axiom, witness) for axiom, scan in scans
        if (witness := next(scan, None)) is not None
    )
    return ValidationReport(not failures, failures)


def is_valid(s: OrderedSemigroup) -> bool:
    return validate(s).valid


# ---------------------------------------------------------------------------
# relabelings and isomorphism


def relabel(s: OrderedSemigroup, perm) -> OrderedSemigroup:
    """Apply a carrier bijection; perm[old_index] = new_index."""
    n = s.order
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a bijection of the carrier")
    mult = [[0] * n for _ in range(n)]
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mult[perm[i]][perm[j]] = perm[s.mult[i][j]]
            leq[perm[i]][perm[j]] = s.leq[i][j]
    return OrderedSemigroup(n, tuple(map(tuple, mult)), tuple(map(tuple, leq)))


def canonical_form(s: OrderedSemigroup) -> bytes:
    """Label-minimal byte encoding; equal encodings iff isomorphic.

    The encoding is one order byte, the relabelled mult table, then the
    relabelled leq matrix, minimised over all carrier bijections.
    """
    mult, leq = s.flat()
    return kernel.canonical_key(mult, leq, s.order)


def structure_key(s: OrderedSemigroup) -> bytes:
    """The key reports and sweeps file a structure under: its canonical
    form at the kernel's orders (1..``kernel.MAX_ORDER``); above them, its
    own encoding in the same layout, not minimised, so isomorphic copies
    get different keys there.  Orders above 255 have no key."""
    if s.order <= kernel.MAX_ORDER:
        return canonical_form(s)
    if s.order > 255:  # the order byte
        raise ValueError("order must be within 1..255")
    mult, leq = s.flat()
    return bytes([s.order]) + mult + leq


def decode_canonical(key: bytes) -> OrderedSemigroup:
    n = key[0]
    if len(key) != 1 + 2 * n * n:
        raise ValueError("malformed canonical encoding")
    return from_flat(n, key[1 : 1 + n * n], key[1 + n * n :])


def is_isomorphic(s: OrderedSemigroup, t: OrderedSemigroup) -> bool:
    return canonical_form(s) == canonical_form(t)


def opposite(s: OrderedSemigroup) -> OrderedSemigroup:
    """Mirror the multiplication (i*j becomes j*i); order unchanged."""
    n = s.order
    mult = tuple(tuple(s.mult[j][i] for j in range(n)) for i in range(n))
    return OrderedSemigroup(n, mult, s.leq)
