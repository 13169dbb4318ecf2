"""Pure-Python reference implementation of the hot enumeration kernels:
the table search, optionally up to the order's automorphisms, and
canonical keys.

Same contract as the compiled module ``osgkit._kernel`` (built from
``_kernelmodule.c``): tables travel as row-major bytes, orders stay within
1..MAX_ORDER, and bad arguments raise the same ``ValueError`` in both.
This version favours obvious correctness over speed; the benchmark in
benchmarks/bench_kernel.py compares the two.
"""

from __future__ import annotations

from itertools import permutations

BACKEND = "python"

MAX_ORDER = 5

_UNSET = 0xFF

_PERM_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _perms(n: int) -> list[tuple[int, ...]]:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = list(permutations(range(n)))
    return _PERM_CACHE[n]


def _check(n: int, leq: bytes, mult: bytes | None = None) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be within 1..{MAX_ORDER}")
    if mult is not None:
        if len(mult) != n * n:
            raise ValueError("mult must hold n*n bytes")
        if max(mult) >= n:
            raise ValueError("mult entries must be below n")
    if len(leq) != n * n:
        raise ValueError("leq must hold n*n bytes")


def _partial_ok(cells, n: int, leq, pos: int) -> bool:
    # cells[pos] was just assigned; everything before pos is known.
    v = cells[pos]
    i, j = divmod(pos, n)

    if leq is not None:
        # cell (i, j) as the product i*j with j varying over comparable columns
        for b in range(n):
            w = cells[i * n + b]
            if w == _UNSET:
                continue
            if leq[j * n + b] and not leq[v * n + w]:
                return False
            if leq[b * n + j] and not leq[w * n + v]:
                return False
        # cell (i, j) as the product i*j with i varying over comparable rows
        for b in range(n):
            w = cells[b * n + j]
            if w == _UNSET:
                continue
            if leq[i * n + b] and not leq[v * n + w]:
                return False
            if leq[b * n + i] and not leq[w * n + v]:
                return False

    # Only the triples (a, b, c) that read cell (i, j) can newly fail.
    # Every other triple whose cells are all set was checked when its
    # last cell was assigned.
    for c in range(n):  # (a, b) = (i, j): (ab)c = v*c against i(jc)
        jc = cells[j * n + c]
        if jc != _UNSET:
            left = cells[v * n + c]
            right = cells[i * n + jc]
            if left != _UNSET and right != _UNSET and left != right:
                return False
    for a in range(n):  # (b, c) = (i, j): (ai)j against a(ij) = a*v
        ai = cells[a * n + i]
        if ai != _UNSET:
            left = cells[ai * n + j]
            right = cells[a * n + v]
            if left != _UNSET and right != _UNSET and left != right:
                return False
    for x in range(n):
        for y in range(n):
            w = cells[x * n + y]
            if w == i:  # (a, b, c) = (x, y, j): (xy)j = v against x(yj)
                yj = cells[y * n + j]
                if yj != _UNSET:
                    right = cells[x * n + yj]
                    if right != _UNSET and right != v:
                        return False
            if w == j:  # (a, b, c) = (i, x, y): (ix)y against i(xy) = v
                ix = cells[i * n + x]
                if ix != _UNSET:
                    left = cells[ix * n + y]
                    if left != _UNSET and left != v:
                        return False
    return True


def _automorphisms(n: int, leq: bytes) -> list[tuple[list[int], tuple[int, ...]]]:
    """The relabellings p other than the identity that fix leq.  Each is
    given as (src, p): the image table, whose cell (p[a], p[b]) holds
    p[T(a, b)], reads cell src[k] of T for its cell k and relabels by p."""
    auts = []
    for p in _perms(n)[1:]:  # the first is the identity
        if all(leq[p[k // n] * n + p[k % n]] == leq[k] for k in range(n * n)):
            inv = sorted(range(n), key=p.__getitem__)
            auts.append(([inv[k // n] * n + inv[k % n] for k in range(n * n)], p))
    return auts


def _least_in_orbit(cells, auts, pos: int) -> bool:
    # cells[0..pos] are known.  False when some automorphism maps them
    # lower: its image and the table agree up to a cell where both are
    # known, and there the image is smaller.  Every completion then has a
    # smaller image; on a full table this is the whole orbit-minimality test.
    for src, perm in auts:
        for k in range(pos + 1):
            s = src[k]
            if s > pos:
                break
            image = perm[cells[s]]
            if image != cells[k]:
                if image < cells[k]:
                    return False
                break
    return True


def _backtrack(n: int, leq: bytes | None, auts) -> list[bytes]:
    total = n * n
    cells = bytearray([_UNSET]) * total
    out: list[bytes] = []

    def fill(pos: int):
        if pos == total:
            out.append(bytes(cells))
            return
        for v in range(n):
            cells[pos] = v
            if _partial_ok(cells, n, leq, pos) and _least_in_orbit(cells, auts, pos):
                fill(pos + 1)
        cells[pos] = _UNSET

    fill(0)
    return out


def enumerate_valid_tables(n: int, leq: bytes, *, orbit_minimal: bool = False) -> list[bytes]:
    """All tables that are associative and compatible with the given order;
    with orbit_minimal, only the least table of each orbit under the
    order's automorphisms."""
    _check(n, leq)
    auts = _automorphisms(n, leq) if orbit_minimal else []
    # every table is compatible with the discrete order: skip that pass
    discrete = all(bool(x) == (k % (n + 1) == 0) for k, x in enumerate(leq))
    return _backtrack(n, None if discrete else leq, auts)


def canonical_key(mult: bytes, leq: bytes, n: int) -> bytes:
    """Minimum over relabelings of order byte + mult table + leq matrix."""
    _check(n, leq, mult)
    best = None
    size = n * n
    cand = bytearray(2 * size)
    for perm in _perms(n):
        for i in range(n):
            pi = perm[i] * n
            row = i * n
            for j in range(n):
                cand[pi + perm[j]] = perm[mult[row + j]]
                cand[size + pi + perm[j]] = leq[row + j]
        enc = bytes(cand)
        if best is None or enc < best:
            best = enc
    return bytes([n]) + best
