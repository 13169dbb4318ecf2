"""Pure-Python reference implementation of the four kernel entry points:
the table search, optionally up to the order's automorphisms, canonical
keys, the axiom witnesses that validation reports, and the fact rows that
the catalog conditions read.

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


def axiom_witnesses(mult: bytes, leq: bytes, n: int) -> tuple:
    """The least witness of each axiom of ``osgkit.structure.AXIOM_KINDS``,
    in that order, or None where it holds: (i, j, k) for associativity and
    transitivity, (i,) for reflexivity, (i, j) for antisymmetry, and
    (a, b, x) for left and right compatibility, where a <= b but the
    products of x with a and b are not ordered."""
    _check(n, leq, mult)
    return _axiom_witnesses(mult, leq, n)


def _axiom_witnesses(mult, leq, n: int) -> tuple:
    """:func:`axiom_witnesses` with no checks, on any flat row-major
    sequences of ints at any order: validation above MAX_ORDER."""
    rng = range(n)
    mult = [mult[a * n : a * n + n] for a in rng]
    leq = [leq[a * n : a * n + n] for a in rng]
    order_pairs = [(a, b) for a in rng for b in rng if leq[a][b]]
    scans = (
        ((i, j, k) for i, row in enumerate(mult)
         for j, ij in enumerate(row) for k in rng
         if mult[ij][k] != row[mult[j][k]]),
        ((i,) for i in rng if not leq[i][i]),
        ((i, j) for i, j in order_pairs if i != j and leq[j][i]),
        ((i, j, k) for i, j in order_pairs for k in rng
         if leq[j][k] and not leq[i][k]),
        ((a, b, x) for a, b in order_pairs for x in rng
         if not leq[mult[x][a]][mult[x][b]]),
        ((a, b, x) for a, b in order_pairs for x in rng
         if not leq[mult[a][x]][mult[b][x]]),
    )
    return tuple(next(scan, None) for scan in scans)


def _mask(elements) -> int:
    bits = 0
    for v in elements:
        bits |= 1 << v
    return bits


def _union(masks, bits: int) -> int:
    """The union of masks[v] over the members v of bits."""
    out = 0
    for v, mask in enumerate(masks):
        if bits >> v & 1:
            out |= mask
    return out


def _classes(keys) -> tuple[int, ...]:
    """For each element, the mask of the elements with an equal key."""
    members: dict = {}
    for b, key in enumerate(keys):
        members[key] = members.get(key, 0) | 1 << b
    return tuple([members[key] for key in keys])


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _first_stray(strays):
    """The first (e, v) over the (e, mask) pairs given, v the least member
    of the first nonempty mask, or None."""
    return next(((e, _lowest(bits)) for e, bits in strays if bits), None)


def fact_rows(mult: bytes, leq: bytes, n: int) -> tuple:
    """One table's fact record, each subset of the carrier an int mask
    with bit v for element v, as the 38-field tuple (up, down, row, col,
    pxq, inv, inv_mask, idem, idem_mask, not_regular,
    not_completely_regular, L, R, J, H, hc, filters, not_left_matched,
    not_right_matched, not_conjugate, not_reproduced, not_sandwich_closed,
    not_left_generated, not_right_generated, inverses_not_h_related,
    idempotent_inverses_not_h_related, idempotents_not_commuting,
    idempotents_not_central, lr_idempotents_not_h_related,
    j_idempotents_not_h_related, pair_products_not_commuting,
    idempotent_pair_products_not_commuting,
    idempotent_inverses_not_commuting, sigma_not_group_like,
    idempotent_products_not_h_related, greens_not_coinciding,
    powers_not_witnessed, sigma_not_j); ``osgkit.properties.Facts`` names
    each field.  Products keep the bracketing of their definitions, so the
    record is defined for any table, associative or not, under any
    relation."""
    _check(n, leq, mult)
    return _fact_rows(mult, leq, n)


def _fact_rows(mult, leq, n: int) -> tuple:
    """:func:`fact_rows` with no checks, on any flat row-major sequences of
    ints at any order: the builder for structures above MAX_ORDER."""
    span = range(n)
    m = [mult[a * n : a * n + n] for a in span]
    up, down, row, col = [0] * n, [0] * n, [0] * n, [0] * n
    for a in span:
        for b in span:
            if leq[a * n + b]:
                up[a] |= 1 << b
                down[b] |= 1 << a
            row[a] |= 1 << m[a][b]
            col[b] |= 1 << m[a][b]
    pxq = []  # pxq[p][q] = {(p*x)*q : x}, read over the distinct products p*x
    for p in span:
        sets = [0] * n
        for z in set(m[p]):
            for q, zq in enumerate(m[z]):
                sets[q] |= 1 << zq
        pxq.append(tuple(sets))
    pxq = tuple(pxq)
    inv = tuple(
        tuple([b for b in span if leq[a * n + m[m[a][b]][a]] and leq[b * n + m[m[b][a]][b]]])
        for a in span
    )
    idem = tuple([e for e in span if leq[e * n + m[e][e]]])
    sq = [m[a][a] for a in span]

    # principal ideals (a + Sa], (a + aS] and (a + Sa + aS + SaS]; equal
    # ideals make Green's L, R and J, and H is L and R together
    left = [_union(down, 1 << a | col[a]) for a in span]
    right = [_union(down, 1 << a | row[a]) for a in span]
    two = [_union(down, 1 << a | col[a] | row[a] | _union(col, row[a])) for a in span]
    greens = [_classes(ideal) for ideal in (left, right, two)]
    h = tuple([lc & rc for lc, rc in zip(greens[0], greens[1])])
    hc = tuple(
        _mask([b for b in span if pxq[b][a] & up[m[a][b]] and pxq[a][b] & up[m[b][a]]])
        for a in span
    )
    idem_mask, inv_mask = _mask(idem), tuple(map(_mask, inv))
    filters = _least_filters(m, up)
    L, R, J = greens
    sigma = _classes(filters)
    # {c*b : c in b's sigma-class} and {a*c : c in a's sigma-class}
    cb = [_mask([m[c][b] for c in span if sigma[b] >> c & 1]) for b in span]
    ac = [_mask([m[a][c] for c in span if sigma[a] >> c & 1]) for a in span]
    return (
        tuple(up), tuple(down), tuple(row), tuple(col), pxq, inv, inv_mask,
        idem, idem_mask,
        next((a for a in span if not pxq[a][a] & up[a]), None),
        next((a for a in span if not pxq[sq[a]][sq[a]] & up[a]), None),
        *greens, h, hc, filters,
        # L4.1 compares the H rows of a'a and b'b, L4.2 those of aa' and bb'
        _unmatched(inv, greens[0], [[h[m[ap][a]] for ap in inv[a]] for a in span]),
        _unmatched(inv, greens[1], [[h[m[a][ap]] for ap in inv[a]] for a in span]),
        # {aexa'} is pxq[ae][a'] and {a'eya} is pxq[a'e][a], bracketed as scanned
        next(((a, ap, e) for a in span for ap in inv[a] for e in idem
              if not (pxq[m[a][e]][ap] & idem_mask and pxq[m[ap][e]][a] & idem_mask)), None),
        _not_reproduced(m, up, pxq, inv),
        # inverses of members of (eSg], the downward closure of pxq[e][g],
        # lie in (gSe]
        next(((e, g, x, y) for e in idem for g in idem
              for inside, back in [(_union(down, pxq[e][g]), _union(down, pxq[g][e]))]
              for x in span if inside >> x & 1 for y in inv[x] if not back >> y & 1), None),
        _not_generated(L, h, idem, idem_mask),
        _not_generated(R, h, idem, idem_mask),
        _inverses_apart(span, inv, inv_mask, h),
        _inverses_apart(idem, inv, inv_mask, h),
        _first_stray((e, idem_mask & ~hc[e]) for e in idem),
        _first_stray((e, (1 << n) - 1 & ~hc[e]) for e in idem),
        _first_stray((e, idem_mask & (L[e] | R[e]) & ~h[e]) for e in idem),
        _first_stray((e, idem_mask & J[e] & ~h[e]) for e in idem),
        # aa' and a'a are H-commutative, for a over the carrier, then idem
        next(((a, ap) for a in span for ap in inv[a] if not hc[m[a][ap]] >> m[ap][a] & 1), None),
        next(((a, ap) for a in idem for ap in inv[a] if not hc[m[a][ap]] >> m[ap][a] & 1), None),
        _inverses_apart(idem, inv, inv_mask, hc),
        # a and b share a sigma-class C, and a is outside (Cb] or b outside (aC]
        next(((a, b) for a in span for b in span
              if sigma[a] >> b & 1 and not (cb[b] & up[a] and ac[a] & up[b])), None),
        next(((a, b) for a in span for b in span
              for ab, ba in [(m[a][b], m[b][a])]
              if idem_mask >> ab & 1 and idem_mask >> ba & 1 and h[ab] != h[ba]), None),
        # the least b > a that one of L, R, J relates to a differently from H
        next(((a, a + 1 + _lowest(split)) for a in span
              for split in [((L[a] ^ h[a]) | (R[a] ^ h[a]) | (J[a] ^ h[a])) >> a + 1]
              if split), None),
        # one x with a <= (ax)a2 and a <= (a2x)a
        next(((a,) for a in span for aa in [m[a][a]]
              if not any(up[a] >> m[m[a][x]][aa] & 1 and up[a] >> m[m[aa][x]][a] & 1
                         for x in span)), None),
        next(((a, b) for a in span for b in range(a + 1, n)
              if (filters[a] == filters[b]) != (J[a] == J[b])), None),
    )


def _not_generated(same, h, idem, idem_mask):
    """T33.L's (same is L) or T33.R's (R) witness, or None: (x,) for the
    least x whose principal ideal of the side no ordered idempotent
    generates (equal ideals, equal rows of same), else the least (e, f) of
    ordered idempotents generating equal ideals and not H-related."""
    missing = (1 << len(same)) - 1 & ~_union(same, idem_mask)
    if missing:
        return (_lowest(missing),)
    return _first_stray((e, idem_mask & same[e] & ~h[e]) for e in idem)


def _inverses_apart(elements, inv, inv_mask, rows):
    """The least (a, b, c) over a in elements and inverses b and c of a
    with c outside rows[b], or None.  When rows are the H classes, only
    a's least inverse b can have one."""
    return next(((a, b, _lowest(stray)) for a in elements for b in inv[a]
                 for stray in [inv_mask[a] & ~rows[b]] if stray), None)


def _unmatched(inv, side, rows):
    """L4.1's or L4.2's least failing (a, b, a', b'), or None: "side[a] ==
    side[b]" disagrees with "rows[a][i] == rows[b][j]", where a' is the
    i-th inverse of a and b' the j-th of b."""
    span = range(len(side))
    pairs = [list(zip(inv[a], rows[a])) for a in span]
    for a in span:
        for b in span:
            lhs = side[a] == side[b]
            for ap, x in pairs[a]:
                for bp, y in pairs[b]:
                    if lhs != (x == y):
                        return a, b, ap, bp
    return None


def _not_reproduced(m, up, pxq, inv):
    """L4.4's least failing (a, b, a', b'), or None.  By associativity
    abb'xa'ab is (abb')x(a'ab), and b'a'aybb'a' is (b'a'a)y(bb'a'), so each
    scan over x or y is one mask of pxq."""
    span = range(len(m))
    for a in span:
        for b in span:
            ab = m[a][b]
            for ap in inv[a]:
                apab = m[m[ap][a]][b]
                for bp in inv[b]:
                    bpap = m[bp][ap]
                    if not (pxq[m[ab][bp]][apab] & up[ab]
                            and pxq[m[bpap][a]][m[m[b][bp]][ap]] & up[bpap]):
                        return a, b, ap, bp
    return None


def _least_filters(m, up) -> tuple[int, ...]:
    """The least filter containing each element, the classes of sigma
    by equality (N. Kehayopulu, "Remark on ordered semigroups", Math.
    Japonica 35, 1990: x N y when the least filters containing x and y
    are equal, and N is the least complete semilattice congruence).

    A filter is a subsemigroup F such that a*b in F puts a and b in F,
    and a in F, a <= b puts b in F.  The least filter containing x grows
    from {x}: each element v that joins brings in the elements above it,
    up[v], its factors, factors[v] (every a and b with a*b = v), and its
    products with the members so far, until nothing new joins.
    """
    n = len(m)
    factors = [0] * n
    for a, r in enumerate(m):
        for b, ab in enumerate(r):
            factors[ab] |= 1 << a | 1 << b
    filters = []
    for x in range(n):
        f, members, todo = 0, [], 1 << x
        while todo:  # todo holds the elements that join and are not yet in f
            v = (todo & -todo).bit_length() - 1
            todo ^= 1 << v
            f |= 1 << v
            members.append(v)
            grown = up[v] | factors[v]
            for w in members:
                grown |= 1 << m[v][w] | 1 << m[w][v]
            todo |= grown & ~f
        filters.append(f)
    return tuple(filters)
