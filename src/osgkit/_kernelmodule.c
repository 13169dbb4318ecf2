/* Compiled kernels, module osgkit._kernel, with four entry points: the
 * table search, canonical keys, the axiom witnesses of one table, and the
 * fact rows of one structure.
 *
 * Same contract as the pure-Python reference osgkit._kernel_py: tables
 * travel as row-major bytes and orders are capped at MAX_ORDER = 5, so
 * fixed buffers of 25 cells, the at most 5! - 1 automorphisms of an
 * order, and one subset of the carrier per bit mask fit on the stack.
 * Every argument is checked before it is read.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MAX_ORDER 5
#define MAX_AUTS (120 - 1)  /* MAX_ORDER! relabellings, less the identity */
#define UNSET 0xFF

typedef const unsigned char *table_t;

/* ValueError unless 1 <= n <= MAX_ORDER; the messages match _kernel_py. */
static int
check_order(int n)
{
    if (n < 1 || n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError, "order must be within 1..%d", MAX_ORDER);
        return -1;
    }
    return 0;
}

static int
check_size(const char *name, Py_ssize_t len, int n)
{
    if (len != (Py_ssize_t)n * n) {
        PyErr_Format(PyExc_ValueError, "%s must hold n*n bytes", name);
        return -1;
    }
    return 0;
}

static int
check_mult(table_t mult, Py_ssize_t len, int n)
{
    if (check_size("mult", len, n) < 0)
        return -1;
    for (int i = 0; i < n * n; i++) {
        if (mult[i] >= n) {
            PyErr_SetString(PyExc_ValueError, "mult entries must be below n");
            return -1;
        }
    }
    return 0;
}

/* cells[pos] was just assigned; every cell before pos is known, every
 * cell after it UNSET.  True when no filled cells break compatibility
 * with leq (if given) or associativity. */
static int
partial_ok(const unsigned char *cells, int n, table_t leq, int pos)
{
    int v = cells[pos], i = pos / n, j = pos % n;

    if (leq != NULL) {
        for (int b = 0; b < n; b++) {
            /* cell (i, j) against (i, b), then against (b, j) */
            int w = cells[i * n + b];
            if (w != UNSET) {
                if (leq[j * n + b] && !leq[v * n + w])
                    return 0;
                if (leq[b * n + j] && !leq[w * n + v])
                    return 0;
            }
            w = cells[b * n + j];
            if (w != UNSET) {
                if (leq[i * n + b] && !leq[v * n + w])
                    return 0;
                if (leq[b * n + i] && !leq[w * n + v])
                    return 0;
            }
        }
    }
    /* Only the triples (a, b, c) that read cell (i, j) can newly fail;
     * every other triple whose cells are all set was checked when its
     * last cell was assigned. */
    for (int c = 0; c < n; c++) {
        /* (a, b) = (i, j): (ij)c = v*c against i(jc) */
        int jc = cells[j * n + c];
        if (jc != UNSET) {
            int left = cells[v * n + c], right = cells[i * n + jc];
            if (left != UNSET && right != UNSET && left != right)
                return 0;
        }
    }
    for (int a = 0; a < n; a++) {
        /* (b, c) = (i, j): (ai)j against a(ij) = a*v */
        int ai = cells[a * n + i];
        if (ai != UNSET) {
            int left = cells[ai * n + j], right = cells[a * n + v];
            if (left != UNSET && right != UNSET && left != right)
                return 0;
        }
    }
    for (int x = 0; x < n; x++)
        for (int y = 0; y < n; y++) {
            int w = cells[x * n + y];
            if (w == i) {
                /* (a, b, c) = (x, y, j): (xy)j = v against x(yj) */
                int yj = cells[y * n + j];
                if (yj != UNSET) {
                    int right = cells[x * n + yj];
                    if (right != UNSET && right != v)
                        return 0;
                }
            }
            if (w == j) {
                /* (a, b, c) = (i, x, y): (ix)y against i(xy) = v */
                int ix = cells[i * n + x];
                if (ix != UNSET) {
                    int left = cells[ix * n + y];
                    if (left != UNSET && left != v)
                        return 0;
                }
            }
        }
    return 1;
}

/* Step q to the next permutation in lexicographic order; 0 after the last. */
static int
next_permutation(int *q, int n)
{
    int i = n - 2, j = n - 1, t;

    while (i >= 0 && q[i] >= q[i + 1])
        i--;
    if (i < 0)
        return 0;
    while (q[j] <= q[i])
        j--;
    t = q[i], q[i] = q[j], q[j] = t;
    for (i++, j = n - 1; i < j; i++, j--)
        t = q[i], q[i] = q[j], q[j] = t;
    return 1;
}

/* A relabelling s of the carrier that fixes the order: the image table
 * (sT)(i, j) = s(T(s^-1 i, s^-1 j)) reads cell src[k] of T for its cell k
 * and relabels that value by map. */
typedef struct {
    unsigned char src[MAX_ORDER * MAX_ORDER];
    unsigned char map[MAX_ORDER];
} aut_t;

/* Fill auts with the automorphisms of leq other than the identity; returns
 * their count. */
static int
list_automorphisms(int n, table_t leq, aut_t *auts)
{
    int q[MAX_ORDER], inv[MAX_ORDER], count = 0;

    for (int a = 0; a < n; a++)
        q[a] = a;
    while (next_permutation(q, n)) {  /* the identity comes first: skipped */
        int fixed = 1;
        for (int k = 0; k < n * n && fixed; k++)
            fixed = leq[q[k / n] * n + q[k % n]] == leq[k];
        if (!fixed)
            continue;
        for (int a = 0; a < n; a++)
            inv[q[a]] = a;
        for (int k = 0; k < n * n; k++)
            auts[count].src[k] = (unsigned char)(inv[k / n] * n + inv[k % n]);
        for (int a = 0; a < n; a++)
            auts[count].map[a] = (unsigned char)q[a];
        count++;
    }
    return count;
}

/* cells[0..pos] are known.  False when some automorphism maps them lower:
 * its image and the table agree up to a cell where both are known, and
 * there the image is smaller.  Every completion then has a smaller image;
 * on a full table this is the whole orbit-minimality test. */
static int
least_in_orbit(const unsigned char *cells, const aut_t *auts, int count, int pos)
{
    for (int a = 0; a < count; a++) {
        const aut_t *s = &auts[a];
        for (int k = 0; k <= pos && s->src[k] <= pos; k++) {
            int image = s->map[cells[s->src[k]]];
            if (image != cells[k]) {
                if (image < cells[k])
                    return 0;
                break;
            }
        }
    }
    return 1;
}

/* Depth-first fill in row-major cell order, values ascending, so the
 * tables come out in lexicographic order.  Given count automorphisms, it
 * keeps only the least table of each orbit under them. */
static PyObject *
backtrack(int n, table_t leq, const aut_t *auts, int count)
{
    unsigned char cells[MAX_ORDER * MAX_ORDER];
    int total = n * n, depth = 0;
    PyObject *out = PyList_New(0);

    if (out == NULL)
        return NULL;
    memset(cells, UNSET, sizeof cells);
    while (depth >= 0) {
        if (depth == total) {
            PyObject *table = PyBytes_FromStringAndSize((char *)cells, total);
            if (table == NULL || PyList_Append(out, table) < 0) {
                Py_XDECREF(table);
                Py_DECREF(out);
                return NULL;
            }
            Py_DECREF(table);
            depth--;
            continue;
        }
        int v = cells[depth] == UNSET ? 0 : cells[depth] + 1;
        for (; v < n; v++) {
            cells[depth] = (unsigned char)v;
            if (partial_ok(cells, n, leq, depth)
                && least_in_orbit(cells, auts, count, depth))
                break;
        }
        if (v < n) {
            depth++;
        } else {
            cells[depth] = UNSET;
            depth--;
        }
    }
    return out;
}

static PyObject *
enumerate_valid_tables(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "leq", "orbit_minimal", NULL};
    aut_t auts[MAX_AUTS];
    table_t leq;
    Py_ssize_t len;
    int n, orbit_minimal = 0, count = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iy#|$p", kwlist,
                                     &n, &leq, &len, &orbit_minimal)
        || check_order(n) < 0 || check_size("leq", len, n) < 0)
        return NULL;
    if (orbit_minimal)
        count = list_automorphisms(n, leq, auts);
    /* every table is compatible with the discrete order: skip that pass */
    for (int k = 0; k < n * n; k++)
        if ((leq[k] != 0) != (k % (n + 1) == 0))
            return backtrack(n, leq, auts, count);
    return backtrack(n, NULL, auts, count);
}

static PyObject *
canonical_key(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"mult", "leq", "n", NULL};
    table_t m, leq;
    Py_ssize_t mlen, llen;
    int n, q[MAX_ORDER], p[MAX_ORDER], first = 1;
    unsigned char key[1 + 2 * MAX_ORDER * MAX_ORDER];

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y#y#i", kwlist,
                                     &m, &mlen, &leq, &llen, &n)
        || check_order(n) < 0 || check_mult(m, mlen, n) < 0
        || check_size("leq", llen, n) < 0)
        return NULL;

    int size = n * n;
    unsigned char *best = key + 1;
    key[0] = (unsigned char)n;
    for (int a = 0; a < n; a++)
        q[a] = a;
    /* q[new] = old and p[old] = new.  Each relabelling is written into
     * best byte by byte; it stops at the first byte above best, and
     * overwrites best from the first byte below it. */
    do {
        int less = first;
        for (int a = 0; a < n; a++)
            p[q[a]] = a;
        for (int k = 0; k < 2 * size; k++) {
            int src = q[k % size / n] * n + q[k % n];
            unsigned char c = k < size ? (unsigned char)p[m[src]] : leq[src];
            if (!less) {
                if (c > best[k])
                    break;
                less = c < best[k];
            }
            best[k] = c;
        }
        first = 0;
    } while (next_permutation(q, n));
    return PyBytes_FromStringAndSize((char *)key, 1 + 2 * size);
}

/* A subset of the carrier: bit v is set for element v. */
typedef unsigned int mask_t;

/* The union of masks[v] over the members v of bits. */
static mask_t
union_of(const mask_t *masks, mask_t bits, int n)
{
    mask_t out = 0;

    for (int v = 0; v < n; v++)
        if (bits >> v & 1)
            out |= masks[v];
    return out;
}

/* For each a, the elements b with key[b] == key[a]: a's class. */
static void
classes_of(const mask_t *key, mask_t *cls, int n)
{
    for (int a = 0; a < n; a++) {
        cls[a] = 0;
        for (int b = 0; b < n; b++)
            if (key[b] == key[a])
                cls[a] |= 1u << b;
    }
}

/* The members of bits, ascending, as a tuple of ints. */
static PyObject *
members(mask_t bits, int n)
{
    int count = 0;

    for (int v = 0; v < n; v++)
        count += bits >> v & 1;
    PyObject *out = PyTuple_New(count);
    for (int v = 0, k = 0; out != NULL && v < n; v++) {
        if (bits >> v & 1) {
            PyObject *item = PyLong_FromLong(v);
            if (item == NULL)
                Py_CLEAR(out);
            else
                PyTuple_SET_ITEM(out, k++, item);
        }
    }
    return out;
}

/* count masks as a tuple of ints. */
static PyObject *
mask_tuple(const mask_t *masks, int count)
{
    PyObject *out = PyTuple_New(count);

    for (int k = 0; out != NULL && k < count; k++) {
        PyObject *item = PyLong_FromUnsignedLong(masks[k]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, item);
    }
    return out;
}

/* The least element a with !(hit[a] & up[a]), or None. */
static PyObject *
first_miss(const mask_t *hit, const mask_t *up, int n)
{
    for (int a = 0; a < n; a++)
        if (!(hit[a] & up[a]))
            return PyLong_FromLong(a);
    Py_RETURN_NONE;
}

/* A scan's witness, its first len elements w, as a tuple of ints; None
 * when len is 0, as the scan found none. */
static PyObject *
witness(const mask_t *w, int len)
{
    if (len == 0)
        Py_RETURN_NONE;
    return mask_tuple(w, len);
}

/* Write the witness (p, q), (p, q, r) or (p, q, r, s) to w; returns its
 * length. */
static int
put2(mask_t *w, int p, int q)
{
    w[0] = p, w[1] = q;
    return 2;
}

static int
put3(mask_t *w, int p, int q, int r)
{
    w[0] = p, w[1] = q, w[2] = r;
    return 3;
}

static int
put4(mask_t *w, int p, int q, int r, int s)
{
    w[0] = p, w[1] = q, w[2] = r, w[3] = s;
    return 4;
}

/* The least member of a nonempty mask. */
static int
lowest(mask_t bits)
{
    int v = 0;

    while (!(bits >> v & 1))
        v++;
    return v;
}

/* The axiom scans of validate, each returning the length of its least
 * witness, 0 for none: associativity (i, j, k) with (ij)k != i(jk). */
static int
non_associative(table_t m, int n, mask_t *w)
{
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++)
                if (m[m[i * n + j] * n + k] != m[i * n + m[j * n + k]])
                    return put3(w, i, j, k);
    return 0;
}

/* reflexivity (i,), antisymmetry (i, j) and transitivity (i, j, k), over
 * the pairs i <= j ascending */
static int
not_reflexive(table_t leq, int n, mask_t *w)
{
    for (int i = 0; i < n; i++)
        if (!leq[i * n + i]) {
            w[0] = i;
            return 1;
        }
    return 0;
}

static int
not_antisymmetric(table_t leq, int n, mask_t *w)
{
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            if (leq[i * n + j] && i != j && leq[j * n + i])
                return put2(w, i, j);
    return 0;
}

static int
not_transitive(table_t leq, int n, mask_t *w)
{
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; leq[i * n + j] && k < n; k++)
                if (leq[j * n + k] && !leq[i * n + k])
                    return put3(w, i, j, k);
    return 0;
}

/* left (x multiplies on the left) and right compatibility (a, b, x): a <= b
 * but xa <= xb (left), resp. ax <= bx, fails */
static int
not_compatible(table_t m, table_t leq, int left, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            for (int x = 0; leq[a * n + b] && x < n; x++)
                if (left ? !leq[m[x * n + a] * n + m[x * n + b]]
                         : !leq[m[a * n + x] * n + m[b * n + x]])
                    return put3(w, a, b, x);
    return 0;
}

#define AXIOMS 6

/* The least witness of each axiom, in validate's order (associativity,
 * reflexivity, antisymmetry, transitivity, left and right compatibility),
 * or None where it holds; _kernel_py.axiom_witnesses is the reference. */
static PyObject *
axiom_witnesses(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"mult", "leq", "n", NULL};
    table_t m, leq;
    Py_ssize_t mlen, llen;
    int n, len[AXIOMS];
    mask_t w[AXIOMS][3];

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y#y#i", kwlist,
                                     &m, &mlen, &leq, &llen, &n)
        || check_order(n) < 0 || check_mult(m, mlen, n) < 0
        || check_size("leq", llen, n) < 0)
        return NULL;

    len[0] = non_associative(m, n, w[0]);
    len[1] = not_reflexive(leq, n, w[1]);
    len[2] = not_antisymmetric(leq, n, w[2]);
    len[3] = not_transitive(leq, n, w[3]);
    len[4] = not_compatible(m, leq, 1, n, w[4]);
    len[5] = not_compatible(m, leq, 0, n, w[5]);
    PyObject *out = PyTuple_New(AXIOMS);
    for (int k = 0; out != NULL && k < AXIOMS; k++) {
        PyObject *item = witness(w[k], len[k]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, item);
    }
    return out;
}

/* L4.1 (left) and L4.2: the least (a, b, a', b'), a' an inverse of a and
 * b' of b, where "side[a] == side[b]" disagrees with "h[a'a] == h[b'b]"
 * (left) or "h[aa'] == h[bb']"; returns the witness length, 0 for none. */
static int
unmatched(table_t m, const mask_t *inv, const mask_t *side, const mask_t *h,
          int left, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            for (int ap = 0; ap < n; ap++) {
                if (!(inv[a] >> ap & 1))
                    continue;
                mask_t x = h[left ? m[ap * n + a] : m[a * n + ap]];
                for (int bp = 0; bp < n; bp++)
                    if (inv[b] >> bp & 1
                        && (side[a] == side[b])
                           != (x == h[left ? m[bp * n + b] : m[b * n + bp]]))
                        return put4(w, a, b, ap, bp);
            }
    return 0;
}

/* L4.3: the least (a, a', e) where {aexa'} = pxq[ae][a'] or {a'eya} =
 * pxq[a'e][a] misses the ordered idempotents idem. */
static int
not_conjugate(table_t m, mask_t pxq[][MAX_ORDER], const mask_t *inv,
              mask_t idem, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int ap = 0; ap < n; ap++) {
            if (!(inv[a] >> ap & 1))
                continue;
            for (int e = 0; e < n; e++)
                if (idem >> e & 1
                    && !(pxq[m[a * n + e]][ap] & idem
                         && pxq[m[ap * n + e]][a] & idem))
                    return put3(w, a, ap, e);
        }
    return 0;
}

/* L4.4: the least (a, b, a', b') where ab <= (abb')x(a'ab) for no x, or
 * b'a' <= (b'a'a)y(bb'a') for no y; each scan is one mask of pxq. */
static int
not_reproduced(table_t m, mask_t pxq[][MAX_ORDER], const mask_t *inv,
               const mask_t *up, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++) {
            int ab = m[a * n + b];
            for (int ap = 0; ap < n; ap++) {
                if (!(inv[a] >> ap & 1))
                    continue;
                int apab = m[m[ap * n + a] * n + b];
                for (int bp = 0; bp < n; bp++) {
                    if (!(inv[b] >> bp & 1))
                        continue;
                    int bpap = m[bp * n + ap];
                    if (!(pxq[m[ab * n + bp]][apab] & up[ab])
                        || !(pxq[m[bpap * n + a]][m[m[b * n + bp] * n + ap]]
                             & up[bpap]))
                        return put4(w, a, b, ap, bp);
                }
            }
        }
    return 0;
}

/* TESF: the least (e, g, x, y) over ordered idempotents e and g, x in
 * (eSg], the downward closure of pxq[e][g], and y the least inverse of x
 * outside (gSe]. */
static int
not_sandwich_closed(mask_t pxq[][MAX_ORDER], const mask_t *inv,
                    const mask_t *down, mask_t idem, int n, mask_t *w)
{
    for (int e = 0; e < n; e++)
        for (int g = 0; g < n; g++) {
            if (!(idem >> e & 1 && idem >> g & 1))
                continue;
            mask_t inside = union_of(down, pxq[e][g], n),
                back = union_of(down, pxq[g][e], n);
            for (int x = 0; x < n; x++) {
                mask_t stray = inside >> x & 1 ? inv[x] & ~back : 0;
                for (int y = 0; y < n; y++)
                    if (stray >> y & 1)
                        return put4(w, e, g, x, y);
            }
        }
    return 0;
}

/* The first (e, v) over the members e of keys, v the least member of
 * stray[e], with stray[e] nonempty. */
static int
first_stray(mask_t keys, const mask_t *stray, int n, mask_t *w)
{
    for (int e = 0; e < n; e++)
        if (keys >> e & 1 && stray[e])
            return put2(w, e, lowest(stray[e]));
    return 0;
}

/* T33.L (same is L) and T33.R (R): (x,) for the least x whose principal
 * ideal of the side no ordered idempotent generates (equal ideals, equal
 * rows of same), else the least (e, f) of ordered idempotents generating
 * equal ideals and not H-related. */
static int
not_generated(const mask_t *same, const mask_t *h, mask_t idem, int n, mask_t *w)
{
    mask_t missing = ((1u << n) - 1) & ~union_of(same, idem, n), stray[MAX_ORDER];

    if (missing) {
        w[0] = lowest(missing);
        return 1;
    }
    for (int e = 0; e < n; e++)
        stray[e] = idem & same[e] & ~h[e];
    return first_stray(idem, stray, n, w);
}

/* T35.1 and C.3 (rows H), C.4 (rows hc): the least (a, b, c) over the
 * members a of keys and inverses b and c of a with c outside rows[b]. */
static int
inverses_apart(mask_t keys, const mask_t *inv, const mask_t *rows, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = 0; keys >> a & 1 && b < n; b++)
            if (inv[a] >> b & 1 && inv[a] & ~rows[b])
                return put3(w, a, b, lowest(inv[a] & ~rows[b]));
    return 0;
}

/* C.2 and C.5: the least (a, a') over the members a of keys and inverses
 * a' of a with aa' and a'a not H-commutative. */
static int
products_apart(mask_t keys, table_t m, const mask_t *inv, const mask_t *hc,
               int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int ap = 0; keys >> a & 1 && ap < n; ap++)
            if (inv[a] >> ap & 1 && !(hc[m[a * n + ap]] >> m[ap * n + a] & 1))
                return put2(w, a, ap);
    return 0;
}

/* B.2: the least (a, b) in one sigma-class C with a outside (Cb] or b
 * outside (aC], given cb[b] = {cb : c in C} and ac[a] = {ac : c in C}. */
static int
sigma_not_group_like(const mask_t *sigma, const mask_t *cb, const mask_t *ac,
                     const mask_t *up, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            if (sigma[a] >> b & 1 && !(cb[b] & up[a] && ac[a] & up[b]))
                return put2(w, a, b);
    return 0;
}

/* B.3: the least (a, b) with ab and ba ordered idempotents, not H-related. */
static int
products_not_h_related(table_t m, mask_t idem, const mask_t *h, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++) {
            int ab = m[a * n + b], ba = m[b * n + a];
            if (idem >> ab & 1 && idem >> ba & 1 && h[ab] != h[ba])
                return put2(w, a, b);
        }
    return 0;
}

/* B.6: the least (a, b), b > a, that one of L, R, J relates differently
 * from H. */
static int
greens_apart(mask_t green[][MAX_ORDER], int n, mask_t *w)
{
    for (int a = 0; a < n; a++) {
        mask_t h = green[3][a],
            split = ((green[0][a] ^ h) | (green[1][a] ^ h) | (green[2][a] ^ h)) >> (a + 1);
        if (split)
            return put2(w, a, a + 1 + lowest(split));
    }
    return 0;
}

/* CR.W: the least (a,) with no single x giving both a <= (ax)a2 and
 * a <= (a2x)a. */
static int
powers_not_witnessed(table_t m, const mask_t *up, int n, mask_t *w)
{
    for (int a = 0; a < n; a++) {
        int aa = m[a * n + a], found = 0;
        for (int x = 0; x < n && !found; x++)
            found = up[a] >> m[m[a * n + x] * n + aa] & 1
                && up[a] >> m[m[aa * n + x] * n + a] & 1;
        if (!found) {
            w[0] = a;
            return 1;
        }
    }
    return 0;
}

/* CR.J: the least (a, b), a < b, where equal filters and equal J rows
 * disagree. */
static int
sigma_not_j(const mask_t *filters, const mask_t *j, int n, mask_t *w)
{
    for (int a = 0; a < n; a++)
        for (int b = a + 1; b < n; b++)
            if ((filters[a] == filters[b]) != (j[a] == j[b]))
                return put2(w, a, b);
    return 0;
}

#define FACT_FIELDS 38

/* The fact record of one table as the tuple (up, down, row, col, pxq, inv,
 * inv_mask, idem, idem_mask, not_regular, not_completely_regular, L, R, J,
 * H, hc, filters, then the least failing tuple of each catalog scan or
 * None: not_left_matched, not_right_matched, not_conjugate,
 * not_reproduced, not_sandwich_closed, not_left_generated,
 * not_right_generated, inverses_not_h_related,
 * idempotent_inverses_not_h_related, idempotents_not_commuting,
 * idempotents_not_central, lr_idempotents_not_h_related,
 * j_idempotents_not_h_related, pair_products_not_commuting,
 * idempotent_pair_products_not_commuting,
 * idempotent_inverses_not_commuting, sigma_not_group_like,
 * idempotent_products_not_h_related, greens_not_coinciding,
 * powers_not_witnessed, sigma_not_j), each subset a mask;
 * _kernel_py.fact_rows is the reference.  Products keep the bracketing of
 * their definitions. */
static PyObject *
fact_rows(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"mult", "leq", "n", NULL};
    table_t m, leq;
    Py_ssize_t mlen, llen;
    int n;
    mask_t w[4], up[MAX_ORDER] = {0}, down[MAX_ORDER] = {0}, row[MAX_ORDER] = {0},
        col[MAX_ORDER] = {0}, pxq[MAX_ORDER][MAX_ORDER], inv[MAX_ORDER],
        idem = 0, diag[MAX_ORDER], sqdiag[MAX_ORDER], ideal[3][MAX_ORDER],
        green[4][MAX_ORDER], hc[MAX_ORDER], factors[MAX_ORDER] = {0},
        filters[MAX_ORDER];

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y#y#i", kwlist,
                                     &m, &mlen, &leq, &llen, &n)
        || check_order(n) < 0 || check_mult(m, mlen, n) < 0
        || check_size("leq", llen, n) < 0)
        return NULL;

    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++) {
            if (leq[a * n + b]) {
                up[a] |= 1u << b;
                down[b] |= 1u << a;
            }
            row[a] |= 1u << m[a * n + b];
            col[b] |= 1u << m[a * n + b];
            factors[m[a * n + b]] |= 1u << a | 1u << b;
        }
    for (int p = 0; p < n; p++)  /* pxq[p][q] = {(p*x)*q : x} */
        for (int q = 0; q < n; q++) {
            pxq[p][q] = 0;
            for (int z = 0; z < n; z++)
                if (row[p] >> z & 1)
                    pxq[p][q] |= 1u << m[z * n + q];
        }
    for (int a = 0; a < n; a++) {
        int aa = m[a * n + a];
        inv[a] = 0;
        for (int b = 0; b < n; b++)
            if (leq[a * n + m[m[a * n + b] * n + a]]
                && leq[b * n + m[m[b * n + a] * n + b]])
                inv[a] |= 1u << b;
        if (leq[a * n + aa])
            idem |= 1u << a;
        diag[a] = pxq[a][a];
        sqdiag[a] = pxq[aa][aa];
        /* principal ideals (a + Sa], (a + aS] and (a + Sa + aS + SaS] */
        ideal[0][a] = union_of(down, 1u << a | col[a], n);
        ideal[1][a] = union_of(down, 1u << a | row[a], n);
        ideal[2][a] = union_of(down, 1u << a | col[a] | row[a]
                               | union_of(col, row[a], n), n);
    }
    for (int k = 0; k < 3; k++)  /* equal ideals: L, R and J */
        classes_of(ideal[k], green[k], n);
    for (int a = 0; a < n; a++) {
        green[3][a] = green[0][a] & green[1][a];  /* H */
        hc[a] = 0;
        for (int b = 0; b < n; b++)
            if (pxq[b][a] & up[m[a * n + b]] && pxq[a][b] & up[m[b * n + a]])
                hc[a] |= 1u << b;
        /* the least filter containing a: close {a} under up, factors and
         * products of members */
        mask_t f = 1u << a, grown;
        for (;;) {
            grown = f;
            for (int v = 0; v < n; v++) {
                if (!(f >> v & 1))
                    continue;
                grown |= up[v] | factors[v];
                for (int w = 0; w < n; w++)
                    if (f >> w & 1)
                        grown |= 1u << m[v * n + w] | 1u << m[w * n + v];
            }
            if (grown == f)
                break;
            f = grown;
        }
        filters[a] = f;
    }
    /* the masks the scans of T35.2, B.4, T35.3 and B.5 read, and the
     * products within each sigma-class that B.2's reads */
    mask_t full = (1u << n) - 1, stray[4][MAX_ORDER], sigma[MAX_ORDER],
        cb[MAX_ORDER], ac[MAX_ORDER];
    classes_of(filters, sigma, n);
    for (int a = 0; a < n; a++) {
        stray[0][a] = idem & ~hc[a];
        stray[1][a] = full & ~hc[a];
        stray[2][a] = idem & (green[0][a] | green[1][a]) & ~green[3][a];
        stray[3][a] = idem & green[2][a] & ~green[3][a];
        cb[a] = ac[a] = 0;
        for (int c = 0; c < n; c++)
            if (sigma[a] >> c & 1) {
                cb[a] |= 1u << m[c * n + a];
                ac[a] |= 1u << m[a * n + c];
            }
    }

    PyObject *rec = PyTuple_New(FACT_FIELDS), *item;
    int k = 0;
#define PUT(expr) \
    do { \
        if ((item = (expr)) == NULL) \
            goto fail; \
        PyTuple_SET_ITEM(rec, k++, item); \
    } while (0)

    if (rec == NULL)
        return NULL;
    PUT(mask_tuple(up, n));
    PUT(mask_tuple(down, n));
    PUT(mask_tuple(row, n));
    PUT(mask_tuple(col, n));
    PUT(PyTuple_New(n));
    for (int p = 0; p < n; p++) {
        PyObject *r = mask_tuple(pxq[p], n);
        if (r == NULL)
            goto fail;
        PyTuple_SET_ITEM(item, p, r);
    }
    PUT(PyTuple_New(n));
    for (int a = 0; a < n; a++) {
        PyObject *r = members(inv[a], n);
        if (r == NULL)
            goto fail;
        PyTuple_SET_ITEM(item, a, r);
    }
    PUT(mask_tuple(inv, n));
    PUT(members(idem, n));
    PUT(PyLong_FromUnsignedLong(idem));
    PUT(first_miss(diag, up, n));
    PUT(first_miss(sqdiag, up, n));
    for (int r = 0; r < 4; r++)
        PUT(mask_tuple(green[r], n));
    PUT(mask_tuple(hc, n));
    PUT(mask_tuple(filters, n));
    PUT(witness(w, unmatched(m, inv, green[0], green[3], 1, n, w)));
    PUT(witness(w, unmatched(m, inv, green[1], green[3], 0, n, w)));
    PUT(witness(w, not_conjugate(m, pxq, inv, idem, n, w)));
    PUT(witness(w, not_reproduced(m, pxq, inv, up, n, w)));
    PUT(witness(w, not_sandwich_closed(pxq, inv, down, idem, n, w)));
    PUT(witness(w, not_generated(green[0], green[3], idem, n, w)));
    PUT(witness(w, not_generated(green[1], green[3], idem, n, w)));
    PUT(witness(w, inverses_apart(full, inv, green[3], n, w)));
    PUT(witness(w, inverses_apart(idem, inv, green[3], n, w)));
    for (int r = 0; r < 4; r++)
        PUT(witness(w, first_stray(idem, stray[r], n, w)));
    PUT(witness(w, products_apart(full, m, inv, hc, n, w)));
    PUT(witness(w, products_apart(idem, m, inv, hc, n, w)));
    PUT(witness(w, inverses_apart(idem, inv, hc, n, w)));
    PUT(witness(w, sigma_not_group_like(sigma, cb, ac, up, n, w)));
    PUT(witness(w, products_not_h_related(m, idem, green[3], n, w)));
    PUT(witness(w, greens_apart(green, n, w)));
    PUT(witness(w, powers_not_witnessed(m, up, n, w)));
    PUT(witness(w, sigma_not_j(filters, green[2], n, w)));
#undef PUT
    return rec;
fail:
    Py_DECREF(rec);
    return NULL;
}

#define METHOD(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, doc}

static PyMethodDef kernel_methods[] = {
    METHOD(enumerate_valid_tables,
           "All tables that are associative and compatible with the given order;\n"
           "with orbit_minimal, only the least table of each orbit under the\n"
           "order's automorphisms."),
    METHOD(canonical_key,
           "Minimum over relabelings of order byte + mult table + leq matrix."),
    METHOD(axiom_witnesses,
           "The least witness of each axiom, in validate's order, or None."),
    METHOD(fact_rows,
           "One table's fact record, each subset of the carrier an int mask."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled kernels; contract mirrored by osgkit._kernel_py.",
    0, kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module = PyModule_Create(&kernel_module);

    if (module != NULL
        && (PyModule_AddStringConstant(module, "BACKEND", "c") < 0
            || PyModule_AddIntConstant(module, "MAX_ORDER", MAX_ORDER) < 0))
        Py_CLEAR(module);
    return module;
}
