/* Compiled enumeration kernels, module osgkit._kernel: the table search
 * and canonical keys.
 *
 * Same contract as the pure-Python reference osgkit._kernel_py: tables
 * travel as row-major bytes and orders are capped at MAX_ORDER = 5, so
 * fixed buffers of 25 cells, and the at most 5! - 1 automorphisms of an
 * order, fit on the stack.  Every argument is checked before it is read.
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

#define METHOD(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, doc}

static PyMethodDef kernel_methods[] = {
    METHOD(enumerate_valid_tables,
           "All tables that are associative and compatible with the given order;\n"
           "with orbit_minimal, only the least table of each orbit under the\n"
           "order's automorphisms."),
    METHOD(canonical_key,
           "Minimum over relabelings of order byte + mult table + leq matrix."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled enumeration kernels; contract mirrored by osgkit._kernel_py.",
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
