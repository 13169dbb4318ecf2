"""Parity between the compiled kernel and the pure-Python fallback.

Both implement the same contract; the suite drives them side by side so
either can back the package.  The compiled side comes from the
``compiled`` fixture, which builds the C kernel from this checkout.
"""

import importlib.machinery
import random
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from osgkit import _kernel_py, kernel
from osgkit.enumeration import enumerate_partial_orders, poset_representatives


def _leq_flat(rel, n):
    return bytes(1 if rel[i][j] else 0 for i in range(n) for j in range(n))


def test_backends_report_their_names(compiled):
    assert compiled.BACKEND == "c"
    assert _kernel_py.BACKEND == "python"
    assert kernel.BACKEND in ("c", "python")


def test_backends_share_max_order(compiled):
    assert {name for name in dir(compiled) if not name.startswith("_")} == {
        "BACKEND", "MAX_ORDER", "enumerate_valid_tables", "canonical_key", "fact_rows",
    }
    assert compiled.MAX_ORDER == _kernel_py.MAX_ORDER == kernel.MAX_ORDER == 5


def test_assoc_table_streams_identical(compiled):
    for n in (1, 2, 3, 4):
        discrete = bytes(i == j for i in range(n) for j in range(n))
        assert compiled.enumerate_valid_tables(n, discrete) == \
            _kernel_py.enumerate_valid_tables(n, discrete)


def test_valid_table_streams_identical_over_all_posets(compiled):
    for n in (1, 2, 3):
        for rel in enumerate_partial_orders(n):
            leq = _leq_flat(rel, n)
            assert compiled.enumerate_valid_tables(n, leq) == \
                _kernel_py.enumerate_valid_tables(n, leq)


def _orbit_minimal_posets():
    """Every poset of order <= 3 and the 16 order-4 representatives, which
    include the discrete order."""
    for n in (1, 2, 3):
        for rel in enumerate_partial_orders(n):
            yield n, _leq_flat(rel, n)
    for rel in poset_representatives(4):
        yield 4, _leq_flat(rel, 4)


def test_orbit_minimal_streams_identical(compiled):
    for n, leq in _orbit_minimal_posets():
        assert compiled.enumerate_valid_tables(n, leq, orbit_minimal=True) == \
            _kernel_py.enumerate_valid_tables(n, leq, orbit_minimal=True)


def _least_in_orbit_by_brute_force(n, leq, tables):
    """The tables that no automorphism of leq maps to a smaller table."""
    cells = range(n * n)
    auts = [
        p for p in permutations(range(n))
        if all(leq[p[k // n] * n + p[k % n]] == leq[k] for k in cells)
    ]

    def image(p, table):
        out = bytearray(n * n)
        for k in cells:
            out[p[k // n] * n + p[k % n]] = p[table[k]]
        return bytes(out)

    return [t for t in tables if all(image(p, t) >= t for p in auts)]


@pytest.mark.parametrize("impl", ["python", "c"])
def test_orbit_minimal_tables_are_the_least_of_each_orbit(compiled, impl):
    backend = _kernel_py if impl == "python" else compiled
    for n, leq in _orbit_minimal_posets():
        if n == 4 and impl == "python":
            continue  # the compiled stream is identical there
        found = backend.enumerate_valid_tables(n, leq, orbit_minimal=True)
        every = backend.enumerate_valid_tables(n, leq)
        assert found == _least_in_orbit_by_brute_force(n, leq, every)


def test_canonical_key_parity_on_random_inputs(compiled):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5 if _ % 10 == 0 else 4)
        mult = bytes(rng.randrange(n) for _ in range(n * n))
        leq = bytes(
            1 if i == j else rng.randint(0, 1)
            for i in range(n) for j in range(n)
        )
        assert compiled.canonical_key(mult, leq, n) == \
            _kernel_py.canonical_key(mult, leq, n)


def _every_class_upto_4(compiled):
    """(n, mult, leq) for each ordered semigroup class of orders 1..4: the
    orbit-minimal tables over one poset of each isomorphism class."""
    for n in (1, 2, 3, 4):
        for rel in poset_representatives(n):
            leq = _leq_flat(rel, n)
            for mult in compiled.enumerate_valid_tables(n, leq, orbit_minimal=True):
                yield n, mult, leq


def test_fact_rows_identical_on_every_class_upto_order_4(compiled):
    count = 0
    for n, mult, leq in _every_class_upto_4(compiled):
        assert compiled.fact_rows(mult, leq, n) == _kernel_py.fact_rows(mult, leq, n)
        count += 1
    assert count == 1 + 11 + 173 + 4753


def test_fact_rows_identical_on_random_tables(compiled):
    # the record is defined for any table, associative or not, under any
    # relation: partial orders, and arbitrary 0/1 matrices
    rng = random.Random(26)
    posets = {n: [_leq_flat(rel, n) for rel in enumerate_partial_orders(n)] for n in (1, 2, 3, 4)}
    for k in range(400):
        n = rng.randint(1, 5)
        mult = bytes(rng.randrange(n) for _ in range(n * n))
        if n < 5 and k % 2:
            leq = rng.choice(posets[n])
        else:
            leq = bytes(rng.randint(0, 1) for _ in range(n * n))
        assert compiled.fact_rows(mult, leq, n) == _kernel_py.fact_rows(mult, leq, n)


ERROR_CASES = [
    # the calls kernel.enumerate_assoc_tables(0) and (6) make
    ("enumerate_valid_tables", (0, b""), "order must be within 1..5"),
    ("enumerate_valid_tables", (6, bytes(i == j for i in range(6) for j in range(6))),
     "order must be within 1..5"),
    ("enumerate_valid_tables", (6, b"\x01" * 36), "order must be within 1..5"),
    ("enumerate_valid_tables", (2, b"\x01"), "leq must hold n*n bytes"),
    ("canonical_key", (b"", b"", 0), "order must be within 1..5"),
    ("canonical_key", (b"\x00" * 3, b"\x01" * 4, 2), "mult must hold n*n bytes"),
    ("canonical_key", (b"\x00" * 4, b"\x01" * 5, 2), "leq must hold n*n bytes"),
    ("canonical_key", (b"\x00" * 36, b"\x01" * 36, 6), "order must be within 1..5"),
    ("canonical_key", (b"\x00" * 5, b"\x01" * 4, 2), "mult must hold n*n bytes"),
    ("canonical_key", (b"\x00\x00\x00\x02", b"\x01" * 4, 2), "mult entries must be below n"),
    ("canonical_key", (b"\x00" * 4, b"\x01" * 3, 2), "leq must hold n*n bytes"),
    ("fact_rows", (b"", b"", 0), "order must be within 1..5"),
    ("fact_rows", (b"\x00" * 36, b"\x01" * 36, 6), "order must be within 1..5"),
    ("fact_rows", (b"\x00" * 3, b"\x01" * 4, 2), "mult must hold n*n bytes"),
    ("fact_rows", (b"\x00\x00\x00\x02", b"\x01" * 4, 2), "mult entries must be below n"),
    ("fact_rows", (b"\x00" * 4, b"\x01" * 3, 2), "leq must hold n*n bytes"),
]


@pytest.mark.parametrize(
    "name,args,message", ERROR_CASES,
    ids=[f"{name}-{message.split()[0]}-{i}" for i, (name, _, message) in enumerate(ERROR_CASES)],
)
def test_both_backends_raise_the_same_error(compiled, name, args, message):
    for impl in (_kernel_py, compiled):
        with pytest.raises(ValueError) as exc:
            getattr(impl, name)(*args)
        assert str(exc.value) == message, impl.BACKEND


@pytest.mark.parametrize("args,message", [
    ((6, b"\x01" * 36), "order must be within 1..5"),
    ((2, b"\x01"), "leq must hold n*n bytes"),
])
def test_orbit_minimal_search_keeps_the_error_contract(compiled, args, message):
    for impl in (_kernel_py, compiled):
        with pytest.raises(ValueError) as exc:
            impl.enumerate_valid_tables(*args, orbit_minimal=True)
        assert str(exc.value) == message, impl.BACKEND


def test_env_var_forces_pure_backend():
    code = (
        "import os; os.environ['OSGKIT_PURE'] = '1'; "
        "from osgkit import kernel; print(kernel.BACKEND)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parents[1] / "src",
    )
    assert result.stdout.strip() == "python"


def test_bench_kernel_script_times_every_available_backend():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_kernel.py"),
         "--order", "2", "--repeat", "1"],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    assert result.returncode == 0, result.stderr
    # the script imports the compiled kernel from the checkout's src/
    built = any(
        (root / "src" / "osgkit" / f"_kernel{suffix}").exists()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    )
    backends = ["c", "python"] if built else ["python"]
    lines = result.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("benchmark"))
    assert [w for w in lines[header].split()[1:] if w != "speedup"] == backends
    rows = lines[header + 1:]
    # assoc tables, valid tables over all posets, orbit-minimal tables over
    # poset classes, canonical keys, fact rows of the classes
    assert len(rows) == 5
    for row in rows:
        assert len(re.findall(r"\d+\.\d+ms", row)) == len(backends)
