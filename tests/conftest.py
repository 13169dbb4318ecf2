import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from osgkit import _kernel_py, kernel
from osgkit.enumeration import EnumerationOptions, enumerate_ordered_semigroups
from osgkit.fixtures import load_fixture
from osgkit.oracles import rz2 as build_rz2
from osgkit.structure import from_table


@pytest.fixture(scope="session")
def t1():
    return load_fixture("t1")


@pytest.fixture(scope="session")
def sl2():
    return load_fixture("sl2")


@pytest.fixture(scope="session")
def lz2():
    return load_fixture("lz2")


@pytest.fixture(scope="session")
def n2():
    return load_fixture("n2")


@pytest.fixture(scope="session")
def px3():
    return load_fixture("px3")


@pytest.fixture(scope="session")
def rz2():
    return build_rz2()


@pytest.fixture(scope="session")
def c2():
    # two-element group with 1 <= g; compatibility fails
    return from_table([[0, 1], [1, 0]], [(0, 1)])


@pytest.fixture(scope="session")
def b2():
    # the five-element Brandt semigroup, discrete order: 0 is the zero and
    # 1, 2, 3, 4 are e11, e12, e21, e22, where e_ij * e_kl = e_il when
    # j == k and 0 otherwise
    units = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
    index = {ij: x for x, ij in units.items()}

    def mul(a, b):
        if not a or not b:
            return 0
        (i, j), (k, l) = units[a], units[b]
        return index[i, l] if j == k else 0

    return from_table([[mul(a, b) for b in range(5)] for a in range(5)])


@pytest.fixture(scope="session")
def valid_fixtures(t1, sl2, lz2, n2):
    return {"t1": t1, "sl2": sl2, "lz2": lz2, "n2": n2}


@pytest.fixture
def fact_rows_calls(monkeypatch):
    """The arguments of each kernel.fact_rows call, one fact record each,
    that the test makes."""
    calls = []
    fact_rows = kernel.fact_rows

    def counted(*args):
        calls.append(args)
        return fact_rows(*args)

    monkeypatch.setattr(kernel, "fact_rows", counted)
    return calls


@pytest.fixture(scope="session")
def corpus_upto3_labelled():
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_ordered_semigroups(EnumerationOptions(n)))
    return out


@pytest.fixture(scope="session")
def corpus_upto3_iso():
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_ordered_semigroups(EnumerationOptions(n, mode="up_to_iso")))
    return out


# ---------------------------------------------------------------------------
# kernel backends

ROOT = Path(__file__).resolve().parents[1]
KERNEL_FUNCTIONS = ("enumerate_valid_tables", "canonical_key", "fact_rows")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The C kernel, built from this checkout into a temporary directory.

    Skips only when there is no C compiler; a compiler that fails to build
    the kernel fails the tests that need it.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the kernel")
    tmp = tmp_path_factory.mktemp("kernel")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = tmp / "lib" / "osgkit" / f"_kernel{suffix}"
        if path.exists():
            spec = importlib.util.spec_from_file_location("osgkit._kernel", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    pytest.fail(f"C kernel did not build:\n{proc.stdout}{proc.stderr}")


@pytest.fixture(params=["python", "c"])
def backend(request, monkeypatch):
    """Route ``osgkit.kernel`` to one backend for the duration of a test."""
    impl = _kernel_py if request.param == "python" else request.getfixturevalue("compiled")
    monkeypatch.setattr(kernel, "BACKEND", impl.BACKEND)
    for name in KERNEL_FUNCTIONS:
        monkeypatch.setattr(kernel, name, getattr(impl, name))
    return impl
