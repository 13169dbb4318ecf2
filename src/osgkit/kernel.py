"""Kernel selection: compiled extension when importable, pure Python otherwise.

Each backend exports three entry points for orders 1..``MAX_ORDER``: the
table search ``enumerate_valid_tables``, ``canonical_key``, and
``fact_rows``, one structure's fact record as bit-mask rows and scan
witnesses (see ``osgkit.properties.Facts``).  With ``orbit_minimal=True``
the search keeps only the least table of each orbit under the order's
automorphisms: one table per isomorphism class of ordered semigroups over
that order.  The compiled module ``osgkit._kernel`` is built by
``setup.py`` from the hand-written ``_kernelmodule.c``; ``_kernel_py`` is
the reference it must match.  Set OSGKIT_PURE=1 to force the fallback.
"""

from __future__ import annotations

import os

if os.environ.get("OSGKIT_PURE"):
    from osgkit import _kernel_py as _impl
else:
    try:
        from osgkit import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        from osgkit import _kernel_py as _impl

BACKEND: str = _impl.BACKEND
MAX_ORDER: int = _impl.MAX_ORDER

enumerate_valid_tables = _impl.enumerate_valid_tables
canonical_key = _impl.canonical_key
fact_rows = _impl.fact_rows


def enumerate_assoc_tables(n: int) -> list[bytes]:
    """All associative tables on n labelled points, lexicographic order:
    the valid tables over the discrete order."""
    return enumerate_valid_tables(n, bytes(i == j for i in range(n) for j in range(n)))
