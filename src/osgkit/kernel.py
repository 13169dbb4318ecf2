"""Kernel selection: compiled extension when importable, pure Python otherwise.

The compiled module ``osgkit._kernel`` is built by ``setup.py`` from the
hand-written ``_kernelmodule.c``; ``_kernel_py`` is the reference it must
match.  Set OSGKIT_PURE=1 to force the fallback.
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

find_assoc_violation = _impl.find_assoc_violation
enumerate_assoc_tables = _impl.enumerate_assoc_tables
enumerate_valid_tables = _impl.enumerate_valid_tables
canonical_key = _impl.canonical_key
