"""Runtime buffer handling for the directives.

The ``sbuf``/``rbuf`` clauses accept "a list of buffers ... pointers or
arrays of primitive or composite type" (Section III-B). At runtime a
buffer is a ``numpy`` array (a structured dtype is a composite type) or,
for the SHMEM target, a :class:`repro.shmem.SymArray`. This module
normalizes clause values to buffer lists, infers the message size when
``count`` is omitted, and enforces the paper's allocation rule for
SHMEM ("the buffers ... must also be symmetric data objects").
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.clauses import Target
from repro.errors import ClauseError, SymmetryError
from repro.shmem.symheap import SymArray


def as_buffer_list(value: Any, clause: str) -> list:
    """Normalize a clause value to a non-empty list of buffers."""
    if isinstance(value, (np.ndarray, SymArray)):
        items = [value]
    elif isinstance(value, (list, tuple)):
        items = list(value)
    else:
        raise ClauseError(
            f"{clause} must be a buffer or a list of buffers; "
            f"got {type(value).__name__}")
    if not items:
        raise ClauseError(f"{clause} must list at least one buffer")
    for b in items:
        if not isinstance(b, (np.ndarray, SymArray)):
            raise ClauseError(
                f"{clause} entries must be numpy arrays (or symmetric "
                f"arrays for the SHMEM target); got {type(b).__name__}")
    return items


def array_of(buf: np.ndarray | SymArray) -> np.ndarray:
    """The local ndarray behind a buffer handle."""
    return buf.data if isinstance(buf, SymArray) else buf


def resolve_buffers(target: Target, sbufs: list, rbufs: list,
                    count: int | None) -> tuple[int, list, list]:
    """Check a directive's buffer lists; return ``(count, sarrays,
    rarrays)``.

    Each buffer's local ndarray is resolved once, and the checks run
    over those arrays in a fixed order: the target's allocation rule,
    positional pairing, per-pair element sizes, then the message size.
    ``count`` is the ``count`` clause, or ``None`` when it was omitted:
    then at least one buffer must be an array (size > 1 or explicitly
    shaped), and the inferred size is the *smallest* array length among
    all listed buffers (Section III-B: "If more than one of the buffers
    is an array, the message size will be the size of the smallest
    array"). A transfer of ``count`` elements must fit every buffer it
    touches.
    """
    if target is Target.SHMEM:
        bad = [i for i, b in enumerate(rbufs) if not isinstance(b, SymArray)]
        if bad:
            raise SymmetryError(
                "TARGET_COMM_SHMEM requires every rbuf entry to be a "
                f"symmetric data object (shmem.malloc); entries {bad} "
                "are plain arrays (Section III-B)")
    if len(sbufs) != len(rbufs):
        raise ClauseError(
            f"sbuf and rbuf must list the same number of buffers "
            f"(payloads pair up positionally); got {len(sbufs)} vs "
            f"{len(rbufs)}")
    sarrays = [b.data if isinstance(b, SymArray) else b for b in sbufs]
    rarrays = [b.data if isinstance(b, SymArray) else b for b in rbufs]
    for i, (s, r) in enumerate(zip(sarrays, rarrays)):
        if s.dtype.itemsize != r.dtype.itemsize:
            raise ClauseError(
                f"buffer pair {i}: element sizes differ "
                f"({s.dtype.itemsize} vs {r.dtype.itemsize} bytes); "
                "the generated transfer would reinterpret elements")
    if count is None:
        arrays = [a.size for a in sarrays + rarrays if a.size >= 1]
        if not arrays:
            raise ClauseError(
                "count was omitted but no buffer in sbuf/rbuf is an "
                "array; provide count explicitly")
        count = min(arrays)
    for name, resolved in (("sbuf", sarrays), ("rbuf", rarrays)):
        for i, a in enumerate(resolved):
            if count > a.size:
                raise ClauseError(
                    f"count {count} exceeds {name}[{i}] "
                    f"({a.size} elements)")
    return count, sarrays, rarrays
