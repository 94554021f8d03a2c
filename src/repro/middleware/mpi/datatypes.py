"""MPI datatypes and reduction operations.

Buffers are numpy arrays or raw bytes; generic Python objects go through
pickle exactly as in mpi4py's lowercase API.  Datatypes matter for two
things here: knowing the element size (for counts and displacements) and
reconstructing typed arrays on the receive side.

numpy is imported where an array is built; an ``isinstance`` guard asks
``sys.modules`` first — no ndarray can exist before numpy is imported, so
bytes and pickled traffic never pays for loading it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Datatype:
    """An MPI elementary or derived datatype."""

    name: str
    itemsize: int
    np_dtype: Optional[str] = None

    def to_bytes(self, values) -> bytes:
        """Serialise ``values`` (array-like) using this datatype."""
        if self.np_dtype is None:
            if isinstance(values, (bytes, bytearray, memoryview)):
                return bytes(values)
            raise TypeError(f"datatype {self.name} requires a bytes-like buffer")
        import numpy as np

        return np.asarray(values, dtype=self.np_dtype).tobytes()

    def from_bytes(self, raw: bytes):
        """Rebuild a numpy array (or bytes) from the wire representation."""
        if self.np_dtype is None:
            return bytes(raw)
        import numpy as np

        return np.frombuffer(raw, dtype=self.np_dtype).copy()

    def count_of(self, raw: bytes) -> int:
        """Number of elements encoded in ``raw``."""
        if len(raw) % self.itemsize:
            raise ValueError(
                f"buffer of {len(raw)} bytes is not a whole number of {self.name} elements"
            )
        return len(raw) // self.itemsize

    def contiguous(self, count: int) -> "Datatype":
        """Derived type: ``count`` contiguous elements (MPI_Type_contiguous)."""
        if count <= 0:
            raise ValueError("count must be positive")
        return Datatype(f"{self.name}[{count}]", self.itemsize * count, self.np_dtype)


MPI_BYTE = Datatype("MPI_BYTE", 1, None)
MPI_CHAR = Datatype("MPI_CHAR", 1, "S1")
MPI_INT = Datatype("MPI_INT", 4, "<i4")
MPI_LONG = Datatype("MPI_LONG", 8, "<i8")
MPI_FLOAT = Datatype("MPI_FLOAT", 4, "<f4")
MPI_DOUBLE = Datatype("MPI_DOUBLE", 8, "<f8")


@dataclass(frozen=True)
class ReduceOp:
    """An MPI reduction operation over numpy arrays / scalars."""

    name: str
    fn: Callable

    def __call__(self, a, b):
        return self.fn(a, b)


def _arrays(a, b):
    """numpy when ``a`` or ``b`` is an array, else None."""
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return np
    return None


def _sum(a, b):
    np = _arrays(a, b)
    return a + b if np is None else np.add(a, b)


def _prod(a, b):
    np = _arrays(a, b)
    return a * b if np is None else np.multiply(a, b)


def _min(a, b):
    np = _arrays(a, b)
    return min(a, b) if np is None else np.minimum(a, b)


def _max(a, b):
    np = _arrays(a, b)
    return max(a, b) if np is None else np.maximum(a, b)


SUM = ReduceOp("MPI_SUM", _sum)
PROD = ReduceOp("MPI_PROD", _prod)
MIN = ReduceOp("MPI_MIN", _min)
MAX = ReduceOp("MPI_MAX", _max)
