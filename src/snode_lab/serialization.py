"""JSON encoding shared by the file formats: complex scalars as [re, im],
matrices as row-major nested lists of [re, im] pairs."""

from __future__ import annotations

import numpy as np


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def int_from_json(value) -> int:
    """A JSON integer: an int, or a float with an integral value such as 2.0;
    raises TypeError for anything else (a boolean, a string, 1.7)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def matrix_to_json(M) -> list:
    """A matrix as rows of [re, im] pairs; a stack of matrices as a list of them."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(float).reshape(*M.shape, 2).tolist()


def matrix_from_json(rows) -> np.ndarray:
    """The complex matrix of rows of [re, im] pairs of JSON numbers, or the
    stack of a list of such matrices.  Raises ValueError for rows or
    matrices of unequal size, a cell that is not a pair, or a part that is
    not a number: float() and numpy would read "2" or true as one."""
    parts = np.array(rows, dtype=object)
    kinds = set(map(type, parts.flat))
    bad = sorted(kind.__name__ for kind in kinds if kind is bool or not issubclass(kind, (int, float)))
    if bad:
        raise ValueError(f"matrix entries must be [re, im] pairs of numbers, got {', '.join(bad)}")
    if parts.ndim not in (3, 4) or parts.shape[-1] != 2:
        raise ValueError(f"matrix must be rows of [re, im] pairs, got shape {parts.shape}")
    try:
        return parts.astype(float).view(complex)[..., 0]
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"matrix entry out of range: {exc}") from None
