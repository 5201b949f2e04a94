"""JSON encoding shared by the file formats: complex scalars as [re, im],
matrices as row-major nested lists of [re, im] pairs."""

from __future__ import annotations

import numpy as np


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[complex_to_json(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def matrix_from_json(rows) -> np.ndarray:
    return np.array(
        [[complex_from_json(cell) for cell in row] for row in rows], dtype=complex
    )
