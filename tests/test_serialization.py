import numpy as np
import pytest

from snode_lab import serialization


def _per_cell(M):
    """The cell-by-cell encoding the vectorized one replaced."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def test_round_trip_keeps_signed_zeros_and_extreme_magnitudes():
    M = np.array([[-0.0 + 1e-300j, 1e300 - 0.0j], [complex(-0.0, -0.0), -1e-300 + 1e300j]])
    encoded = serialization.matrix_to_json(M)
    assert encoded == _per_cell(M)
    again = serialization.matrix_from_json(encoded)
    assert again.dtype == complex and again.tobytes() == M.tobytes()
    assert serialization.matrix_to_json(again) == encoded


def test_a_stack_is_a_list_of_matrices():
    stack = np.arange(12).reshape(3, 2, 2) * (1 - 0.5j)
    encoded = serialization.matrix_to_json(stack)
    assert encoded == [_per_cell(M) for M in stack]
    assert serialization.matrix_from_json(encoded).tobytes() == stack.tobytes()


def test_integer_parts_read_as_floats():
    assert serialization.matrix_from_json([[[1, -2], [0, 3.5]]]).tolist() == [[1 - 2j, 3.5j]]


@pytest.mark.parametrize(
    "rows",
    [
        [[["2", "0"]]],
        [[[True, False]]],
        [[[1.0, False]]],
        [[[1.0]]],
        [[[1.0, 2.0, 3.0]]],
        [[1.0]],
        [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
        [[[None, 0.0]]],
        [[[[1.0, 0.0]]], [[[1.0, 0.0], [2.0, 0.0]]]],
        [[[[[1.0, 0.0]]]]],
        [[[10**400, 0]]],
    ],
)
def test_malformed_matrices_are_refused(rows):
    with pytest.raises((ValueError, TypeError)):
        serialization.matrix_from_json(rows)


@pytest.mark.parametrize("value, expected", [(3, 3), (2.0, 2), (-1, -1)])
def test_integers_from_json(value, expected):
    out = serialization.int_from_json(value)
    assert out == expected and type(out) is int


@pytest.mark.parametrize("value", [1.7, "1", True, None, [1]])
def test_non_integers_are_refused(value):
    with pytest.raises(TypeError):
        serialization.int_from_json(value)
