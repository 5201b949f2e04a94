"""The verify-toeplitz and verify-hankel pipelines: one node, one chain and
one transfer-matrix call per run, the known edges they keep, and the spec
files they refuse."""

import json

import numpy as np
import pytest

from snode_lab import cli, hankel, matcore, sampling, snode, toeplitz
from snode_lab.errors import PoleAtLambda

BUILDERS = {
    "verify-toeplitz": (toeplitz, "build_toeplitz_node"),
    "verify-hankel": (hankel, "build_hankel_node"),
}


def _write_spec(tmp_path, command, p, n, seed=0):
    draw = sampling.random_toeplitz_spec if command == "verify-toeplitz" else sampling.random_hankel_spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(draw(np.random.default_rng(seed), p, n).to_json()))
    return path


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("command", sorted(BUILDERS))
def test_verify_builds_one_node_chain_factorization_and_transfer_call(tmp_path, monkeypatch, command):
    spec = _write_spec(tmp_path, command, 2, 5)
    calls = {}
    _counting(monkeypatch, *BUILDERS[command], calls)
    _counting(monkeypatch, matcore, "leading_chain", calls)
    _counting(monkeypatch, matcore, "cholesky_pd", calls)
    _counting(monkeypatch, snode, "transfer_matrix", calls)
    _counting(monkeypatch, np.linalg, "cholesky", calls)
    assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path)]) == 0
    assert calls == {
        BUILDERS[command][1]: 1,
        "leading_chain": 1,
        "cholesky_pd": 1,
        "cholesky": 1,
        "transfer_matrix": 1,
    }


@pytest.mark.parametrize("seed", [0, 1, 450])
def test_batched_draws_are_the_scalar_draws_bitwise(seed):
    one_by_one, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    for count, re, im in ((20, (-3, 3), (0.4, 3.0)), (5, (-1.5, 1.5), (0.3, 1.5)), (7, (-2, 2), (0.3, 2.0))):
        ref = np.array([complex(one_by_one.uniform(*re), one_by_one.uniform(*im)) for _ in range(count)])
        got = cli._draw_points(batched, count, re, im)
        assert got.dtype == complex and got.shape == (count,)
        assert got.tobytes() == ref.tobytes()
    assert batched.bit_generator.state == one_by_one.bit_generator.state


def _first_lambda(seed):
    rng = np.random.default_rng(seed)
    return complex(rng.uniform(-3, 3), rng.uniform(0.4, 3.0))


def test_toeplitz_lambda_near_the_diagonal_of_a_verifies(tmp_path):
    # scenario seed 450 draws its first lambda within 0.05 of i/2, the
    # diagonal of A: far above the pole test |i/2 - lambda| < 1e-12, and the
    # substitution on A's shift form is backward stable, so at n = 20 the
    # factor product still matches the transfer matrix to rounding
    lam = _first_lambda(450)
    assert abs(lam - 0.5j) < 0.05
    spec = _write_spec(tmp_path, "verify-toeplitz", 1, 20)
    assert cli.main(["verify-toeplitz", "--spec", str(spec), "--seed", "450", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_verify-toeplitz.json").read_text())
    assert all(check["passed"] for check in report["checks"])
    (c5,) = [check for check in report["checks"] if check["tag"] == "c5"]
    assert c5["value"] <= 1e-13


class _FirstDraws:
    """A generator whose first uniform draws, in the order a batched draw
    lays them out, are given; the rest are seeded."""

    def __init__(self, first):
        self.first = list(first)
        self.rest = np.random.default_rng(0)

    def uniform(self, low, high, size):
        out = self.rest.uniform(low, high, size)
        given = self.first[: out.size]
        out.reshape(-1)[: len(given)] = given
        del self.first[: len(given)]
        return out


def test_pole_at_lambda_wins_over_the_singular_resolvent(tmp_path):
    # lambda = i/2 exactly is both the factors' pole and a point where
    # A - lambda I is singular: the factors are formed first
    spec = _write_spec(tmp_path, "verify-toeplitz", 1, 20)
    sc = cli.Scenario("verify-toeplitz", spec_path=str(spec), out_dir=str(tmp_path))
    with pytest.raises(PoleAtLambda):
        cli._run_verify_toeplitz(sc, _FirstDraws([0.0, 0.5]))


def _moved_frame_cache(node):
    """The node with its cached S^{-1} Pi and frame coefficients, which
    snode.frame starts from, replaced by copies scaled by 1 + 1e-6."""
    for name in ("SinvPi", "frame_coefs"):
        moved = getattr(node, name) * (1.0 + 1e-6)
        moved.setflags(write=False)
        node.__dict__[name] = moved
    return node


def _borrowed_transfer_matrix(node, lams):
    """A transfer matrix that borrowed the frame's cached S^{-1} Pi."""
    resolvents = snode._resolvent(node, -lams, 1.0, node.Pi, lams)
    return np.eye(2 * node.p) - 1j * node.J @ node.SinvPi.conj().T @ resolvents


def _hankel_rows(spec, out):
    """{tag: value} of the rows of a verify-hankel run."""
    cli.main(["verify-hankel", "--spec", str(spec), "--out", str(out)])
    return {check["tag"]: check["value"] for check in json.loads((out / "report_verify-hankel.json").read_text())["checks"]}


def test_h7_compares_the_frame_with_a_transfer_matrix_of_its_own_s_solve(tmp_path, monkeypatch, capsys):
    # H7 compares snode.frame, which starts from the node's cached S^{-1} Pi,
    # with transfer_matrix, which solves S itself: a transfer matrix that
    # borrowed S^{-1} Pi would compare a route with itself.  Moving the cache
    # moves the frame and H7's value but not one bit of the transfer matrix
    # (nor H13-, which reads it); the borrowing one moves with the cache
    spec = _write_spec(tmp_path, "verify-hankel", 1, 7)
    build = hankel.build_hankel_node
    draw = sampling.random_hankel_spec(np.random.default_rng(0), 1, 7)
    fresh, moved = build(draw), _moved_frame_cache(build(draw))
    lams = np.array([0.3 + 1.2j, -1.1 - 0.7j, 2.0 + 0.5j])
    zs = np.array([0.4 + 0.8j, -1.0 + 1.5j])
    assert snode.transfer_matrix(moved, lams).tobytes() == snode.transfer_matrix(fresh, lams).tobytes()
    assert not np.array_equal(snode.frame(moved, zs), snode.frame(fresh, zs))
    assert not np.array_equal(_borrowed_transfer_matrix(moved, lams), _borrowed_transfer_matrix(fresh, lams))
    rows = _hankel_rows(spec, tmp_path / "fresh")
    monkeypatch.setattr(hankel, "build_hankel_node", lambda s: _moved_frame_cache(build(s)))
    moved_rows = _hankel_rows(spec, tmp_path / "moved")
    capsys.readouterr()
    assert moved_rows["H13-"] == rows["H13-"]
    assert moved_rows["H7"] != rows["H7"]


def _set_cell(value):
    def edit(data, field):
        data[field][0][0][0] = value

    return edit


# each edit spoils one field of a good p = 1, n = 2 spec
EDITS = {
    "p-fraction": lambda data, field: data.update(p=1.7),
    "p-string": lambda data, field: data.update(p="1"),
    "n-fraction": lambda data, field: data.update(n=2.9),
    "cell-strings": _set_cell(["2", "0"]),
    "cell-booleans": _set_cell([True, False]),
    "cell-boolean-part": _set_cell([1.0, True]),
    "cell-not-a-pair": _set_cell([1.0]),
    "cell-a-number": _set_cell(1.0),
    "ragged-rows": lambda data, field: data[field][0].append(data[field][0][0] * 2),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("command", sorted(BUILDERS))
def test_malformed_spec_exits_2(tmp_path, capsys, command, edit):
    path = _write_spec(tmp_path, command, 1, 2)
    assert cli.main([command, "--spec", str(path), "--out", str(tmp_path)]) == 0
    data = json.loads(path.read_text())
    EDITS[edit](data, "s" if command == "verify-toeplitz" else "H")
    path.write_text(json.dumps(data))
    assert cli.main([command, "--spec", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {command}: spec {path} is malformed: ")


def test_integral_float_orders_are_accepted(tmp_path):
    good = _write_spec(tmp_path, "verify-hankel", 1, 2)
    data = json.loads(good.read_text())
    good.write_text(json.dumps({**data, "p": 1.0, "n": 2.0}))
    assert cli.main(["verify-hankel", "--spec", str(good), "--out", str(tmp_path)]) == 0
