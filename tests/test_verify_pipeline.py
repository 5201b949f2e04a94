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


def test_hankel_edge_still_fails_the_frame_convention_row(tmp_path, capsys):
    # n = 7 is ill-conditioned enough that transfer_matrix's own S solve and
    # snode.frame's cached S^{-1} Pi differ by 3e-12 > 1e-12; a transfer
    # matrix that borrowed S^{-1} Pi would pass this row
    spec = _write_spec(tmp_path, "verify-hankel", 1, 7)
    assert cli.main(["verify-hankel", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report_verify-hankel.json").read_text())
    failed = [check for check in report["checks"] if not check["passed"]]
    assert [check["tag"] for check in failed] == ["H7"]
    assert failed[0]["value"] > 2e-12
    assert "failed checks: H7 (frame convention)" in capsys.readouterr().err


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
