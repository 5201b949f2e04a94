import numpy as np
import pytest

from snode_lab import hankel, matcore, sampling, snode, toeplitz


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def hankel_unit():
    """The order-1 scalar moment node with H_0 = 1."""
    spec = hankel.HankelSpec(p=1, n=1, H=(np.array([[1.0]]),))
    return spec, hankel.build_hankel_node(spec)


@pytest.fixture(scope="session")
def hankel_102():
    spec = hankel.HankelSpec(
        p=1, n=2, H=(np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]]))
    )
    return spec, hankel.build_hankel_node(spec)


@pytest.fixture(scope="session")
def toeplitz_unit():
    """The order-1 scalar spec with s_0 = 2, nu = 0."""
    spec = toeplitz.ToeplitzSpec(p=1, n=1, s=(np.array([[2.0]]),), nu=np.array([[0.0]]))
    return spec, toeplitz.build_toeplitz_node(spec)


@pytest.fixture(scope="session")
def toeplitz_3():
    spec = toeplitz.ToeplitzSpec(
        p=1,
        n=3,
        s=(np.array([[2.0]]), np.array([[0.4 + 0.1j]]), np.array([[-0.1 + 0.2j]])),
        nu=np.array([[0.0]]),
    )
    return spec, toeplitz.build_toeplitz_node(spec)


@pytest.fixture(scope="session")
def unit_pair():
    return snode.ParamPair.constant(np.eye(1, dtype=complex), np.eye(1, dtype=complex))


def make_rng(seed):
    return np.random.default_rng(seed)


def random_nodes(seed, count=6):
    """A mixed bag of Toeplitz- and Hankel-built nodes for generic sweeps."""
    rng = make_rng(seed)
    nodes = []
    for i in range(count):
        if i % 2 == 0:
            spec = sampling.random_toeplitz_spec(rng, p=1 + i % 2, n=2 + i % 3)
            nodes.append(toeplitz.build_toeplitz_node(spec))
        else:
            spec = sampling.random_hankel_spec(rng, p=1 + i % 2, n=2 + i % 2)
            nodes.append(hankel.build_hankel_node(spec))
    return nodes


def frame_from_spec(spec, z):
    """The Toeplitz frame at z from the assembled node, independently of the
    chain: J j w_A(-1/conj(z))* j J, for z away from 0 and from the pole -2i."""
    w = snode.transfer_matrix(toeplitz.build_toeplitz_node(spec), -1.0 / np.conj(z))
    J, j = matcore.exchange_J(spec.p), matcore.signature_j(spec.p)
    return (J @ j) @ w.conj().T @ (j @ J)
