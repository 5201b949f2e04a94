import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from snode_lab import hankel, matcore, sampling, toeplitz
from snode_lab.errors import NonFiniteEntries, NotHermitian, NotPositiveDefinite


def random_hpd(seed, n):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M @ M.conj().T + 0.1 * np.eye(n)


def test_assert_hermitian_identity():
    matcore.assert_hermitian(np.eye(2), tol=1e-12)


def test_assert_hermitian_antisymmetric_imaginary():
    matcore.assert_hermitian(np.array([[0, 1j], [-1j, 0]]), tol=1e-12)


def test_assert_hermitian_rejects_triangular():
    with pytest.raises(NotHermitian) as err:
        matcore.assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert err.value.deviation == pytest.approx(1.0)


def test_cholesky_identity():
    pd = matcore.cholesky_pd(np.eye(3))
    assert_allclose(pd.factor, np.eye(3), atol=1e-15)


def test_cholesky_scalar():
    pd = matcore.cholesky_pd(np.array([[4.0]]))
    assert_allclose(pd.factor, np.array([[2.0]]), atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        matcore.cholesky_pd(np.diag([1.0, -1.0]))


def test_sqrtm_identity_and_diagonal():
    assert_allclose(matcore.sqrtm_hpd(np.eye(2)), np.eye(2), atol=1e-14)
    assert_allclose(matcore.sqrtm_hpd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_sqrtm_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        matcore.sqrtm_hpd(np.diag([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_cholesky_reconstruction(seed, n):
    M = random_hpd(seed, n)
    pd = matcore.cholesky_pd(M)
    gap = np.linalg.norm(pd.factor @ pd.factor.conj().T - M)
    assert gap <= 1e-12 * np.linalg.norm(M)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sqrtm_squares_back(seed):
    M = random_hpd(seed, 3)
    R = matcore.sqrtm_hpd(M)
    assert np.linalg.norm(R - R.conj().T) <= 1e-12 * np.linalg.norm(R)
    assert np.linalg.norm(R @ R - M) <= 1e-11 * np.linalg.norm(M)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_sqrtm_idempotent(seed, n):
    M = random_hpd(seed, n)
    R = matcore.sqrtm_hpd(M)
    again = matcore.sqrtm_hpd(R @ R)
    assert np.max(np.abs(again - R)) <= 1e-10 * (1 + np.max(np.abs(R)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_det_from_pivots(seed, n):
    M = random_hpd(seed, n)
    pd = matcore.cholesky_pd(M)
    reference = np.linalg.det(M).real
    assert pd.det() == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize(
    "helper",
    [matcore.hermitian_part, matcore.inv_hpd, matcore.sqrtm_hpd, lambda M: matcore.cholesky_pd(M).det()],
)
@pytest.mark.parametrize("count", [5, 3])
def test_stacked_helpers_equal_single_calls(helper, count):
    # a stack as long as its matrices are wide catches a right-hand side
    # that numpy < 2 would read as a stack of vectors
    stack = np.stack([random_hpd(seed, 3) for seed in range(count)])
    for M, value in zip(stack, helper(stack)):
        assert np.array_equal(helper(M), value)


@pytest.mark.parametrize(
    "helper, bad, error, message",
    [
        (matcore.assert_hermitian, np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitian, "not Hermitian"),
        (matcore.cholesky_pd, np.diag([1.0, -1.0]), NotPositiveDefinite, ""),
        (matcore.sqrtm_hpd, np.diag([1.0, 0.0]), NotPositiveDefinite, "smallest eigenvalue 0.000e+00"),
        (matcore.hermitian_part, np.diag([1.0, np.nan]), ValueError, "entries must be finite"),
    ],
)
def test_stacked_guards_name_the_first_failing_matrix(helper, bad, error, message):
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), bad, bad])
    with pytest.raises(error, match=f"^matrix 2 of the stack: .*{re.escape(message)}"):
        helper(stack)


def _off_by_just_over_the_tolerance():
    """A 2 x 2 matrix whose deviation from Hermitian is 1e-6 relative above
    its default tolerance."""
    M = np.array([[2.0, 0.0], [0.0, 2.0]])
    M[0, 1] = matcore.default_tol(M) * (1.0 + 1e-6)
    return M


_PIVOT = "Matrix is not positive definite"  # numpy's Cholesky failure


# each helper checks its input once; the classes and messages are those of
# the helpers that ran every check on every call
@pytest.mark.parametrize(
    "helper, bad, error, message",
    [
        pytest.param(helper, bad, error, message, id=f"{helper.__name__}-{kind}")
        for helper, refusal in [
            (matcore.cholesky_pd, (NotPositiveDefinite, _PIVOT)),
            (matcore.sqrtm_hpd, (NotPositiveDefinite, "smallest eigenvalue -1.000e+00 is not positive")),
            (matcore.inv_hpd, (NotPositiveDefinite, _PIVOT)),
            (matcore.assert_hermitian, (None, None)),
        ]
        for kind, bad, (error, message) in [
            ("nan", np.diag([1.0, np.nan]), (NonFiniteEntries, "matrix entries must be finite")),
            (
                "skew",
                _off_by_just_over_the_tolerance(),
                (NotHermitian, "matrix is not Hermitian (max deviation 3.000e-10)"),
            ),
            ("indefinite", np.diag([1.0, -1.0]), refusal),
        ]
    ],
)
@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_checked_helpers_refuse_as_before(helper, bad, error, message, stacked):
    M = np.stack([np.eye(2), 2.0 * np.eye(2), bad, bad]) if stacked else bad
    if error is None:  # an indefinite Hermitian matrix is Hermitian
        helper(M)
        return
    with pytest.raises(error) as info:
        helper(M)
    assert str(info.value) == ("matrix 2 of the stack: " if stacked else "") + message


def test_adjugate_inverse_at_p2_is_accurate_to_the_conditioning():
    rng = np.random.default_rng(22)
    # condition numbers from 1 to about 1e12
    U = np.linalg.qr(rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2)))[0]
    sv = np.stack([np.ones(200), 10.0 ** -rng.uniform(0.0, 12.0, 200)], axis=1)
    stack = 10.0 ** rng.uniform(-3.0, 3.0, (200, 1, 1)) * (U * sv[:, None, :]) @ V
    cond = np.linalg.cond(stack)
    adj, det = matcore.adjugate(stack)
    inv = np.stack([np.stack(row, axis=-1) for row in adj], axis=-2) / det[:, None, None]
    assert np.all(
        np.linalg.norm(inv - np.linalg.inv(stack), axis=(1, 2))
        <= 8.0 * np.finfo(float).eps * cond * np.linalg.norm(inv, axis=(1, 2))
    )


_POWERS = (-1, 0.5, -0.5)
_U = np.finfo(float).eps / 2  # unit roundoff


def _kernel_inputs(p):
    """Seeded Hermitian positive-definite p x p matrices with condition
    numbers 1 to 1e12 (p = 2) and largest eigenvalues near 1, 1e+-150 and
    1e+-300, each kept only when every power of it is a normal double."""
    rng = np.random.default_rng(49 + p)
    out = []
    for scale in (1.0, 1e150, 1e-150, 1e300, 1e-300):
        for cond in (1.0, 1e3, 1e6, 1e9, 1e12) if p == 2 else (1.0,):
            if scale / cond < 1e-306:
                continue
            for _ in range(4):
                Q = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))[0]
                M = (Q * (scale * rng.uniform(0.5, 2.0) * np.array([1.0, 1.0 / cond])[:p])) @ Q.conj().T
                out.append((M + M.conj().T) / 2.0)
    return out


def _mp50_powers(M):
    """M^-1, M^{1/2} and M^{-1/2} at 50 digits, each rounded to doubles,
    from one Hermitian eigendecomposition, and the condition number of M."""
    import mpmath

    with mpmath.workdps(50):
        E, Q = mpmath.eighe(mpmath.matrix(M.tolist()))
        n = M.shape[0]
        powers = {}
        for q in _POWERS:
            X = Q * mpmath.diag([e ** mpmath.mpf(q) for e in E]) * Q.H
            powers[q] = np.array([[complex(X[i, j]) for j in range(n)] for i in range(n)])
        return powers, float(max(E) / min(E))


def _lapack_powers(M):
    """The LAPACK route that the closed forms replace at p <= 2: the inverse
    by Cholesky, the roots by ``eigh``, the inverse root as the root of the
    inverse."""
    L = np.linalg.cholesky(M)
    inv = np.linalg.solve(L.conj().T, np.linalg.solve(L, np.eye(len(M))))
    inv = (inv + inv.conj().T) / 2.0

    def root(A):
        w, V = np.linalg.eigh(A)
        return (V * np.sqrt(w)) @ V.conj().T

    return {-1: inv, 0.5: root(M), -0.5: root(inv)}


def _first_order_bounds(p, kappa):
    """Entrywise relative error bounds of the closed forms, to first order in
    the unit roundoff u, for a matrix of condition number kappa, plus u for
    rounding the reference.  At p = 2 the scaling by 4^-k is exact and only
    det = a d - |c|^2 cancels: it carries (3 kappa + 1) u, as a d / det <=
    kappa; s = sqrt(det) half of that plus u; t = sqrt(a + d + 2 s), a sum
    of positives, half of s's plus 2 u.  Then adj / det carries
    det's error plus u, (M + s I) / t those of s and t plus 2 u, and
    (adj + s I) / (s t) s's twice, t's once, plus 3 u."""
    if p == 1:
        return {-1: 2 * _U, 0.5: 2 * _U, -0.5: 3 * _U}
    det = (3 * kappa + 1) * _U
    s = det / 2 + _U
    t = s / 2 + 2 * _U
    return {-1: det + 2 * _U, 0.5: s + t + 3 * _U, -0.5: 2 * s + t + 4 * _U}


@pytest.mark.parametrize("p", [1, 2])
def test_hpd_powers_are_accurate_to_a_first_order_bound_and_beat_lapack(p):
    worst = {}  # (condition class, power) -> (closed form, LAPACK route), normwise
    for M in _kernel_inputs(p):
        reference, kappa = _mp50_powers(M)
        bounds = _first_order_bounds(p, kappa)
        lapack = _lapack_powers(M)
        for q, value in zip(_POWERS, matcore.hpd_powers(M, _POWERS)):
            want = reference[q]
            # every entry within the first-order bound, with room for its square
            bound = bounds[q] * (1.0 + bounds[q])
            assert np.all(np.abs(value - want) <= bound * np.abs(want)), (q, kappa)
            errors = [np.abs(X - want).max() / np.abs(want).max() for X in (value, lapack[q])]
            cls = (round(np.log10(kappa) / 3), q)
            worst[cls] = np.maximum(worst.get(cls, (0.0, 0.0)), errors)
    # no less accurate than LAPACK over each condition class, to a few eps
    for (cls, q), (closed, route) in worst.items():
        assert closed <= route + 4 * np.finfo(float).eps, (cls, q, closed, route)


def test_hpd_powers_of_a_stack_are_bitwise_those_of_single_calls():
    for p in (1, 2):
        stack = np.stack(_kernel_inputs(p)[::3])
        values = matcore.hpd_powers(stack, _POWERS)
        for k, M in enumerate(stack):
            alone = matcore.hpd_powers(M, _POWERS)
            assert all(np.array_equal(X[k], Y) for X, Y in zip(values, alone))
            # a power's value does not depend on the others asked for
            assert all(np.array_equal(matcore.hpd_powers(M, (q,))[0], Y) for q, Y in zip(_POWERS, alone))


@pytest.mark.parametrize(
    "bad, error, inverse_text, root_text",
    [
        (np.diag([1.0, -1.0]), NotPositiveDefinite, _PIVOT, "smallest eigenvalue -1.000e+00 is not positive"),
        (np.array([[-1.0]]), NotPositiveDefinite, _PIVOT, "smallest eigenvalue -1.000e+00 is not positive"),
        (np.ones((2, 2)), NotPositiveDefinite, _PIVOT, "smallest eigenvalue 0.000e+00 is not positive"),
        (np.zeros((1, 1)), NotPositiveDefinite, _PIVOT, "smallest eigenvalue 0.000e+00 is not positive"),
        (np.diag([1.0, np.nan]), NonFiniteEntries, *["matrix entries must be finite"] * 2),
        (np.array([[np.nan]]), NonFiniteEntries, *["matrix entries must be finite"] * 2),
        (np.array([[1.0, 1.0], [-1.0, 1.0]]), NotHermitian, *["matrix is not Hermitian (max deviation 2.000e+00)"] * 2),
        (np.array([[1.0 + 1.0j]]), NotHermitian, *["matrix is not Hermitian (max deviation 2.000e+00)"] * 2),
    ],
    ids=["indefinite-2", "indefinite-1", "singular-2", "singular-1", "nan-2", "nan-1", "skew-2", "skew-1"],
)
def test_hpd_powers_refuse_at_sizes_one_and_two(bad, error, inverse_text, root_text):
    stack = np.stack([np.eye(len(bad)), bad, bad])
    for powers, text in [((-1,), inverse_text), ((0.5,), root_text), ((-0.5,), root_text), (_POWERS, root_text)]:
        with pytest.raises(error) as alone:
            matcore.hpd_powers(bad, powers)
        assert str(alone.value) == text
        with pytest.raises(error) as stacked:
            matcore.hpd_powers(stack, powers)
        assert str(stacked.value) == "matrix 1 of the stack: " + text


def test_hpd_powers_refuse_an_inverse_past_the_largest_double():
    # 1e-310 I: its inverse overflows, its roots do not
    for M in (np.array([[1e-310]]), 1e-310 * np.eye(2)):
        with pytest.raises(NonFiniteEntries, match="^matrix entries must be finite$"):
            matcore.inv_hpd(M)
        with pytest.raises(NonFiniteEntries, match="^matrix 1 of the stack: matrix entries must be finite$"):
            matcore.inv_hpd(np.stack([np.eye(len(M)), M]))
        root, inverse_root = matcore.hpd_powers(M, (0.5, -0.5))
        assert_allclose(root, 1e-155 * np.eye(len(M)), rtol=1e-6)
        assert_allclose(inverse_root, 1e155 * np.eye(len(M)), rtol=1e-6)


def test_inv_hpd_roundtrip(rng):
    M = random_hpd(7, 4)
    assert_allclose(matcore.inv_hpd(M) @ M, np.eye(4), atol=1e-12)


def test_exchange_and_signature_blocks():
    J = matcore.exchange_J(2)
    j = matcore.signature_j(2)
    assert_allclose(J @ J, np.eye(4), atol=0)
    assert_allclose(j @ j, np.eye(4), atol=0)
    a, b, c, d = matcore.blocks2x2(J, 2)
    assert_allclose(a, np.zeros((2, 2)), atol=0)
    assert_allclose(b, np.eye(2), atol=0)


def test_tolerance_scale_env(monkeypatch):
    monkeypatch.setenv("SNODELAB_TOL", "10")
    assert matcore.tolerance_scale() == 10.0
    base = matcore.default_tol(np.eye(2))
    assert base == pytest.approx(10 * 1e-10 * 2.0)


def dense_bottom_rows(S, Pi, p, k):
    """Bottom block row of S(k)^{-1} [E_k  Pi(k)], E_k the unit block column:
    the reference [t_k  row_k] for :func:`matcore.leading_chain`."""
    unit = np.zeros((k * p, p), dtype=complex)
    unit[(k - 1) * p :] = np.eye(p)
    sol = np.linalg.solve(S[: k * p, : k * p], np.hstack([unit, Pi[: k * p]]))
    return sol[(k - 1) * p :]


def leading_chain_errors(node, p):
    """Per order: relative error of [t_k  row_k] against the dense solve, and
    of the Gram identity row_k* t_k^{-1} row_k = G_k* G_k."""
    L = node.S_chol.factor
    ts, rows, Gs = matcore.leading_chain(L, matcore.diagonal_inverses(L, p), node.Pi)
    for k, (t, row, G) in enumerate(zip(ts, rows, Gs), start=1):
        ref = dense_bottom_rows(node.S, node.Pi, p, k)
        got = np.hstack([t, row])
        gram = row.conj().T @ np.linalg.solve(t, row)
        yield (
            k,
            np.linalg.norm(got - ref) / np.linalg.norm(ref),
            np.linalg.norm(G.conj().T @ G - gram) / np.linalg.norm(gram),
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3]), st.integers(1, 16))
def test_leading_chain_matches_dense_solve_toeplitz(seed, p, n):
    spec = sampling.random_toeplitz_spec(np.random.default_rng(seed), p=p, n=n)
    for _, rel, gram_rel in leading_chain_errors(toeplitz.build_toeplitz_node(spec), p):
        assert rel <= 1e-12
        assert gram_rel <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(1, 6))
def test_leading_chain_matches_dense_solve_hankel(seed, p, n):
    spec = sampling.random_hankel_spec(np.random.default_rng(seed), p=p, n=n)
    node = hankel.build_hankel_node(spec)
    eps = np.finfo(float).eps
    for k, rel, _ in leading_chain_errors(node, p):
        assert rel <= 10 * eps * np.linalg.cond(node.S[: k * p, : k * p])


@pytest.mark.parametrize("p, n, seed", [(2, 5, 99), (1, 5, 148), (2, 4, 8)])
def test_leading_chain_matches_dense_solve_hankel_fixed(p, n, seed):
    # specs on which a pivoted solve with the Cholesky factor, in place of the
    # block forward substitution, misses the bound by a factor 16 to 23
    spec = sampling.random_hankel_spec(np.random.default_rng(seed), p=p, n=n)
    node = hankel.build_hankel_node(spec)
    eps = np.finfo(float).eps
    for k, rel, _ in leading_chain_errors(node, p):
        assert rel <= 10 * eps * np.linalg.cond(node.S[: k * p, : k * p])


@pytest.mark.parametrize("p, n", [(1, 5), (2, 4), (3, 3)])
def test_block_forward_solves_with_l_and_keeps_each_leading_block_row(p, n):
    rng = np.random.default_rng(10 * p + n)
    L = matcore.cholesky_pd(sampling.random_hpd(rng, n * p)).factor
    B = sampling.random_complex(rng, (n * p, 2))
    X = matcore.block_forward(L, matcore.diagonal_inverses(L, p), B)
    assert matcore.frobenius(L @ X - B) <= 1e-13 * matcore.frobenius(B)
    for k in range(1, n):
        mk = k * p
        head = matcore.block_forward(L[:mk, :mk], matcore.diagonal_inverses(L[:mk, :mk], p), B[:mk])
        assert np.array_equal(head, X[:mk])


def test_leading_chain_reports_first_failing_order_block():
    # S(1) and S(2) are positive definite; s_{-2} = 2 I makes S(3) indefinite
    eye = np.eye(2, dtype=complex)
    spec = toeplitz.ToeplitzSpec(
        p=2, n=4, s=(eye, 0.1 * eye, 2.0 * eye, 0.3 * eye), nu=np.zeros((2, 2))
    )
    node = toeplitz.build_toeplitz_node(spec)
    with pytest.raises(NotPositiveDefinite) as err:
        matcore.leading_chain(node.S_chol.factor, node.S_diag_inv, node.Pi)
    assert err.value.order == 3


_EPS = np.finfo(float).eps
_FAMILIES = ("generic", "scaled_unitary", "rank_one", "zero_column", "zero", "wide")


def _family_stack(rng, family, p, count=40):
    """``count`` p x p complex matrices of one family; "wide" has entries of
    moduli from 1e-150 to 1e150, each matrix at its own scale."""
    M = rng.standard_normal((count, p, p)) + 1j * rng.standard_normal((count, p, p))
    scale = 10.0 ** rng.uniform(-150.0, 150.0, (count, 1, 1))
    if family == "scaled_unitary":
        M = np.linalg.qr(M)[0] * scale
    elif family == "rank_one":
        M = M[:, :, :1] @ M[:, :1, :] * scale
    elif family == "zero_column":
        M[:, :, int(rng.integers(p))] = 0.0
    elif family == "zero":
        M[:] = 0.0
    elif family == "wide":
        M = M * 10.0 ** rng.uniform(-75.0, 75.0, (count, p, p)) * scale ** 0.5
    return M


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_FAMILIES), st.integers(1, 2))
def test_closed_form_singular_values_match_lapack(seed, family, p):
    stack = _family_stack(np.random.default_rng(seed), family, p)
    smin, smax = matcore.singular_extremes(stack)
    sv = np.linalg.svd(stack, compute_uv=False)
    assert np.all(np.abs(smax - sv[:, 0]) <= 16.0 * _EPS * sv[:, 0])
    assert np.all(np.abs(smin - sv[:, -1]) <= 16.0 * _EPS * sv[:, 0])
    norms = matcore.spectral_norm(stack)
    assert np.array_equal(norms, smax)
    assert matcore.spectral_norm(stack[0]) == smax[0] and np.ndim(matcore.spectral_norm(stack[0])) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_FAMILIES), st.integers(1, 2), st.booleans())
def test_closed_form_hermitian_eigenvalues_match_lapack(seed, family, p, gram):
    M = _family_stack(np.random.default_rng(seed), family, p)
    if gram:  # as lft_stack forms R*R + Q*Q
        H = np.swapaxes(M, 1, 2).conj() @ M
    else:
        H = (M + np.swapaxes(M, 1, 2).conj()) / 2.0
    lo, hi = matcore.hermitian_extremes(H)
    w = np.linalg.eigvalsh(H)
    scale = np.abs(w).max(axis=1)
    assert np.all(np.abs(lo - w[:, 0]) <= 16.0 * _EPS * scale)
    assert np.all(np.abs(hi - w[:, -1]) <= 16.0 * _EPS * scale)


def test_closed_forms_keep_close_singular_values_apart():
    # a scaled unitary has sigma_min = sigma_max; the textbook
    # sigma^2 = (s +- sqrt(s^2 - 4 |det|^2)) / 2 reads them 1e-8 apart
    rng = np.random.default_rng(7)
    U = np.linalg.qr(rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2)))[0]
    smin, smax = matcore.singular_extremes(3.0 * U)
    assert np.all(np.abs(smin - 3.0) <= 8 * _EPS * 3.0) and np.all(np.abs(smax - 3.0) <= 8 * _EPS * 3.0)


def test_p3_extremes_are_lapacks():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    sv = np.linalg.svd(M, compute_uv=False)
    assert all(np.array_equal(a, b) for a, b in zip(matcore.singular_extremes(M), (sv[:, -1], sv[:, 0])))
    assert np.array_equal(matcore.spectral_norm(M), np.linalg.norm(M, 2, axis=(1, 2)))
    H = np.swapaxes(M, 1, 2).conj() @ M
    w = np.linalg.eigvalsh(H)
    assert all(np.array_equal(a, b) for a, b in zip(matcore.hermitian_extremes(H), (w[:, 0], w[:, -1])))


def test_power_of_two_scale_brings_the_largest_entry_into_a_half_to_one():
    stack = np.zeros((4, 2, 2), dtype=complex)
    stack[0, 1, 0] = 3.0 - 4.0j  # modulus 5
    stack[1] = 1e300
    stack[2, 0, 1] = 5e-310  # subnormal
    s = matcore.power_of_two_scale(stack)
    assert np.array_equal(s, [0.125, 2.0**-997, 2.0**1023, 1.0])
    peaks = np.abs(stack * s[:, None, None]).max(axis=(1, 2))
    assert np.all((peaks[:2] >= 0.5) & (peaks[:2] < 1.0))


@pytest.mark.parametrize("seed", range(10))
def test_one_factor_solves_a_stack_as_per_matrix_solves_bitwise(seed):
    rng = np.random.default_rng(seed)
    m, count, k = int(rng.integers(1, 49)), int(rng.integers(1, 26)), int(rng.integers(1, 7))
    pd = matcore.cholesky_pd(random_hpd(seed, m))
    rhs = rng.standard_normal((count, m, k)) + 1j * rng.standard_normal((count, m, k))
    stacked = pd.solve(rhs)
    assert stacked.shape == rhs.shape
    assert all(np.array_equal(stacked[i], pd.solve(rhs[i])) for i in range(count))


@pytest.mark.parametrize("seed", range(10))
def test_stacked_norms_and_eigenvalues_are_the_per_matrix_values_bitwise(seed):
    rng = np.random.default_rng(seed)
    count, size = int(rng.integers(1, 20)), int(rng.integers(1, 7))
    shape = (count, size, size)
    M = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-12, 3)
    H = M + M.conj().swapaxes(1, 2)
    assert np.array_equal(matcore.frobenius(M), [matcore.frobenius(m) for m in M])
    assert np.array_equal(matcore.min_eig_hermitian(H), [matcore.min_eig_hermitian(h) for h in H])
    assert matcore.frobenius(M[:0]).shape == (0,)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "a, r, c, d, count",
    [(2, 2, 2, 2, 7), (3, 2, 4, 5, 9), (1, 4, 3, 2, 5), (6, 6, 6, 6, 11), (2, 2, 2, 2, 0), (6, 6, 6, 6, 0)],
)
def test_sandwich_is_the_per_matrix_product(a, r, c, d, count):
    # non-square factors, p = 3 (6 x 6), and empty stacks
    rng = np.random.default_rng(a * 100 + r * 10 + c + count)
    A, B, stack = _complex(rng, a, r), _complex(rng, c, d), _complex(rng, count, r, c)
    for left, right in ((A, B), (A, None), (None, B), (None, None)):
        L = np.eye(r) if left is None else left
        R = np.eye(c) if right is None else right
        want = np.array([L @ s @ R for s in stack]).reshape(count, len(L), R.shape[1])
        got = matcore.sandwich(left, stack, right)
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=1e-14, atol=1e-14 * (1.0 + np.abs(want).max(initial=0.0)))
    # one matrix, and a stack with two leading axes, keep their shapes
    one = stack[0] if count else np.ones((r, c))
    assert_allclose(matcore.sandwich(A, one, B), A @ one @ B, rtol=1e-14)
    deep = _complex(rng, 2, 3, r, c)
    assert np.array_equal(matcore.sandwich(A, deep, B), matcore.sandwich(A, deep.reshape(6, r, c), B).reshape(2, 3, a, d))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 300), st.data())
def test_sandwich_value_of_a_matrix_does_not_depend_on_its_stack(seed, p, count, data):
    # what matcore.in_chunks needs of a batched evaluator
    rng = np.random.default_rng(seed)
    A, B, stack = _complex(rng, 2 * p, 2 * p), _complex(rng, 2 * p, 2 * p), _complex(rng, count, 2 * p, 2 * p)
    lo = data.draw(st.integers(0, count - 1))
    hi = data.draw(st.integers(lo + 1, count))
    for left, right in ((A, B), (A, None), (None, B)):
        full = matcore.sandwich(left, stack, right)
        assert np.array_equal(full[lo:hi], matcore.sandwich(left, stack[lo:hi], right))
        assert np.array_equal(full[lo], matcore.sandwich(left, stack[lo], right))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_sandwich_of_one_row_is_its_row_of_a_stack(p):
    # the p x 2p rows of khrushchev_check's tails: at p = 1 a chunk of one
    # point is one row, which numpy would take to a vector product
    rng = np.random.default_rng(70 + p)
    B, batch = _complex(rng, 2 * p, 2 * p), _complex(rng, 3, 2 * p, 2 * p)
    rows = _complex(rng, 3, 40, p, 2 * p)
    full, batched = matcore.sandwich(None, rows[0], B), matcore.sandwich(None, rows, batch)
    cols = rows[0].swapaxes(1, 2)
    left = matcore.sandwich(B, cols, None)
    for k in range(40):
        assert np.array_equal(matcore.sandwich(None, rows[0, k : k + 1], B), full[k : k + 1])
        assert np.array_equal(matcore.sandwich(None, rows[:, k : k + 1], batch), batched[:, k : k + 1])
        assert np.array_equal(matcore.sandwich(B, cols[k], None), left[k])
