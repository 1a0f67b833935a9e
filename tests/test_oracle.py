"""Tests for the two stages of the Jacobi oracle: Householder front end and real Jacobi."""

import numpy as np
import pytest

from exactspin import (
    HalfInt,
    ModelParams,
    brute_diagonalize,
    energy_values,
    model_hamiltonian,
    operator_matrix,
    spectrum,
)
from exactspin.spectrum import (
    _LEAF,
    JACOBI_MAX_SWEEPS,
    ORACLE_MAX_DIM,
    _divide_conquer,
    _jacobi,
    _jacobi_tables,
    _merge,
    _round_robin,
    _tree,
    _tridiagonalize,
)


def _random_hermitian(rng, n, kind="complex", scale=1.0):
    b = rng.normal(size=(n, n))
    if kind == "complex":
        b = b + 1j * rng.normal(size=(n, n))
    return scale * (b + b.conj().T) / 2


def _assert_certified(h, w, v):
    n = h.shape[0]
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h @ v - v * w[None, :])) < 1e-9 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-9
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-9 * scale)


def _one_matrix_real_jacobi(diag, off, stop):
    """The loop _jacobi batches: one tridiagonal, index order, kept pairs only."""
    n = diag.size
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    v = np.eye(n)
    for sweep in range(JACOBI_MAX_SWEEPS):
        off_norm = np.sqrt(np.sum((a - np.diag(np.diag(a))) ** 2))
        if off_norm <= stop:
            break
        thresh = off_norm / (n * n) if sweep < 3 else 0.0
        for p, q in _round_robin(n):
            keep = np.abs(a[p, q]) > thresh
            p, q = p[keep], q[keep]
            if not p.size:
                continue
            d = a[p, p] - a[q, q]
            angle = 0.5 * np.arctan2(a[p, q] * np.copysign(2.0, d), np.abs(d))
            c, s = np.cos(angle), np.sin(angle)
            # A <- R·A·Rᵀ and V <- V·Rᵀ with R = [[c, s], [-s, c]] on each pair (p, q)
            row_p, row_q = a[p].copy(), a[q].copy()
            a[p] = c[:, None] * row_p + s[:, None] * row_q
            a[q] = c[:, None] * row_q - s[:, None] * row_p
            for m in (a, v):
                col_p, col_q = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * col_p + s * col_q
                m[:, q] = c * col_q - s * col_p
            a[p, q] = 0.0
            a[q, p] = 0.0
    return np.diag(a).copy(), v


@pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 30])
def test_tridiagonalize_gives_a_real_tridiagonal_similar_to_the_input(n):
    h = _random_hermitian(np.random.default_rng(500 + n), n)
    diag, off, qd = _tridiagonalize(h[None])
    assert diag.shape == (1, n) and off.shape == (1, max(n - 1, 0)) and qd.shape == (1, n, n)
    assert np.all(off >= 0.0)
    t = np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0], -1)
    np.testing.assert_allclose(qd[0].conj().T @ h @ qd[0], t, atol=1e-12 * np.max(np.abs(h)))
    assert np.max(np.abs(qd[0].conj().T @ qd[0] - np.eye(n))) < 1e-13


@pytest.mark.parametrize("n", [2, 7, 20, 33])
def test_jacobi_follows_the_one_matrix_loop(n):
    # the seatings, the batched 2x2 products and the transposed column update
    # perform the plain loop's rotations: equal to rounding, not to the bit
    rng = np.random.default_rng(600 + n)
    diag = rng.normal(size=n)
    off = np.abs(rng.normal(size=n - 1))
    stop = max(np.max(np.abs(diag)), np.max(off, initial=0.0)) * 1e-14
    w, v = _jacobi(diag[None], off[None], np.array([stop]))
    w_ref, v_ref = _one_matrix_real_jacobi(diag, off, stop)
    assert w.shape == (1, n) and v.shape == (1, n, n)
    np.testing.assert_allclose(w[0], w_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v[0], v_ref, rtol=0, atol=1e-11)


def test_block_diagonal_input_keeps_each_eigenvector_on_its_block():
    # the subdiagonal entry at (7, 6) is zero, so the Householder front end
    # leaves the blocks apart and D restarts its phase chain at the second block
    rng = np.random.default_rng(47)
    first = _random_hermitian(rng, 7, "complex")
    second = _random_hermitian(rng, 6, "real")
    h = np.zeros((13, 13), dtype=complex)
    h[:7, :7] = first
    h[7:, 7:] = second
    w, v = brute_diagonalize(h)
    _assert_certified(h, w, v)
    on_first = np.any(v[:7] != 0.0, axis=0)
    on_second = np.any(v[7:] != 0.0, axis=0)
    assert on_first.sum() == 7 and on_second.sum() == 6
    assert not np.any(on_first & on_second)
    # a real block keeps real eigenvectors: no phase leaks in from the block above
    assert np.all(v[:, on_second].imag == 0.0)
    np.testing.assert_allclose(w[on_first], np.linalg.eigvalsh(first), atol=1e-12)
    np.testing.assert_allclose(w[on_second], np.linalg.eigvalsh(second), atol=1e-12)


@pytest.mark.parametrize("n", [7, 61])
def test_odd_dimensions_leave_no_trace_of_the_dummy_index(n):
    rng = np.random.default_rng(700 + n)
    h = _random_hermitian(rng, n)
    w, v = brute_diagonalize(h)
    assert w.shape == (n,) and v.shape == (n, n)
    _assert_certified(h, w, v)
    stack = np.stack([h, _random_hermitian(rng, n, "real", 1e3)])
    ws, vs = brute_diagonalize(stack)
    assert ws.shape == (2, n) and vs.shape == (2, n, n)
    assert np.array_equal(ws[0], w) and np.array_equal(vs[0], v)
    _assert_certified(stack[1], ws[1], vs[1])


def test_certified_at_the_dimension_cap():
    h = _random_hermitian(np.random.default_rng(71), ORACLE_MAX_DIM)
    w, v = brute_diagonalize(h)
    assert w.shape == (ORACLE_MAX_DIM,)
    _assert_certified(h, w, v)


def test_oracle_calls_nothing_in_numpy_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call numpy.linalg")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    h = _random_hermitian(np.random.default_rng(73), 9)
    w, v = brute_diagonalize(np.stack([h, h.real]))
    monkeypatch.undo()
    _assert_certified(h, w[0], v[0])


# --- divide and conquer: every n > _LEAF -----------------------------------


def _assert_tight(h, w, v, tol=1e-13):
    """Residual and orthogonality to tol of the scale, eigenvalues ascending."""
    n = h.shape[0]
    scale = np.max(np.abs(h))
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert np.max(np.abs(h @ v - v * w[None, :])) <= tol * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= tol
    assert np.all(np.diff(w) >= 0)


def test_leaf_size_keeps_verify_stacks_on_the_jacobi_path(monkeypatch):
    assert _LEAF >= 21
    calls = []
    monkeypatch.setattr(spectrum, "_divide_conquer",
                        lambda *args: calls.append(args) or _divide_conquer(*args))
    brute_diagonalize(np.stack([_random_hermitian(np.random.default_rng(80), 21)] * 2))
    brute_diagonalize(_random_hermitian(np.random.default_rng(81), _LEAF))
    assert not calls
    brute_diagonalize(_random_hermitian(np.random.default_rng(82), _LEAF + 1))
    assert len(calls) == 1


def test_leaves_are_solved_in_one_jacobi_call_per_size(monkeypatch):
    sizes = []
    monkeypatch.setattr(spectrum, "_jacobi",
                        lambda diag, *rest: sizes.append(diag.shape) or _jacobi(diag, *rest))
    levels = _tree(201)
    leaves = [stop - start for level in levels for start, stop in level if stop - start <= _LEAF]
    assert sum(leaves) == 201 and max(leaves) <= _LEAF
    w, v = brute_diagonalize(np.stack([_random_hermitian(np.random.default_rng(83), 201)] * 2))
    assert sorted(sizes) == sorted((2 * leaves.count(size), size) for size in set(leaves))
    assert np.array_equal(w[0], w[1]) and np.array_equal(v[0], v[1])


def test_padded_stack_is_exact_on_the_divide_and_conquer_path():
    rng = np.random.default_rng(84)
    dims = (1, 7, 30, 45, 61)
    n = 61
    members = [_random_hermitian(rng, k, kind) for k, kind in zip(dims, ("real", "complex") * 3)]
    stack = np.zeros((len(dims), n, n), dtype=complex)
    for h, m in zip(stack, members):
        h[:len(m), :len(m)] = m
    w, v = brute_diagonalize(stack)
    for m, w_i, v_i in zip(members, w, v):
        k = len(m)
        own = np.any(v_i[:k] != 0.0, axis=0)
        assert own.sum() == k
        # pad eigenvalues are exactly 0.0 on exact unit vectors, in index order
        assert np.all(w_i[~own] == 0.0)
        assert np.array_equal(v_i[:, ~own], np.eye(n)[:, k:])
        assert np.all(v_i[k:, own] == 0.0)
        _assert_tight(m, w_i[own], v_i[:k, own])


def _three_copies():
    block = _random_hermitian(np.random.default_rng(85), 30)
    h = np.zeros((90, 90), dtype=complex)
    for i in range(3):
        h[30 * i:30 * i + 30, 30 * i:30 * i + 30] = block
    return h, np.repeat(np.linalg.eigvalsh(block), 3)


@pytest.mark.parametrize("case", ["jx100", "jx200", "three_copies", "two_identity", "theta_1e-9"])
def test_divide_and_conquer_on_degenerate_spectra(case):
    if case.startswith("jx"):
        twice_j = int(case[2:])
        h = operator_matrix(HalfInt(twice_j), "Jx")
        expected = np.arange(-twice_j / 2, twice_j / 2 + 1)
    elif case == "three_copies":
        h, expected = _three_copies()
    elif case == "two_identity":
        h = 2.0 * np.eye(80, dtype=complex)
        expected = np.full(80, 2.0)
    else:
        # E_m = 0.5·m² is doubly degenerate, and θ = 1e-9 leaves h nearly diagonal
        params = ModelParams.quadratic(0.0, 0.5, 1e-9, 0.3)
        h = model_hamiltonian(params, HalfInt(100))
        expected = np.sort(energy_values(params, HalfInt(100)))
    w, v = brute_diagonalize(h)
    _assert_tight(h, w, v)
    np.testing.assert_allclose(w, np.sort(expected), rtol=0, atol=1e-13 * np.max(np.abs(h)))


@pytest.mark.parametrize("n", [64, 200])
def test_mirror_symmetric_tridiagonal_deflates_by_rotation(n):
    # the halves of the second-difference matrix share their spectra, so every
    # merge meets pairs of equal poles that only a Givens rotation separates
    h = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    w, v = brute_diagonalize(h)
    _assert_tight(h, w, v)
    exact = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    np.testing.assert_allclose(w, exact, rtol=0, atol=1e-14)


def test_leaves_rotate_couplings_below_the_jacobi_tolerance():
    # every coupling (3e-15) sits below JACOBI_TOL; the leaves still rotate
    # them away, down to the tolerance of the merges
    n = 201
    h = np.diag(np.linspace(-1.0, 1.0, n)) + 3e-15 * (np.eye(n, k=1) + np.eye(n, k=-1))
    w, v = brute_diagonalize(h)
    _assert_tight(h, w, v, tol=1e-16)


def test_mixed_stack_gives_each_member_the_bits_of_its_own_call():
    rng = np.random.default_rng(86)
    members = [_random_hermitian(rng, 61, kind, scale)
               for kind, scale in (("complex", 1e-3), ("real", 1.0), ("complex", 1e3))]
    w, v = brute_diagonalize(np.stack(members))
    for h, w_i, v_i in zip(members, w, v):
        _assert_tight(h, w_i, v_i)
        w_one, v_one = brute_diagonalize(h)
        assert np.array_equal(w_i, w_one)
        assert np.array_equal(v_i, v_one)


def _reflector_onto(z, row):
    """A symmetric orthogonal matrix whose given row is the unit vector z."""
    e = np.zeros_like(z)
    e[row] = 1.0
    u = e - z
    return np.eye(z.size) - 2.0 * np.outer(u, u) / (u @ u)


def test_secular_root_next_to_a_pole_with_tiny_weight():
    # |z_i| ~ 1e-12 is far above the deflation tolerance, and its root sits
    # about rho·z_i² ~ 1e-24 from its pole: an offset that only a stop on
    # |delta| resolves; a stop relative to |λ| leaves a residual of ~|z_i|
    rng = np.random.default_rng(87)
    k = 30
    d1, d2 = np.sort(rng.normal(size=k)), np.sort(rng.normal(size=k + 1))
    z1, z2 = rng.normal(size=k), rng.normal(size=k + 1)
    z1[5] = 1e-12
    z2[17] = -3e-12
    q1 = _reflector_onto(z1 / np.linalg.norm(z1), k - 1)
    q2 = _reflector_onto(z2 / np.linalg.norm(z2), 0)
    rho = 0.7
    w, v = _merge(d1[None], q1[None], d2[None], q2[None], np.array([rho]))
    t = np.zeros((2 * k + 1, 2 * k + 1))
    t[:k, :k] = q1 @ np.diag(d1) @ q1.T
    t[k:, k:] = q2 @ np.diag(d2) @ q2.T
    t[k - 1:k + 1, k - 1:k + 1] += rho
    _assert_tight(t, np.sort(w[0]), v[0][:, np.argsort(w[0], kind="stable")], tol=1e-14)


def test_divide_and_conquer_calls_nothing_in_numpy_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call numpy.linalg")

    h = _random_hermitian(np.random.default_rng(88), 101)
    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    w, v = brute_diagonalize(np.stack([h, h.real]))
    monkeypatch.undo()
    _assert_tight(h, w[0], v[0])
    _assert_tight(h.real, w[1], v[1])


# --- robustness of both paths -----------------------------------------------


def test_jacobi_round_tables_are_cached_read_only():
    for n in (2, 7, 12, 13, 21):
        first, second = _jacobi_tables(n), _jacobi_tables(n)
        assert first is second
        seat, pick, rounds = first
        tables = [seat, pick] + [t for r in rounds for t in r]
        assert not any(t.flags.writeable for t in tables)
        with pytest.raises(ValueError):
            seat[0] = 1
    diag = np.random.default_rng(89).normal(size=(3, 13))
    off = np.abs(np.random.default_rng(90).normal(size=(3, 12)))
    stop = np.full(3, 1e-14)
    w1, v1 = _jacobi(diag, off, stop)
    w2, v2 = _jacobi(diag, off, stop)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_jacobi_that_runs_out_of_sweeps_raises(monkeypatch):
    monkeypatch.setattr(spectrum, "JACOBI_MAX_SWEEPS", 1)
    h = _random_hermitian(np.random.default_rng(91), 30)
    with pytest.raises(RuntimeError, match=r"member 0 has off-diagonal norm \S+ > stop \S+"):
        brute_diagonalize(h)
    with pytest.raises(RuntimeError, match=r"member 1 has off-diagonal norm"):
        brute_diagonalize(np.stack([np.diag(np.arange(9.0)), h[:9, :9]]))


def _certified_at_scale(h, w, v):
    # subnormal arithmetic is coarse, so certify the problem moved by the exact
    # power of two that brings its largest entry to [1, 2)
    power = 1 - np.frexp(np.max(np.abs(h)))[1]
    _assert_tight(np.ldexp(h.real, power) + 1j * np.ldexp(h.imag, power), np.ldexp(w, power), v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [1e-310, 1e-320])
@pytest.mark.parametrize("twice_j", [4, 40])
def test_subnormal_couplings_give_finite_certified_results(theta, twice_j):
    params = ModelParams.quadratic(1.0, 0.5, theta, 0.3)
    with np.errstate(under="ignore"):
        h = model_hamiltonian(params, HalfInt(twice_j))
    w, v = brute_diagonalize(h)
    _certified_at_scale(h, w, v)
    np.testing.assert_allclose(w, np.sort(energy_values(params, HalfInt(twice_j))),
                               rtol=0, atol=1e-13 * np.max(np.abs(h)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [
    np.array([[0.0, 5e-324], [5e-324, 0.0]]),
    1e-310 * operator_matrix(HalfInt(60), "Jx"),
    1e308 * operator_matrix(HalfInt(2), "Jx"),
    1e306 * operator_matrix(HalfInt(40), "Jy"),
    # a column tail whose squares underflow gets no reflection
    np.diag([1.0, 2.0, 3.0]) + 1e-170 * (np.eye(3, k=2) + np.eye(3, k=-2)),
], ids=["2x2-5e-324", "jx61-1e-310", "jx3-1e308", "jy41-1e306", "tail-1e-170"])
def test_extreme_magnitudes_give_finite_certified_results(h):
    w, v = brute_diagonalize(h)
    _certified_at_scale(h, w, v)
