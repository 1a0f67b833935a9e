"""Tests for the two stages of the Jacobi oracle: Householder front end and real Jacobi."""

import numpy as np
import pytest

from exactspin import brute_diagonalize
from exactspin.spectrum import (
    JACOBI_MAX_SWEEPS,
    ORACLE_MAX_DIM,
    _jacobi,
    _round_robin,
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
