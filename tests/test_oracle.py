"""Tests for the two stages of the oracle: Householder front end and divide and conquer."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactspin import (
    FockSector,
    HalfInt,
    ModelParams,
    RotationAngles,
    brute_diagonalize,
    energy_values,
    fock_hamiltonian,
    model_hamiltonian,
    operator_matrix,
    spectrum,
    two_mode_coefficients,
)
from exactspin.spectrum import (
    _PANEL,
    _WIDE,
    ORACLE_MAX_DIM,
    _merge,
    _tree,
    _tridiagonalize,
)
from exactspin.verify import _random_params


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


@pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 30])
def test_tridiagonalize_gives_a_real_tridiagonal_similar_to_the_input(n):
    h = _random_hermitian(np.random.default_rng(500 + n), n)
    diag, off, qd = _tridiagonalize(h[None])
    assert diag.shape == (1, n) and off.shape == (1, max(n - 1, 0)) and qd.shape == (1, n, n)
    assert np.all(off >= 0.0)
    t = np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0], -1)
    np.testing.assert_allclose(qd[0].conj().T @ h @ qd[0], t, atol=1e-12 * np.max(np.abs(h)))
    assert np.max(np.abs(qd[0].conj().T @ qd[0] - np.eye(n))) < 1e-13


# sizes around the panels: n - 2 reflectors against Q's panel of _PANEL // 2 (up to
# _WIDE rows) and the reduction's _PANEL and Q's 2·_PANEL (above it)
_SMALL_PANEL, _BIG_PANEL = _PANEL // 2, 2 * _PANEL
PANEL_SIZES = sorted({1, 2, 3}
                     | {r + 2 for r in (_SMALL_PANEL - 1, _SMALL_PANEL, _SMALL_PANEL + 1,
                                        2 * _SMALL_PANEL + 1)}
                     | {r + 2 for r in (_BIG_PANEL - 1, _BIG_PANEL, _BIG_PANEL + 1,
                                        2 * _BIG_PANEL - 1, 2 * _BIG_PANEL, 2 * _BIG_PANEL + 1,
                                        5 * _PANEL, 5 * _PANEL + 1)
                        if r + 2 > _WIDE})


@pytest.mark.parametrize("n", PANEL_SIZES)
def test_tridiagonalize_around_the_panel_widths(n):
    rng = np.random.default_rng(600 + n)
    stack = np.stack([_random_hermitian(rng, n), _random_hermitian(rng, n, "real", 1e3),
                      _random_hermitian(rng, n, "complex", 1e-3)])
    diag, off, qd = _tridiagonalize(stack)
    assert np.all(off >= 0.0)
    for i, h in enumerate(stack):
        scale = np.max(np.abs(h))
        assert np.max(np.abs(qd[i].conj().T @ qd[i] - np.eye(n))) <= 1e-14 * max(n, 10)
        t = qd[i].conj().T @ h @ qd[i]
        tridiagonal = np.diag(diag[i]) + np.diag(off[i], 1) + np.diag(off[i], -1)
        assert np.max(np.abs(t - tridiagonal)) <= 1e-14 * max(n, 10) * scale
        d_one, off_one, qd_one = _tridiagonalize(h[None])
        assert np.array_equal(d_one[0], diag[i]) and np.array_equal(off_one[0], off[i])
        assert np.array_equal(qd_one[0], qd[i])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_an_empty_stack_gives_empty_results(n):
    w, v = brute_diagonalize(np.zeros((0, n, n)))
    assert w.shape == (0, n) and v.shape == (0, n, n)


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


def test_oracle_peak_at_dim_201_stays_below_seven_complex_squares():
    # the reflectors live in the reduced matrix's spent upper rows, Q is scaled by D in
    # place and the secular solve keeps only its per-root rows and one slope table; a
    # separate reflector array and the pole, weight and slope copies peak near eight
    n = 201
    h = _random_hermitian(np.random.default_rng(71), n)
    brute_diagonalize(np.eye(3))  # warm-up
    tracemalloc.start()
    try:
        brute_diagonalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 16 * n**2


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


# --- divide and conquer ------------------------------------------------------

# a bound on the steps of any merge's secular equation on the confrontation
# models: they take at most 4, 4 and 4 at dims 61, 101 and 201, and the margin
# covers the last steps, which rounding noise decides
SECULAR_STEPS_BOUND = 10


def _assert_tight(h, w, v, tol=1e-13):
    """Residual and orthogonality to tol of the scale, eigenvalues ascending."""
    n = h.shape[0]
    scale = np.max(np.abs(h))
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert np.max(np.abs(h @ v - v * w[None, :])) <= tol * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= tol
    assert np.all(np.diff(w) >= 0)


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


def _verify_shaped_stack(kind):
    """verify's two oracle stacks: 40 random draws zero-padded together, or its two-mode pair."""
    if kind == "two_mode":
        params = ModelParams.quadratic(1.0, 0.3, theta=1.1, phi=0.7)
        sector = FockSector(6)
        h_fock = fock_hamiltonian(two_mode_coefficients(params, 6), sector, "standard", phi=0.7)
        return np.stack([h_fock, model_hamiltonian(params, sector.j)]), [7, 7]
    rng = random.Random(0)
    drawn = [(_random_params(rng), HalfInt(rng.randint(1, 20))) for _ in range(40)]
    dims = [j.twice + 1 for _, j in drawn]
    stack = np.zeros((40, max(dims), max(dims)), dtype=complex)
    for h, (params, j), k in zip(stack, drawn, dims):
        h[:k, :k] = model_hamiltonian(params, j)
    return stack, dims


@pytest.mark.parametrize("kind, shape", [("draws", (40, 21, 21)), ("two_mode", (2, 7, 7))],
                         ids=["draws", "two_mode"])
def test_verify_shaped_stacks_go_through_the_tree_exactly(monkeypatch, kind, shape):
    stack, dims = _verify_shaped_stack(kind)
    assert stack.shape == shape
    n = shape[-1]
    sizes = []

    def merge(*args):
        sizes.append(args[0].shape[1] + args[2].shape[1])
        return _merge(*args)

    monkeypatch.setattr(spectrum, "_merge", merge)
    w, v = brute_diagonalize(stack)
    monkeypatch.undo()
    # one merge per depth that has a node to merge, up to the whole matrix
    assert len(sizes) == len(_tree(n)) - 1 and sizes[-1] == n
    for h, k, w_i, v_i in zip(stack, dims, w, v):
        own = np.any(v_i[:k] != 0.0, axis=0)
        assert own.sum() == k
        assert np.all(w_i[~own] == 0.0)
        assert np.array_equal(v_i[:, ~own], np.eye(n)[:, k:])
        assert np.all(v_i[k:, own] == 0.0)
        _assert_tight(h[:k, :k], w_i[own], v_i[:k, own])
        w_one, v_one = brute_diagonalize(h)
        assert np.array_equal(w_i, w_one) and np.array_equal(v_i, v_one)


def test_each_depth_of_the_tree_is_one_merge_call(monkeypatch):
    n = 201
    levels = _tree(n)
    # every coupling is torn once, down to 1x1 leaves, and the nodes of a depth
    # differ by at most one row
    tears = sorted((start + stop) // 2 for level in levels for start, stop in level
                   if stop - start > 1)
    assert tears == list(range(1, n))
    for level in levels:
        sizes = {stop - start for start, stop in level}
        assert max(sizes) - min(sizes) <= 1
    assert {stop - start for start, stop in levels[-1]} == {1}
    calls = []

    def merge(*args):
        calls.append((args[0].shape[0], args[0].shape[1] + args[2].shape[1]))
        return _merge(*args)

    monkeypatch.setattr(spectrum, "_merge", merge)
    h = _random_hermitian(np.random.default_rng(92), n)
    w, v = brute_diagonalize(np.stack([h, h]))
    monkeypatch.undo()
    expected = []
    for level in reversed(levels):
        merged = [stop - start for start, stop in level if stop - start > 1]
        if merged:
            expected.append((2 * len(merged), max(merged)))
    assert calls == expected
    assert np.array_equal(w[0], w[1]) and np.array_equal(v[0], v[1])
    _assert_tight(h, w[0], v[0])


def _confrontation_model(order, twice_j, seed):
    """A model drawn as the benchmark draws its confrontations (perfbench/workloads.py)."""
    rng = random.Random(f"oracle_confront:{seed}")
    j = twice_j / 2.0
    coeffs = [rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2)]
    for i in range(2, order + 1):
        coeffs.append(rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.08) * j ** (1 - i) / i)
    angles = RotationAngles(rng.uniform(1.2, 1.95), rng.uniform(0.0, 2.0 * math.pi))
    return ModelParams(order=order, coeffs=tuple(coeffs), angles=angles)


@pytest.mark.parametrize("order, twice_j", [(4, 60), (3, 100), (3, 200)])
def test_secular_steps_per_merge_stay_bounded_on_the_confrontation_models(
        monkeypatch, order, twice_j):
    # a count, not a timing: every merge must solve all its roots within the cap
    monkeypatch.setattr(spectrum, "_SECULAR_MAX_STEPS", SECULAR_STEPS_BOUND)
    for seed in range(1, 6):
        params = _confrontation_model(order, twice_j, seed)
        h = model_hamiltonian(params, HalfInt(twice_j))
        w, v = brute_diagonalize(h)
        _assert_tight(h, w, v, tol=1e-14)
        np.testing.assert_allclose(w, np.sort(energy_values(params, HalfInt(twice_j))),
                                   rtol=0, atol=1e-14 * np.max(np.abs(h)))


def test_secular_steps_per_merge_count(monkeypatch):
    # a count, not a timing: every merge must solve all its roots within the cap.  R.-C.
    # Li's middle way alone, stopped at a step below 4 ulps or a bracket below 16, needed
    # a cap of 13 on verify's seed-0 stack and of 7, 7 and 8 on the seed 1-5
    # confrontation models at dims 61, 101 and 201; Gragg's step with the residual and
    # cubic stops needs 7 and 4, 4, 4
    monkeypatch.setattr(spectrum, "_SECULAR_MAX_STEPS", 7)
    brute_diagonalize(_verify_shaped_stack("draws")[0])
    monkeypatch.setattr(spectrum, "_SECULAR_MAX_STEPS", 4)
    for order, twice_j in [(4, 60), (3, 100), (3, 200)]:
        for seed in range(1, 6):
            params = _confrontation_model(order, twice_j, seed)
            brute_diagonalize(model_hamiltonian(params, HalfInt(twice_j)))


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


def test_couplings_just_above_the_deflation_tolerance_stay_tight():
    # every coupling (3e-15) sits just above _deflate's tolerance 8·eps·scale ≈ 1.8e-15,
    # so the leaf merges keep every pole live and solve each one, while every merge
    # above them deflates all but two poles
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


def test_a_tiny_block_keeps_its_own_tolerance_in_a_stack():
    # rows 0-14 are the first half of the tree, so every merge inside them sees
    # only a block 1e-16 of its matrix's scale: it deflates against that
    # block's own size, not against the other member at the same node
    rng = np.random.default_rng(93)
    tiny = 1e-16 * _random_hermitian(rng, 15)
    h = np.zeros((30, 30), dtype=complex)
    h[:15, :15] = tiny
    h[15:, 15:] = _random_hermitian(rng, 15)
    w, v = brute_diagonalize(np.stack([h, _random_hermitian(rng, 30)]))
    w_one, v_one = brute_diagonalize(h)
    assert np.array_equal(w[0], w_one) and np.array_equal(v[0], v_one)
    on_tiny = np.any(v[0][:15] != 0.0, axis=0)
    assert on_tiny.sum() == 15
    _assert_tight(tiny, w[0][on_tiny], v[0][:15, on_tiny])


def test_a_lone_live_pole_is_solved_on_its_first_step(monkeypatch):
    # the two torn leaves of [[0, 1], [1, 0]] are equal poles: rotation
    # deflates one, and the root of the other sits on the end of its bracket
    monkeypatch.setattr(spectrum, "_SECULAR_MAX_STEPS", 1)
    w, v = brute_diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0], rtol=0, atol=1e-15)


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


# --- robustness ---------------------------------------------------------------


def test_secular_that_runs_out_of_steps_names_its_member(monkeypatch):
    monkeypatch.setattr(spectrum, "_SECULAR_MAX_STEPS", 1)
    h = _random_hermitian(np.random.default_rng(91), 30)
    with pytest.raises(RuntimeError, match=r"unsolved after 1 steps: member 0, root \d+ of a "
                                           r"\d+-row merge"):
        brute_diagonalize(h)
    # the diagonal member has nothing to solve, so the second one runs out
    with pytest.raises(RuntimeError, match=r"member 1, root"):
        brute_diagonalize(np.stack([np.diag(np.arange(9.0)), h[:9, :9]]))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_padded_stacks_are_certified_member_by_member(data):
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4), label="sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    members = [_random_hermitian(rng, k, data.draw(st.sampled_from(["real", "complex"])),
                                 10.0 ** data.draw(st.integers(-3, 3)))
               for k in sizes]
    n = max(sizes)
    stack = np.zeros((len(sizes), n, n), dtype=complex)
    for h, m in zip(stack, members):
        h[:len(m), :len(m)] = m
    w, v = brute_diagonalize(stack)
    for m, w_i, v_i in zip(members, w, v):
        k = len(m)
        assert np.all(np.diff(w_i) >= 0.0)
        own = np.any(v_i[:k] != 0.0, axis=0)
        assert own.sum() == k
        # each pad eigenpair is exactly (0.0, the unit vector at its index)
        assert np.all(w_i[~own] == 0.0)
        assert np.array_equal(v_i[:, ~own], np.eye(n)[:, k:])
        assert np.all(v_i[k:, own] == 0.0)
        vo = v_i[:k, own]
        assert np.max(np.abs(m @ vo - vo * w_i[own])) <= 1e-13 * np.max(np.abs(m))
        assert np.max(np.abs(vo.conj().T @ vo - np.eye(k))) <= 1e-13


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
