import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritcorr import oracle
from qutritcorr import (DensityMatrix, RAW_CONVENTION, analytic_gd_isotropic,
                        analytic_negativity_dephasing,
                        analytic_negativity_depolarizing, evolve, gd_exact,
                        gd_lower_bound, isotropic_family, make_bell_state,
                        negativity, project_measurement, random_density_matrix,
                        random_unitary, su_generators, tensor)

RNG = np.random.default_rng(77)


def classical_quantum_state(rng):
    weights = rng.uniform(0.2, 1.0, size=3)
    weights /= weights.sum()
    mat = np.zeros((9, 9), dtype=complex)
    for k in range(3):
        block = random_density_matrix(3, rng=rng).matrix
        mat[3 * k:3 * k + 3, 3 * k:3 * k + 3] = weights[k] * block
    return DensityMatrix(mat, (3, 3))


def hs_distance_sq(a, b):
    diff = a - b
    return float(np.vdot(diff, diff).real)


def test_project_measurement_computational_basis_on_bell():
    bell = make_bell_state(3)
    measured = project_measurement(bell, np.eye(3))
    expected = np.zeros((9, 9), dtype=complex)
    expected[[0, 4, 8], [0, 4, 8]] = 1.0 / 3.0
    np.testing.assert_allclose(measured.matrix, expected, atol=1e-14)


def test_project_measurement_is_idempotent():
    rho = random_density_matrix(3, 3, rng=RNG)
    u = random_unitary(3, rng=RNG)
    once = project_measurement(rho, u)
    twice = project_measurement(once, u)
    np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-13)


def test_project_measurement_acts_on_chosen_side():
    rho = random_density_matrix(3, 3, rng=RNG)
    u = random_unitary(3, rng=RNG)
    lifted = tensor(np.eye(3), u)
    moved = DensityMatrix(lifted @ rho.matrix @ lifted.conj().T, (3, 3))
    left = project_measurement(moved, u, side="B")
    right = DensityMatrix(
        lifted @ project_measurement(rho, np.eye(3), side="B").matrix @ lifted.conj().T,
        (3, 3))
    np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-13)


def test_project_measurement_rejects_non_unitary():
    rho = make_bell_state(3)
    with pytest.raises(ValueError):
        project_measurement(rho, np.ones((3, 3)))
    with pytest.raises(ValueError):
        project_measurement(rho, np.eye(3), side="C")
    with pytest.raises(ValueError, match=r"basis must be 3x3, got shape \(2, 2\)"):
        project_measurement(rho, np.eye(2))
    # the unitarity deviation of a NaN basis is NaN, which must not pass
    with pytest.raises(ValueError, match="not unitary"):
        project_measurement(rho, np.full((3, 3), np.nan))
    # inf is refused before inf * 0 can raise a RuntimeWarning
    with pytest.raises(ValueError, match="non-finite"):
        project_measurement(rho, np.full((3, 3), np.inf))


def test_gd_exact_bell_value():
    result = gd_exact(make_bell_state(3), restarts=4, seed=0)
    assert abs(result.value - 2.0 / 3.0) < 1e-10
    assert result.restarts_used == 4
    assert result.residual < 1e-6


def test_gd_exact_is_deterministic():
    rho = random_density_matrix(3, 3, rng=3)
    r1 = gd_exact(rho, restarts=6, seed=42)
    r2 = gd_exact(rho, restarts=6, seed=42)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.basis, r2.basis)


def test_gd_exact_vanishes_on_classical_quantum_states():
    for _ in range(3):
        rho = classical_quantum_state(RNG)
        assert gd_exact(rho, restarts=8, seed=0).value <= 1e-8


def test_gd_exact_never_beats_a_probed_basis():
    rho = random_density_matrix(3, 3, rng=RNG)
    result = gd_exact(rho, restarts=8, seed=1)
    for _ in range(10):
        basis = random_unitary(3, rng=RNG)
        probed = hs_distance_sq(rho.matrix,
                                project_measurement(rho, basis).matrix)
        assert result.value <= probed + 1e-12


def test_gd_exact_value_matches_projection_distance_at_returned_basis():
    rho = random_density_matrix(3, 3, rng=5)
    result = gd_exact(rho, restarts=8, seed=0)
    direct = hs_distance_sq(rho.matrix,
                            project_measurement(rho, result.basis).matrix)
    assert abs(result.value - direct) < 1e-12


def test_gd_exact_invariant_under_unmeasured_side_unitary():
    rho = random_density_matrix(3, 3, rng=8)
    w = random_unitary(3, rng=9)
    lifted = tensor(np.eye(3), w)
    rotated = DensityMatrix(lifted @ rho.matrix @ lifted.conj().T, (3, 3))
    v1 = gd_exact(rho, restarts=8, seed=0).value
    v2 = gd_exact(rotated, restarts=8, seed=0).value
    assert abs(v1 - v2) < 1e-6


def test_gd_exact_side_b_mirrors_swapped_state():
    rho = random_density_matrix(3, 3, rng=21)
    swapped = DensityMatrix(
        rho.matrix.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9), (3, 3))
    v_b = gd_exact(rho, restarts=6, seed=0, side="B").value
    v_a = gd_exact(swapped, restarts=6, seed=0, side="A").value
    assert abs(v_a - v_b) < 1e-8


def test_gd_exact_rejects_bad_arguments():
    bell = make_bell_state(3)
    with pytest.raises(ValueError):
        gd_exact(bell, restarts=0)
    with pytest.raises(ValueError):
        gd_exact(bell, side="X")
    rho = random_density_matrix(3, 3, rng=5)
    # seeds and restart counts are refused by name, before any start is drawn
    misses = oracle._starts.cache_info().misses
    for kwargs in ({"seed": -1}, {"seed": 2.5}, {"seed": True}, {"seed": "3"},
                   {"restarts": 2.5}, {"restarts": "8"}):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=name):
            gd_exact(rho, **kwargs)
    assert oracle._starts.cache_info().misses == misses
    result = gd_exact(rho, restarts=np.int64(2), seed=np.uint8(3))
    assert result.restarts_used == 2 and result.seed == 3


def _landscape(rho):
    ops = oracle._operator_rows(rho.matrix.reshape(3, 3, 3, 3))
    return ops, float(np.vdot(rho.matrix, rho.matrix).real)


GENERATORS = np.array(su_generators(3))


def _values(ops, norm_sq, bases):
    return oracle._readout(ops, norm_sq, bases)[0]


def _gradient_at(rho, basis):
    """The right-frame gradient matrix Y, f(U exp(i s H)) = f(U) + s Tr(H Y) +
    O(s^2), from the gradient coordinates Tr(g_j Y) (Tr(g_j g_l) = 2 delta_jl)."""
    ops, norm_sq = _landscape(rho)
    grads = oracle._readout(ops, norm_sq, np.asarray(basis)[None])[1][0]
    return np.einsum("j,jab->ab", grads, GENERATORS) / 2.0


def test_riemannian_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(4):
        rho = random_density_matrix(3, 3, rng=rng)
        ops, norm_sq = _landscape(rho)
        basis = random_unitary(3, rng=rng)
        grad = _gradient_at(rho, basis)
        np.testing.assert_allclose(grad, grad.conj().T, atol=1e-15)
        # each coordinate, along the right-frame turns U exp(+-i h g_j)
        coords = oracle._readout(ops, norm_sq, basis[None])[1][0]
        turns = oracle._expi(np.concatenate([h * GENERATORS, -h * GENERATORS]))
        plus, minus = _values(ops, norm_sq, basis @ turns).reshape(2, -1)
        np.testing.assert_allclose(coords, (plus - minus) / (2.0 * h), rtol=0.0, atol=1e-9)
        for _ in range(3):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            direction = (g + g.conj().T) / 2.0
            steps = oracle._expi(np.array([h * direction, -h * direction]))
            plus, minus = _values(ops, norm_sq, basis @ steps)
            assert abs(np.trace(direction @ grad).real - (plus - minus) / (2.0 * h)) < 1e-9


def test_first_order_readout_reads_only_the_diagonal_rows_of_q():
    # the objective and the gradient have no coefficient outside Q's first
    # three rows, which lead its upper triangle, so building only those rows
    # gives what the full readout gives
    upper, table = oracle._readout_table(3)
    assert upper[23] // 9 == 2 and upper[24] // 9 == 3
    assert not table[24:, :9].any()
    rng = np.random.default_rng(13)
    ops, norm_sq = _landscape(random_density_matrix(3, 3, rng=rng))
    bases = np.array([random_unitary(3, rng=rng) for _ in range(6)])
    vals, grads, norms, _ = oracle._readout(ops, norm_sq, bases)
    first_vals, first_grads, first_norms, hess = oracle._readout(ops, norm_sq, bases,
                                                                 hessian=False)
    assert hess is None
    np.testing.assert_allclose(first_vals, vals, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(first_grads, grads, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(first_norms, norms, rtol=0.0, atol=1e-15)


def _side_landscape(rho, side):
    rho4 = rho.matrix.reshape(3, 3, 3, 3)
    if side == "B":
        rho4 = rho4.transpose(1, 0, 3, 2)
    return rho4, oracle._operator_rows(rho4), float(np.vdot(rho.matrix, rho.matrix).real)


UNMEASURED = np.array([np.eye(3) / np.sqrt(3.0)] + [g / np.sqrt(2.0) for g in su_generators(3)])


def _operator_blocks(rho4):
    """The Hermitian A_mu of rho = sum_mu A_mu (x) B_mu, with B_mu = I/sqrt3 and
    the Gell-Mann matrices over sqrt2 of the unmeasured side."""
    return np.einsum("xyzw,mwy->mxz", rho4, UNMEASURED)


def _sandwich(bases, blocks):
    """M_mu = U^H A_mu U for each basis U, shaped (n, mu, d, d)."""
    return np.einsum("nxk,mxy,nyl->nmkl", bases.conj(), blocks, bases)


@pytest.mark.parametrize("side", ["A", "B"])
def test_evaluate_is_the_joint_diagonalisation_criterion(side):
    rng = np.random.default_rng(31)
    for _ in range(4):
        rho4, ops, norm_sq = _side_landscape(random_density_matrix(3, 3, rng=rng), side)
        blocks = _operator_blocks(rho4)
        np.testing.assert_allclose(blocks, blocks.conj().swapaxes(-1, -2), atol=1e-16)
        rebuilt = sum(np.kron(a, b) for a, b in zip(blocks, UNMEASURED))
        np.testing.assert_allclose(rebuilt, rho4.reshape(9, 9), atol=1e-15)
        bases = np.array([random_unitary(3, rng=rng) for _ in range(5)])
        diagonals = np.einsum("nmkk->nmk", _sandwich(bases, blocks)).real
        expected = norm_sq - (diagonals ** 2).sum(axis=(1, 2))
        np.testing.assert_allclose(_values(ops, norm_sq, bases), expected, rtol=0.0, atol=1e-14)


def _plane_turns(p, q, n_theta=13, n_phi=24):
    """Unitaries that turn columns p and q by [[c, -s*], [s, c]] over a grid of
    c = cos(theta), s = sin(theta) exp(i phi)."""
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi / 2.0, n_theta),
                             np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False))
    c, s = np.cos(theta).ravel(), (np.sin(theta) * np.exp(1j * phi)).ravel()
    turns = np.tile(np.eye(3, dtype=complex), (len(c), 1, 1))
    turns[:, p, p], turns[:, p, q], turns[:, q, p], turns[:, q, q] = c, -s.conj(), s, c
    return turns


@pytest.mark.parametrize("side", ["A", "B"])
def test_jacobi_turn_lowers_objective_optimally_in_its_plane(side):
    rng = np.random.default_rng(41)
    for _ in range(3):
        rho4, ops, norm_sq = _side_landscape(random_density_matrix(3, 3, rng=rng), side)
        blocks = _operator_blocks(rho4)
        bases = np.array([random_unitary(3, rng=rng) for _ in range(8)])
        for p, q in ((0, 1), (0, 2), (1, 2), (0, 1)):
            # the plane matrix read from the Gram matrix is sum_mu g_mu g_mu^T
            # over the sandwiched operator blocks
            m = _sandwich(bases, blocks)
            g = np.stack([(m[..., p, p] - m[..., q, q]).real, 2.0 * m[..., p, q].real,
                          2.0 * m[..., p, q].imag], axis=-1)
            np.testing.assert_allclose(oracle._plane_matrix(ops, bases, p, q),
                                       g.swapaxes(-1, -2) @ g, rtol=0.0, atol=1e-14)
            before = _values(ops, norm_sq, bases)
            grid = bases[:, None] @ _plane_turns(p, q)[None]
            best_on_grid = _values(ops, norm_sq, grid.reshape(-1, 3, 3))
            oracle._jacobi_turn(ops, bases, p, q)
            after = _values(ops, norm_sq, bases)
            # no restart rises, and no turn of the same plane on the grid does better
            assert np.all(after <= before + 1e-15)
            assert np.all(after <= best_on_grid.reshape(len(bases), -1).min(axis=1) + 1e-15)
            np.testing.assert_allclose(bases.conj().swapaxes(-1, -2) @ bases,
                                       np.broadcast_to(np.eye(3), bases.shape), atol=1e-14)


def test_hessian_matches_second_differences_of_objective():
    rng = np.random.default_rng(51)
    h = 1e-4
    for _ in range(3):
        rho = random_density_matrix(3, 3, rng=rng)
        ops, norm_sq = _landscape(rho)
        bases = np.array([random_unitary(3, rng=rng) for _ in range(2)])
        hess = oracle._readout(ops, norm_sq, bases)[3]
        # f(U exp(i h (a g_j + b g_k))) for (a, b) = (+,+), (+,-), (-,+), (-,-)
        a, b = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)]).T.reshape(2, 4, 1, 1, 1, 1)
        pairs = a * GENERATORS[:, None] + b * GENERATORS[None, :]
        turns = oracle._expi(h * pairs).reshape(-1, 3, 3)
        for n, basis in enumerate(bases):
            f = _values(ops, norm_sq, basis @ turns).reshape(4, 8, 8)
            second = (f[0] - f[1] - f[2] + f[3]) / (4.0 * h * h)
            np.testing.assert_allclose(hess[n], second, rtol=0.0,
                                       atol=1e-6 * np.abs(second).max())


def test_newton_restarts_do_not_depend_on_the_rest_of_the_stack():
    # each restart's arithmetic is its own, so adding restarts can only lower
    # the minimum
    ops, norm_sq = _landscape(random_density_matrix(3, 3, rng=12))
    full = oracle._starts(3, 0, 16)[0].copy()
    part = full[3:6].copy()
    vals, norms = oracle._newton(ops, norm_sq, full)
    part_vals, part_norms = oracle._newton(ops, norm_sq, part)
    np.testing.assert_array_equal(part_vals, vals[3:6])
    np.testing.assert_array_equal(part_norms, norms[3:6])
    np.testing.assert_array_equal(part, full[3:6])
    assert norms.max() <= oracle.NEWTON_TOL


def test_gauge_coordinates_of_gradient_and_hessian_vanish():
    # the diagonal generators g_6, g_7 turn U -> U diag(phases), which leaves f
    # unchanged: their gradient coordinates and their 2x2 Hessian block vanish at
    # every basis, and their block with the off-diagonal generators is half the
    # gradient contracted with the structure constants Tr(i[g_a, g_j] g_l) / 2
    comm = 1j * (GENERATORS[:, None] @ GENERATORS[None] - GENERATORS[None] @ GENERATORS[:, None])
    structure = np.einsum("ajxy,lyx->ajl", comm, GENERATORS).real / 2.0
    rng = np.random.default_rng(61)
    for _ in range(4):
        rho = random_density_matrix(3, 3, rng=rng)
        ops, norm_sq = _landscape(rho)
        bases = np.array([random_unitary(3, rng=rng) for _ in range(6)])
        _, grads, _, hess = oracle._readout(ops, norm_sq, bases)
        assert np.abs(grads[:, 6:]).max() <= 1e-13 * norm_sq
        assert np.abs(hess[:, 6:, 6:]).max() <= 1e-13 * norm_sq
        cross = np.einsum("ajl,nl->naj", structure, grads) / 2.0
        assert np.abs(hess[:, 6:, :6]).max() > 1e-3 * norm_sq
        np.testing.assert_allclose(hess[:, 6:, :6], cross[:, 6:, :6], rtol=0.0,
                                   atol=1e-13 * norm_sq)
        # so at a converged basis the gauge decouples from the six coordinates
        # Newton steps along
        result = gd_exact(rho, restarts=8, seed=0)
        hess = oracle._readout(ops, norm_sq, np.asarray(result.basis)[None])[3][0]
        assert result.residual <= 1e-10
        assert np.abs(hess[6:, :6]).max() <= 1e-12 * norm_sq


def _depolarized_bell(t):
    return evolve(make_bell_state(3), "depolarizing", "depolarizing", 0.5, 0.5, t)


# gd_exact(..., restarts=32, seed=0).value as computed by the one-restart-at-a-
# time descent; the batched descent must reproduce these.
PINNED_VALUES = [
    (lambda: random_density_matrix(3, 3, rng=1), 0.06205299376938736),
    (lambda: random_density_matrix(3, 3, rng=2), 0.05287763225592404),
    (lambda: random_density_matrix(3, 3, rng=3), 0.0675751095804615),
    (lambda: isotropic_family(0.5), 0.1666666666666663),
    (lambda: _depolarized_bell(1.0), 0.09022352215774149),
    (lambda: _depolarized_bell(5.0), 3.0266619841262665e-05),
]


@pytest.mark.parametrize("make_state,expected", PINNED_VALUES)
def test_gd_exact_pinned_values(make_state, expected):
    assert abs(gd_exact(make_state(), restarts=32, seed=0).value - expected) <= 1e-12


@pytest.mark.parametrize("make_state", [
    lambda: isotropic_family(0.5), lambda: _depolarized_bell(1.0),
    lambda: evolve(make_bell_state(3), "dephasing", "trit-phase-flip", 0.5, 0.5, 1.0)])
def test_gd_exact_of_a_real_state_matches_its_complex_input(make_state):
    rho = make_state()
    assert rho.matrix.dtype == np.float64
    as_complex = DensityMatrix(rho.matrix.astype(complex), (3, 3))
    for side in ("A", "B"):
        real, cplx = (gd_exact(r, restarts=8, seed=0, side=side) for r in (rho, as_complex))
        assert abs(real.value - cplx.value) <= 1e-12


# gd_exact(random_density_matrix(3, 3, rng=r), restarts=32, seed=0, side="B").value
# as computed by the Newton phase with a difference Hessian; the closed-form
# Hessian must reproduce these.
PINNED_SIDE_B = [(1, 0.07275868120447598), (2, 0.05533908773304033), (3, 0.0636741565331157)]


@pytest.mark.parametrize("state_seed,expected", PINNED_SIDE_B)
def test_gd_exact_pinned_values_side_b(state_seed, expected):
    rho = random_density_matrix(3, 3, rng=state_seed)
    assert abs(gd_exact(rho, restarts=32, seed=0, side="B").value - expected) <= 1e-12


def test_eigen_fallback_alone_reaches_the_pinned_values(monkeypatch):
    # most Newton iterations solve by Cholesky; with every reduced Hessian
    # declared indefinite, the modulus-damped eigen step must converge as well
    monkeypatch.setattr(oracle, "_positive_definite",
                        lambda hess: np.zeros(len(hess), dtype=bool))
    for make_state, expected in PINNED_VALUES:
        result = gd_exact(make_state(), restarts=32, seed=0)
        assert abs(result.value - expected) <= 1e-12
        assert result.residual <= 1e-10


def test_flat_results_share_one_read_only_basis_per_start():
    first, second = (gd_exact(isotropic_family(0.5), restarts=8, seed=3) for _ in range(2))
    assert first.basis is second.basis
    assert not first.basis.flags.writeable
    assert first.basis.base is oracle._starts(3, 3, 8)[0]


def test_gd_exact_restarts_are_independent():
    # restart r only depends on its own seed, so adding restarts can only
    # lower the minimum
    rho = random_density_matrix(3, 3, rng=5)
    values = [gd_exact(rho, restarts=r, seed=0).value for r in range(1, 9)]
    assert all(b <= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("make_state,p", [
    (lambda: isotropic_family(0.2), 0.2),
    (lambda: isotropic_family(0.8), 0.8),
    (lambda: make_bell_state(3), 1.0),
    (lambda: _depolarized_bell(1.0), np.exp(-1.0)),
    (lambda: _depolarized_bell(3.0), np.exp(-3.0)),
])
def test_gd_exact_stops_at_stationary_starts_on_flat_landscapes(make_state, p):
    # U x U*-invariant states have the same discord in every basis, so every
    # start is stationary and none is descended
    result = gd_exact(make_state(), restarts=32, seed=0)
    starts = oracle._starts(3, 0, 32)[0]
    assert any(np.array_equal(result.basis, start) for start in starts)
    # a stationary basis is the cached start itself, shared read-only
    assert result.basis.base is starts and not result.basis.flags.writeable
    assert abs(result.value - analytic_gd_isotropic(p, RAW_CONVENTION)) <= 1e-14
    assert result.residual <= oracle.NEWTON_TOL


def test_start_bases_cache_is_read_only_and_unchanged():
    starts = oracle._starts(3, 5, 8)[0]
    before = starts.copy()
    assert not starts.flags.writeable
    gd_exact(random_density_matrix(3, 3, rng=6), restarts=8, seed=5)
    assert oracle._starts(3, 5, 8)[0] is starts
    assert all(view.base is starts for view in oracle._starts(3, 5, 8)[1])
    np.testing.assert_array_equal(starts, before)
    with pytest.raises(ValueError):
        starts[0, 0, 0] = 0.0


def test_mub_bases_are_unitary_and_mutually_unbiased(mub_bases):
    for k, a in enumerate(mub_bases):
        np.testing.assert_allclose(a.conj().T @ a, np.eye(3), atol=1e-12)
        for b in mub_bases[k + 1:]:
            np.testing.assert_allclose(np.abs(a.conj().T @ b) ** 2, 1.0 / 3.0, atol=1e-12)


def test_residual_is_gradient_norm_at_returned_basis():
    for seed in range(6):
        rho = random_density_matrix(3, 3, rng=100 + seed)
        result = gd_exact(rho, restarts=16, seed=seed)
        grad_norm = float(np.linalg.norm(_gradient_at(rho, result.basis)))
        assert abs(result.residual - grad_norm) <= 1e-12 * grad_norm
        assert result.residual <= 1e-10


@pytest.mark.parametrize("q_a,q_b", [(80 / 49, 70 / 49), (56 / 49, 54 / 49)])
def test_newton_converges_where_real_curvature_is_small(q_a, q_b):
    # 50x50 grid points of the fig6 pair at t = 1 whose minimum has a Hessian
    # eigenvalue about 5e-5 of the largest; a step that cut eigenvalues below
    # 1e-4 of the largest as gauge stopped there at residuals of 1e-8
    rho = evolve(make_bell_state(3), "dephasing", "trit-phase-flip", q_a, q_b, 1.0)
    assert gd_exact(rho, restarts=32, seed=0).residual <= 1e-10


def test_gd_exact_basis_owns_its_data():
    result = gd_exact(random_density_matrix(3, 3, rng=4), restarts=4, seed=0)
    assert result.basis.base is None
    assert result.basis.shape == (3, 3)
    assert not result.basis.flags.writeable


@settings(max_examples=15)
@given(state_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000))
def test_gd_exact_dominates_bound_and_is_reached(state_seed, seed, mub_distance):
    rho = random_density_matrix(3, 3, rng=state_seed)
    result = gd_exact(rho, restarts=8, seed=seed)
    assert gd_lower_bound(rho, RAW_CONVENTION) <= result.value + 1e-4
    assert result.value <= mub_distance(rho) + 1e-12  # any fixed basis bounds it above
    reached = hs_distance_sq(rho.matrix, project_measurement(rho, result.basis).matrix)
    assert abs(reached - result.value) <= 1e-12


def test_bound_stays_below_oracle_on_random_states():
    for _ in range(8):
        rho = random_density_matrix(3, 3, rng=RNG)
        bound = gd_lower_bound(rho, RAW_CONVENTION)
        exact = gd_exact(rho, restarts=16, seed=0).value
        assert bound <= exact + 1e-4


def test_bound_is_tight_on_isotropic_states():
    for p in (0.2, 0.5, 0.8):
        rho = isotropic_family(p)
        bound = gd_lower_bound(rho, RAW_CONVENTION)
        exact = gd_exact(rho, restarts=4, seed=0).value
        assert abs(bound - exact) < 1e-5


def test_analytic_negativity_dephasing_values():
    s = np.exp(-0.5)
    assert abs(analytic_negativity_dephasing(0.5, 0.5, 1.0)
               - (2.0 * s + s * s) / 3.0) < 1e-15
    assert analytic_negativity_dephasing(0.3, 0.7, 0.0) == 1.0
    with pytest.raises(ValueError):
        analytic_negativity_dephasing(-0.1, 0.5, 1.0)


def test_analytic_negativity_depolarizing_values_and_death():
    q = 0.5
    t_star = np.log(4.0) / (q + q)
    assert analytic_negativity_depolarizing(q, q, t_star - 1e-3) > 0.0
    assert analytic_negativity_depolarizing(q, q, t_star + 1e-3) == 0.0
    assert abs(analytic_negativity_depolarizing(q, q, 1.0)
               - (4.0 * np.exp(-1.0) - 1.0) / 3.0) < 1e-15
    with pytest.raises(ValueError):
        analytic_negativity_depolarizing(0.1, 0.1, -1.0)


@pytest.mark.parametrize("family,closed_form", [
    ("dephasing", analytic_negativity_dephasing),
    ("depolarizing", analytic_negativity_depolarizing),
])
def test_closed_forms_match_simulation_on_grid(family, closed_form):
    bell = make_bell_state(3)
    for qa, qb in ((0.2, 0.2), (0.5, 0.5), (1.0, 0.3), (1.7, 0.9)):
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            sim = negativity(evolve(bell, family, family, qa, qb, t))
            assert abs(sim - closed_form(qa, qb, t)) < 1e-10


@pytest.mark.parametrize("closed_form", [analytic_negativity_dephasing,
                                         analytic_negativity_depolarizing])
@pytest.mark.parametrize("args", [(np.nan, 0.1, 1.0), (0.1, np.nan, 1.0), (0.1, 0.1, np.nan),
                                  (np.inf, 0.1, 1.0), (0.1, 0.1, np.inf)])
def test_closed_forms_refuse_non_finite_input(closed_form, args):
    with pytest.raises(ValueError, match="finite"):
        closed_form(*args)


def test_analytic_gd_isotropic_conventions():
    assert abs(analytic_gd_isotropic(0.5, RAW_CONVENTION) - 1.0 / 6.0) < 1e-15
    assert analytic_gd_isotropic(0.5) == 2.0 * analytic_gd_isotropic(0.5, RAW_CONVENTION)
    with pytest.raises(ValueError):
        analytic_gd_isotropic(1.1)
