import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritcorr import oracle
from qutritcorr import (DensityMatrix, RAW_CONVENTION, analytic_gd_isotropic,
                        analytic_negativity_dephasing,
                        analytic_negativity_depolarizing, evolve, gd_exact,
                        gd_lower_bound, isotropic_family, make_bell_state,
                        negativity, project_measurement, random_density_matrix,
                        random_unitary, tensor)

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
    # the unitarity deviation of a NaN basis is NaN, which must not pass
    with pytest.raises(ValueError, match="not unitary"):
        project_measurement(rho, np.full((3, 3), np.nan))


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
    # NaN or a min_step above 1/2 would skip the descent and return a start
    # value; min_step 0 would never stop halving the step
    rho = random_density_matrix(3, 3, rng=5)
    for kwargs in ({"tol": np.nan}, {"tol": np.inf}, {"tol": -1e-9},
                   {"min_step": np.nan}, {"min_step": np.inf}, {"min_step": 0.0},
                   {"min_step": -1e-6}, {"min_step": 1.0}):
        with pytest.raises(ValueError):
            gd_exact(rho, restarts=8, **kwargs)


def _landscape(rho):
    gram = oracle._gram(rho.matrix.reshape(3, 3, 3, 3))
    return gram, float(np.vdot(rho.matrix, rho.matrix).real)


def _gradient_at(rho, basis):
    gram, norm_sq = _landscape(rho)
    bases = np.asarray(basis)[None]
    return oracle._gradient(oracle._evaluate(gram, norm_sq, bases)[1], bases)[0]


def test_riemannian_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(4):
        rho = random_density_matrix(3, 3, rng=rng)
        gram, norm_sq = _landscape(rho)
        basis = random_unitary(3, rng=rng)
        grad = _gradient_at(rho, basis)
        np.testing.assert_allclose(grad, grad.conj().T, atol=1e-15)
        for _ in range(3):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            direction = (g + g.conj().T) / 2.0
            steps = oracle._expi(np.array([h * direction, -h * direction]))
            plus, minus = oracle._objective(gram, norm_sq, steps @ basis)
            assert abs(np.trace(direction @ grad).real - (plus - minus) / (2.0 * h)) < 1e-9


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
    starts = oracle._start_bases(3, 0, 32)
    assert any(np.array_equal(result.basis, start) for start in starts)
    assert abs(result.value - analytic_gd_isotropic(p, RAW_CONVENTION)) <= 1e-14
    assert result.residual <= oracle.STATIONARY_TOL


def test_start_bases_cache_is_read_only_and_unchanged():
    starts = oracle._start_bases(3, 5, 8)
    before = starts.copy()
    assert not starts.flags.writeable
    gd_exact(random_density_matrix(3, 3, rng=6), restarts=8, seed=5)
    assert oracle._start_bases(3, 5, 8) is starts
    np.testing.assert_array_equal(starts, before)
    with pytest.raises(ValueError):
        starts[0, 0, 0] = 0.0


def test_residual_is_gradient_norm_at_returned_basis():
    for seed in range(6):
        rho = random_density_matrix(3, 3, rng=100 + seed)
        result = gd_exact(rho, restarts=16, seed=seed)
        grad_norm = float(np.linalg.norm(_gradient_at(rho, result.basis)))
        assert abs(result.residual - grad_norm) <= 1e-12 * grad_norm
        # A step level ends once a sweep gains at most tol, so the descent
        # does not drive the gradient to zero: state 101 stops at 2.8e-6,
        # the others below 2e-7.
        assert result.residual < 1e-5


def test_gd_exact_basis_owns_its_data():
    result = gd_exact(random_density_matrix(3, 3, rng=4), restarts=4, seed=0)
    assert result.basis.base is None
    assert result.basis.shape == (3, 3)


@settings(max_examples=15)
@given(state_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000))
def test_gd_exact_dominates_bound_and_is_reached(state_seed, seed):
    rho = random_density_matrix(3, 3, rng=state_seed)
    result = gd_exact(rho, restarts=8, seed=seed)
    assert gd_lower_bound(rho, RAW_CONVENTION) <= result.value + 1e-4
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
