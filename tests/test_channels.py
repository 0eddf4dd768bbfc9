import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritcorr import channels
from qutritcorr import (CHANNEL_FAMILIES, PAPER_CONVENTION, RAW_CONVENTION, ConfigError,
                        DensityMatrix, IncompleteKrausError, KrausChannel, analytic_gd_isotropic,
                        apply_channel, apply_local_channels, bloch_decomposition, clock_matrix,
                        dephasing_kraus, depolarizing_kraus, evolve,
                        gamma_of, gd_lower_bound, identity_kraus, isotropic_family,
                        kraus_for_family, make_bell_state, negativity,
                        partial_transpose, random_density_matrix, shift_matrix, tensor,
                        trit_flip_kraus, trit_flip_kraus_unnormalized,
                        trit_phase_flip_kraus, validate_kraus)
from qutritcorr.linalg import PSD_TOL
from test_linalg import state_with_spectrum  # the certification boundary's test states

RNG = np.random.default_rng(99)
GAMMAS = np.linspace(0.0, 1.0, 11)


def test_gamma_of_values_and_clamp():
    assert gamma_of(0.7, 0.0) == 0.0
    assert gamma_of(0.0, 4.0) == 0.0
    assert abs(gamma_of(0.5, 1.0) - (1.0 - np.exp(-0.5))) < 1e-15
    assert gamma_of(10.0, 100.0) == 1.0


def test_gamma_of_monotone_in_time():
    times = np.linspace(0.0, 6.0, 40)
    gammas = [gamma_of(0.8, t) for t in times]
    assert np.all(np.diff(gammas) >= 0.0)


def test_gamma_of_stays_in_the_unit_interval_unclamped():
    # finite, non-negative q and t put -q t in [-inf, 0], so 1 - exp(-q t) lies
    # in [0, 1] with no clamp, also where q t overflows to inf, with no warning
    assert gamma_of(1e200, 1e200) == 1.0
    for q, t in ((-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0)):
        gamma = gamma_of(q, t)
        assert gamma == 0.0 and not np.signbit(gamma)
    q = np.array([0.0, -0.0, 1e-300, 0.5, 2.0, 1e300])
    t = np.array([0.0, 5.0, 1e-300, 1.0, 1e3, 1e300])
    gammas = gamma_of(q[:, None], t)
    assert gammas.shape == (6, 6)
    assert ((gammas >= 0.0) & (gammas <= 1.0)).all()
    assert gammas[-1, -1] == 1.0 and (gammas[:, 0] == 0.0).all()


@pytest.mark.parametrize("q,t,field", [
    (-0.1, 1.0, "q"), (1.0, -0.5, "t"), (float("nan"), 1.0, "q"), (1.0, float("inf"), "t"),
    ("1", 1.0, "q"), (1.0, "1", "t"), (True, 1.0, "q"), (1.0, np.array([True, False]), "t"),
    (None, 1.0, "q"), (1.0, [0.5, "2"], "t"), ([0.5, [1, 2]], 1.0, "q"),
    (np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), "t")])
def test_gamma_of_rejects_negative(q, t, field):
    # strings and bools are refused, not parsed, also on evolve's path; so are ragged sequences
    # and shapes that do not broadcast, under the first refused name of the rates, then t
    refusal = rf"^{field} must (be finite and non-negative|have a shape that broadcasts with)"
    with pytest.raises(ConfigError, match=refusal) as exc:
        gamma_of(q, t)
    assert exc.value.field == field
    value = q if field == "q" else t
    if isinstance(value, str):  # a refused string is quoted, not shown as a number
        assert str(exc.value).endswith(f"got {value!r}")
    if isinstance(q, float) and q == -0.1:  # a refused number is printed as it is
        assert str(exc.value) == "q must be finite and non-negative, got -0.1"
    for side, args in (("q_a", (q, 0.5, t)), ("q_b", (0.5, q, t))):
        with pytest.raises(ConfigError, match=refusal.replace("^q", f"^{side}")) as exc:
            evolve(make_bell_state(3), "dephasing", "trit-flip", *args)
        assert exc.value.field == (side if field == "q" else "t")


@pytest.mark.parametrize("check", [dephasing_kraus, trit_flip_kraus, trit_phase_flip_kraus,
                                   depolarizing_kraus, isotropic_family, analytic_gd_isotropic])
@pytest.mark.parametrize("value", ["0.5", np.str_("0.5"), None, True, False, np.True_, [0.5],
                                   0.5 + 0j, float("nan"), float("-inf"), -0.1, 1.5, np.float64(1.5)])
def test_unit_interval_parameters_refuse_non_numbers_by_name(check, value):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]") as exc:
        check(value)
    if isinstance(value, (str, float)):  # strings quoted, numbers printed as they always were
        assert str(exc.value).endswith(f"got {repr(value) if isinstance(value, str) else value}")


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_completeness_across_gamma(family):
    for g in GAMMAS:
        diag = validate_kraus(kraus_for_family(family, g))
        assert diag.ok
        assert diag.max_deviation <= 1e-12


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_three_term_superoperator_matches_kraus(family):
    # S(gamma) = C0 + sqrt(1 - gamma) C1 + gamma C2, derived from three
    # gammas, equals sum E (x) E^* of the builder at every gamma
    for g in GAMMAS:
        want = sum(np.kron(e, e.conj()) for e in kraus_for_family(family, g).operators)
        got = np.tensordot((1.0, np.sqrt(1.0 - g), g),
                           channels._family_superoperator_basis(family), axes=1)
        assert np.abs(got - want).max() <= 1e-14, g


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_superoperator_basis_bits_follow_the_liouville_formula(family):
    # evolve reads only this basis: equal bits here keep every dataset byte-identical. Each
    # Kraus set is closed under conjugation and reads its phases from one table (1, w, w*),
    # so the imaginary parts cancel exactly and the real stack loses nothing
    s0, s34, s1 = (np.einsum("kab,kcd->acbd", ops, ops.conj()).reshape(9, 9)
                   for ops in (np.stack(kraus_for_family(family, g).operators)
                               for g in (0.0, 0.75, 1.0)))
    c0 = 2.0 * s0 + 3.0 * s1 - 4.0 * s34
    want = np.stack((c0, s0 - c0, s1 - c0))
    assert (want.imag == 0.0).all()
    got = channels._family_superoperator_basis(family)
    assert got.dtype == np.float64 and got.flags.c_contiguous and not got.flags.writeable
    assert (got == want.real).all()


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_complex_states_evolve_through_the_real_basis_bit_for_bit(family_a, family_b):
    # the real basis, cast by the product, gives the bits of the complex basis it came from
    rng = np.random.default_rng([19, CHANNEL_FAMILIES.index(family_a),
                                 CHANNEL_FAMILIES.index(family_b)])
    rho = DensityMatrix(np.stack([random_density_matrix(3, 3, rng=rng).matrix
                                  for _ in range(64)]), (3, 3))
    qa, qb, t = rng.uniform(0.0, 2.0, size=64), rng.uniform(0.0, 2.0, size=64), 1.3
    r = rho.matrix.reshape(64, 3, 3, 3, 3).swapaxes(-3, -2).reshape(64, 9, 9)
    c_a, c_b = (channels._family_superoperator_basis(f).astype(complex).reshape(27, 9)
                for f in (family_a, family_b))
    m = (c_a @ r @ c_b.T).reshape(64, 729)[:, channels._UNREALIGN]
    g = np.array([gamma_of(qa, t), gamma_of(qb, t)])
    w = np.stack([np.ones_like(g), np.sqrt(1.0 - g), g], axis=-1)
    want = ((w[0, :, :, None] * w[1, :, None, :]).reshape(64, 1, 9) @ m).reshape(64, 9, 9)
    assert (evolve(rho, family_a, family_b, qa, qb, t).matrix == want).all()


def _amplitude_damping(p):
    ops = np.zeros((3, 3, 3))
    ops[0] = np.diag([1.0, np.sqrt(1.0 - p), np.sqrt(1.0 - p)])
    ops[1, 0, 1] = ops[2, 0, 2] = np.sqrt(p)
    return KrausChannel(3, tuple(ops))


def _kraus_reference(ops, rho):
    return sum(e @ rho @ e.conj().T for e in ops)


def test_a_channel_that_is_not_its_own_adjoint_acts_as_its_kraus_sum():
    # qutrit amplitude damping is complete but neither unital nor closed under the
    # adjoint, unlike the four families: applying the adjoint map instead fails here
    damping, other = _amplitude_damping(0.3), trit_phase_flip_kraus(0.6)
    assert validate_kraus(damping).ok
    single = random_density_matrix(3, rng=RNG).matrix
    stack = np.array([random_density_matrix(3, rng=RNG).matrix for _ in range(3)])
    for rho in (single, stack):
        want = _kraus_reference(damping.operators, rho)
        assert np.abs(apply_channel(damping, rho) - want).max() <= 1e-14
    pair = random_density_matrix(3, 3, rng=RNG)
    pairs = DensityMatrix(np.array([random_density_matrix(3, 3, rng=RNG).matrix
                                    for _ in range(3)]), (3, 3))
    for cha, chb in ((damping, other), (other, damping)):
        lifted = [np.kron(e, f) for e in cha.operators for f in chb.operators]
        for rho in (pair, pairs):
            out = apply_local_channels(rho, cha, chb)
            assert np.abs(out.matrix - _kraus_reference(lifted, rho.matrix)).max() <= 1e-14


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_gamma_zero_is_identity(family):
    rho = random_density_matrix(3, rng=RNG).matrix
    out = apply_channel(kraus_for_family(family, 0.0), rho)
    np.testing.assert_allclose(out, rho, atol=1e-13)


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_gamma_out_of_range_rejected(family):
    for g in (-0.2, 1.2):
        with pytest.raises(ValueError):
            kraus_for_family(family, g)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        kraus_for_family("bogus", 0.1)


def test_dephasing_preserves_populations_kills_coherences():
    rho = random_density_matrix(3, rng=RNG).matrix
    for g in GAMMAS:
        out = apply_channel(dephasing_kraus(g), rho)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)
    dead = apply_channel(dephasing_kraus(1.0), rho)
    np.testing.assert_allclose(dead, np.diag(np.diag(rho)), atol=1e-15)


def test_dephasing_damping_factors():
    rho = random_density_matrix(3, rng=RNG).matrix
    g = 0.4
    out = apply_channel(dephasing_kraus(g), rho)
    s = np.sqrt(1.0 - g)
    assert abs(out[0, 1] - s * rho[0, 1]) < 1e-14
    assert abs(out[0, 2] - s * rho[0, 2]) < 1e-14
    assert abs(out[1, 2] - (1.0 - g) * rho[1, 2]) < 1e-14


def test_trit_flip_full_strength_is_uniform_shift_mixture():
    rho = random_density_matrix(3, rng=RNG).matrix
    out = apply_channel(trit_flip_kraus(1.0), rho)
    s = shift_matrix(3)
    ref = (rho + s @ rho @ s.conj().T + s @ s @ rho @ (s @ s).conj().T) / 3.0
    np.testing.assert_allclose(out, ref, atol=1e-14)


def test_trit_flip_unnormalized_deviation_is_4g_over_3():
    for g in GAMMAS[1:]:
        diag = validate_kraus(trit_flip_kraus_unnormalized(g))
        assert not diag.ok
        assert abs(diag.max_deviation - 4.0 * g / 3.0) < 1e-12


def test_trit_phase_flip_operators_are_phased_permutations():
    ch = trit_phase_flip_kraus(0.6)
    assert len(ch.operators) == 5
    amp = np.sqrt(0.6 / 6.0)
    for op in ch.operators[1:]:
        u = op / amp
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-14)
        # exactly one nonzero entry per column, all of unit modulus
        assert np.all(np.sum(np.abs(u) > 1e-12, axis=0) == 1)


# The paper's operators, written out: an independent reference for the Weyl builder
_W = np.exp(2j * np.pi / 3.0)
_UP = np.array([[0, 0, _W], [1, 0, 0], [0, np.conj(_W), 0]])
_DOWN = np.array([[0, np.conj(_W), 0], [0, 0, _W], [1, 0, 0]])
_S = np.roll(np.eye(3), 1, 0)  # |j> -> |j + 1 mod 3>
_PAPER_OPERATORS = {
    trit_flip_kraus: lambda g: [np.sqrt(1 - 2 * g / 3) * np.eye(3)]
    + [np.sqrt(g / 3) * u for u in (_S, _S @ _S)],
    trit_phase_flip_kraus: lambda g: [np.sqrt(1 - 2 * g / 3) * np.eye(3)]
    + [np.sqrt(g / 6) * u for u in (_UP, _UP.conj(), _DOWN, _DOWN.conj())],
}


@pytest.mark.parametrize("builder", list(_PAPER_OPERATORS))
@pytest.mark.parametrize("gamma", [0.1, 0.37, 0.8, 1.0])
def test_weyl_families_act_as_the_papers_operators(builder, gamma):
    ops = _PAPER_OPERATORS[builder](gamma)
    assert len(builder(gamma).operators) == len(ops)
    for _ in range(3):
        rho = random_density_matrix(3, rng=RNG).matrix
        assert np.abs(apply_channel(builder(gamma), rho) - _kraus_reference(ops, rho)).max() <= 1e-14


@pytest.mark.parametrize("family", ["trit-flip", "trit-phase-flip", "depolarizing"])
def test_unital_families_fix_maximally_mixed(family):
    out = apply_channel(kraus_for_family(family, 0.8), np.eye(3) / 3.0)
    np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-14)


def test_depolarizing_closed_form():
    ch = depolarizing_kraus(0.37)
    assert len(ch.operators) == 9
    for _ in range(5):
        rho = random_density_matrix(3, rng=RNG).matrix
        out = apply_channel(ch, rho)
        ref = (1.0 - 0.37) * rho + 0.37 * np.eye(3) / 3.0
        np.testing.assert_allclose(out, ref, atol=1e-12)


def test_depolarizing_operator_basis_is_shift_clock():
    ch = depolarizing_kraus(0.9)
    down = shift_matrix(3).conj().T
    clock = clock_matrix(3)
    expected = [np.linalg.matrix_power(down, a) @ np.linalg.matrix_power(clock, b)
                for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    scale = np.sqrt(0.9) / 3.0
    for op, ref in zip(ch.operators[1:], expected):
        np.testing.assert_allclose(op, scale * ref, atol=1e-15)


@pytest.mark.parametrize("shape", [(1, 9), (9,), (4, 4), (2, 3, 4), (3, 1, 3)])
def test_apply_channel_refuses_matrices_of_another_size(shape):
    # a (1, 9) array holds 9 entries but is no 3x3 matrix
    with pytest.raises(ValueError, match=r"^matrix must be a 3x3 matrix or a stack of them, "
                                         rf"got shape {re.escape(str(shape))}$"):
        apply_channel(dephasing_kraus(0.5), np.zeros(shape))


def test_kraus_channel_rejects_empty_and_misshapen_sets():
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel(3, ())
    with pytest.raises(ValueError, match=r"^operators must be a 3x3 matrix, got shape \(2, 2\)$"):
        KrausChannel(3, (np.eye(3, dtype=complex), np.eye(2, dtype=complex)))


@pytest.mark.parametrize("dim,operators,message", [
    (3, 0.5, r"^operators must be a tuple or list of at least one Kraus operator, got 0\.5$"),
    (3, np.eye(3), r"^operators must be a tuple or list"),
    (3, (np.full((3, 3), object()),),
     r"^operators must hold real numbers or be complex, got object$"),
    (3, (np.full((3, 3), None),), r"^operators must hold finite numbers$"),
    (3, (np.eye(3), np.full((3, 3), np.inf)), r"^operators must hold finite numbers$"),
    (True, (np.eye(1),), r"^dim must be an integer >= 1, got True$"),
    (3.0, (np.eye(3),), r"^dim must be an integer >= 1, got 3\.0$"),
])
def test_kraus_channel_refuses_what_is_not_a_set_of_finite_operators(dim, operators, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(dim, operators)


def test_kraus_channel_keeps_incomplete_sets_and_copies_its_operators():
    op = np.eye(3) * 0.5
    ch = KrausChannel(np.int64(3), [op])
    assert ch.dim == 3
    assert ch.operators[0].dtype == complex and not ch.operators[0].flags.writeable
    op[0, 0] = 9.0
    assert ch.operators[0][0, 0] == 0.5
    assert not validate_kraus(ch).ok


def test_validate_kraus_flags_missing_operator():
    ch = KrausChannel(3, (np.eye(3, dtype=complex) * 0.5,))
    diag = validate_kraus(ch)
    assert not diag.ok
    assert abs(diag.max_deviation - 0.75) < 1e-14


def test_apply_local_channels_identity_pair():
    rho = random_density_matrix(3, 3, rng=RNG)
    out = apply_local_channels(rho, identity_kraus(3), identity_kraus(3))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_apply_local_channels_order_independent():
    rho = random_density_matrix(3, 3, rng=RNG)
    cha = dephasing_kraus(0.3)
    chb = depolarizing_kraus(0.7)
    a_first = apply_local_channels(apply_local_channels(rho, cha, identity_kraus(3)),
                                   identity_kraus(3), chb)
    b_first = apply_local_channels(apply_local_channels(rho, identity_kraus(3), chb),
                                   cha, identity_kraus(3))
    both = apply_local_channels(rho, cha, chb)
    np.testing.assert_allclose(a_first.matrix, b_first.matrix, atol=1e-12)
    np.testing.assert_allclose(a_first.matrix, both.matrix, atol=1e-12)


def test_apply_local_channels_rejects_dimension_mismatch():
    rho = random_density_matrix(3, 3, rng=RNG)
    with pytest.raises(ValueError):
        apply_local_channels(rho, identity_kraus(2), identity_kraus(3))


def test_apply_local_channels_rejects_incomplete_set():
    rho = random_density_matrix(3, 3, rng=RNG)
    broken = KrausChannel(3, (np.eye(3, dtype=complex) * 0.9,))
    with pytest.raises(IncompleteKrausError) as exc:
        apply_local_channels(rho, broken, identity_kraus(3))
    assert exc.value.diagnostics.max_deviation > 0.1


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_two_sided_outputs_are_valid_states(family):
    for _ in range(20):
        rho = random_density_matrix(3, 3, rng=RNG)
        ga, gb = RNG.uniform(0.0, 1.0, size=2)
        out = apply_local_channels(rho, kraus_for_family(family, ga),
                                   kraus_for_family(family, gb))
        assert isinstance(out, DensityMatrix)


def test_full_dephasing_projects_bell_to_classical_mixture():
    bell = make_bell_state(3)
    out = apply_local_channels(bell, dephasing_kraus(1.0), dephasing_kraus(1.0))
    expected = np.zeros((9, 9), dtype=complex)
    expected[[0, 4, 8], [0, 4, 8]] = 1.0 / 3.0
    np.testing.assert_allclose(out.matrix, expected, atol=1e-14)


def test_two_sided_depolarizing_gives_isotropic_state():
    bell = make_bell_state(3)
    ga, gb = 0.35, 0.6
    out = apply_local_channels(bell, depolarizing_kraus(ga), depolarizing_kraus(gb))
    iso = isotropic_family((1.0 - ga) * (1.0 - gb))
    np.testing.assert_allclose(out.matrix, iso.matrix, atol=1e-14)


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_evolve_matches_manual_channel_application(family_a, family_b):
    # a full sweep batch against the Kraus sets built at each row's gammas
    bell = make_bell_state(3)
    rng = np.random.default_rng(11)
    qa, qb = rng.uniform(0.0, 2.0, size=(2, 256))
    t = np.r_[0.0, 1e3, rng.uniform(0.0, 5.0, size=254)]  # gamma 0 and exactly 1 included
    out = evolve(bell, family_a, family_b, qa, qb, t)
    for i in range(256):
        ref = apply_local_channels(bell, kraus_for_family(family_a, gamma_of(qa[i], t[i])),
                                   kraus_for_family(family_b, gamma_of(qb[i], t[i])))
        assert np.abs(out.matrix[i] - ref.matrix).max() <= 1e-14, i


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_evolved_bell_states_are_block_diagonal_in_the_clock_sectors(family_a, family_b):
    # Every family's Kraus set is covariant under the clock matrix Z and the Bell state
    # is invariant under Z x Z*, so each evolved state commutes with Z x Z^dagger: entry
    # ((i, j), (k, l)) vanishes unless i - j = k - l mod 3, and the partial transpose
    # over A is exactly 0.0 outside the (i + j) mod 3 blocks that negativity reads
    difference = np.array([0, 2, 1, 1, 0, 2, 2, 1, 0])  # (i - j) mod 3 at index 3i + j
    total = np.array([0, 1, 2, 1, 2, 0, 2, 0, 1])  # (i + j) mod 3
    times = [0.0, 0.05, 0.3, 1.0, 2.5, 1e3]
    q_a, t = (grid.ravel() for grid in np.meshgrid(np.linspace(0.0, 2.0, 9), times, indexing="ij"))
    rho = evolve(make_bell_state(3), family_a, family_b, q_a, 0.7, t)
    assert (rho.matrix[:, difference[:, None] != difference] == 0.0).all()
    assert (partial_transpose(rho, "A")[:, total[:, None] != total] == 0.0).all()


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_real_and_complex_bell_batches_agree(family_a, family_b):
    # the real Bell state runs in float64, the same state as complex128 in complex
    # arithmetic; each keeps its dtype and both measures agree
    bell = make_bell_state(3)
    as_complex = DensityMatrix(bell.matrix.astype(complex), (3, 3))
    rng = np.random.default_rng([17, CHANNEL_FAMILIES.index(family_a),
                                 CHANNEL_FAMILIES.index(family_b)])
    qa, qb = rng.uniform(0.0, 2.0, size=(2, 256))
    t = np.r_[0.0, 1e3, rng.uniform(0.0, 5.0, size=254)]  # gamma 0 and exactly 1 included
    real, cplx = (evolve(rho, family_a, family_b, qa, qb, t) for rho in (bell, as_complex))
    assert real.matrix.dtype == np.float64 and cplx.matrix.dtype == np.complex128
    assert np.abs(real.matrix - cplx.matrix).max() <= 1e-15
    assert np.abs(negativity(real) - negativity(cplx)).max() <= 1e-15
    for convention in (PAPER_CONVENTION, RAW_CONVENTION):
        gap = gd_lower_bound(real, convention) - gd_lower_bound(cplx, convention)
        assert np.abs(gap).max() <= 1e-15


def test_a_superoperator_basis_with_an_imaginary_part_is_refused(monkeypatch):
    # sqrt(1 - g) I and sqrt(g) Z form a complete Kraus set that is not closed under
    # conjugation: its basis is complex, and evolve must refuse it, not keep its real part
    def clocked(gamma):
        return KrausChannel(3, (np.sqrt(1.0 - gamma) * np.eye(3),
                                np.sqrt(gamma) * clock_matrix(3)))

    monkeypatch.setitem(channels._FAMILY_BUILDERS, "dephasing", clocked)
    channels._family_superoperator_basis.cache_clear()
    try:
        for rho in (make_bell_state(3), random_density_matrix(3, 3, rng=RNG)):
            with pytest.raises(ValueError, match="dephasing superoperator basis has imaginary"):
                evolve(rho, "trit-flip", "dephasing", 0.5, 0.5, 1.0)
    finally:
        channels._family_superoperator_basis.cache_clear()


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_stacked_initial_states_evolve_row_by_row(family_a, family_b):
    # validate's path: one initial state and one set of rates per row
    rng = np.random.default_rng([13, CHANNEL_FAMILIES.index(family_a),
                                 CHANNEL_FAMILIES.index(family_b)])
    states = [random_density_matrix(3, 3, rank=r, rng=rng) for r in (1, 2, 5, 9, 9, 3)]
    stack = DensityMatrix(np.array([s.matrix for s in states]), (3, 3))
    qa, qb = rng.uniform(0.0, 2.0, size=(2, 6))
    t = rng.uniform(0.0, 5.0, size=6)
    out = evolve(stack, family_a, family_b, qa, qb, t)
    assert out.matrix.shape == (6, 9, 9)
    mixed = np.eye(9) / 9.0
    for i, rho in enumerate(states):
        one = evolve(rho, family_a, family_b, qa[i], qb[i], t[i])
        assert np.abs(out.matrix[i] - one.matrix).max() <= 1e-14, i
        # no row reads another: other states and rates elsewhere leave row i's bits
        others = np.arange(6) != i
        swapped = np.where(others[:, None, None], mixed, stack.matrix)
        rates = [np.where(others, x[::-1] + 0.5, x) for x in (qa, qb, t)]
        again = evolve(DensityMatrix(swapped, (3, 3)), family_a, family_b, *rates)
        assert (again.matrix[i] == out.matrix[i]).all(), i


def _proof_states():
    """Initial states for the certification proof, each with its smallest eigenvalue: random
    complex and real ones, pure ones (the Bell state among them) and ones whose smallest
    eigenvalue sits 1e-14 inside the certification's -1e-10."""
    rng = np.random.default_rng(23)
    real = rng.standard_normal((2, 9, 9))
    states = [random_density_matrix(3, 3, rng=rng).matrix for _ in range(2)]
    states += [g @ g.T / np.trace(g @ g.T) for g in real]
    states += [make_bell_state(3).matrix, random_density_matrix(3, 3, rank=1, rng=rng).matrix]
    states += [state_with_spectrum(-PSD_TOL + 1e-14, rng) for _ in range(2)]
    return [(DensityMatrix(m, (3, 3)), float(np.linalg.eigvalsh(m)[0])) for m in states]


PROOF_STATES = _proof_states()
# 11 gammas per side from 0 to exactly 1: at t = 1e3, q = 1 gives exp(-1000) = 0
PROOF_GAMMAS = np.r_[np.linspace(0.0, 0.95, 10), 1.0]
PROOF_RATES = np.r_[-np.log1p(-PROOF_GAMMAS[:-1]) / 1e3, 1.0]


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_evolve_keeps_every_state_valid(family_a, family_b):
    # evolve's states skip the Hermiticity and positivity checks (DensityMatrix._derived), so
    # this is their proof: every family is unital and CPTP, so Phi(rho) >= lambda_min(rho) I,
    # and every output passes the full certification with its smallest eigenvalue no lower
    qa, qb = (grid.ravel() for grid in np.meshgrid(PROOF_RATES, PROOF_RATES, indexing="ij"))
    assert gamma_of(PROOF_RATES[-1], 1e3) == 1.0 and gamma_of(0.0, 1e3) == 0.0
    for rho0, low in PROOF_STATES:
        out = evolve(rho0, family_a, family_b, qa, qb, 1e3)
        DensityMatrix(out.matrix, out.dims)  # raises ValidationError on any violation
        assert np.linalg.eigvalsh(out.matrix)[:, 0].min() >= low - 1e-13


def test_array_evolve_matches_scalar_calls():
    # a pure initial state and mild noise keep the negativities nonzero
    rng = np.random.default_rng(5)
    rho = random_density_matrix(3, 3, rank=1, rng=rng)
    qa, qb = rng.uniform(0.0, 1.0, size=(2, 7))
    t = rng.uniform(0.0, 1.0, size=7)
    for fa, fb in zip(CHANNEL_FAMILIES, CHANNEL_FAMILIES[::-1]):
        stack = evolve(rho, fa, fb, qa, qb, t)
        assert stack.matrix.shape == (7, 9, 9)
        neg, gd = negativity(stack), gd_lower_bound(stack, RAW_CONVENTION)
        assert neg.min() > 1e-3 and gd.min() > 1e-3
        for i in range(7):
            one = evolve(rho, fa, fb, qa[i], qb[i], t[i])
            assert isinstance(negativity(one), float)
            assert np.abs(stack.matrix[i] - one.matrix).max() <= 1e-14
            assert abs(neg[i] - negativity(one)) <= 1e-14
            assert abs(gd[i] - gd_lower_bound(one, RAW_CONVENTION)) <= 1e-14


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_scalar_query_is_row_zero_of_the_one_state_stack(family_a, family_b):
    # one code path: scalar arguments give exactly the bits of length-1 arrays
    rng = np.random.default_rng([7, CHANNEL_FAMILIES.index(family_a),
                                 CHANNEL_FAMILIES.index(family_b)])
    rho0 = random_density_matrix(3, 3, rank=1, rng=rng)
    qa, qb, t = rng.uniform(0.0, 1.0, size=3)
    one = evolve(rho0, family_a, family_b, qa, qb, t)
    stack = evolve(rho0, family_a, family_b, np.array([qa]), np.array([qb]), np.array([t]))
    assert stack.matrix.shape == (1, 9, 9)
    assert (one.matrix == stack.matrix[0]).all()
    assert negativity(one) == negativity(stack)[0]
    for convention in (PAPER_CONVENTION, RAW_CONVENTION):
        assert gd_lower_bound(one, convention) == gd_lower_bound(stack, convention)[0]
    dec_one, dec_stack = bloch_decomposition(one), bloch_decomposition(stack)
    for field in ("y_a", "z_b", "corr"):
        assert (getattr(dec_one, field) == getattr(dec_stack, field)[0]).all()


@pytest.mark.parametrize("dims", [(9, 1), (1, 9)])
def test_evolve_refuses_states_that_are_not_two_qutrits(dims):
    # a 9x9 state of any other split would reshape without complaint
    rho = DensityMatrix(random_density_matrix(3, 3, rng=RNG).matrix, dims)
    with pytest.raises(ValueError, match="two qutrits"):
        evolve(rho, "dephasing", "dephasing", 0.5, 0.5, 1.0)


def test_evolve_at_t_zero_is_identity():
    rho = random_density_matrix(3, 3, rng=RNG)
    out = evolve(rho, "depolarizing", "trit-phase-flip", 1.4, 0.2, 0.0)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-13)


def test_dephasing_negativity_value():
    # qa = qb = 0.5, t = 1: (2s + s^2)/3 with s = exp(-1/2)
    out = evolve(make_bell_state(3), "dephasing", "dephasing", 0.5, 0.5, 1.0)
    s = np.exp(-0.5)
    assert abs(negativity(out) - (2.0 * s + s * s) / 3.0) < 1e-12


SEMIGROUP_STATES = DensityMatrix(np.stack([random_density_matrix(3, 3, rng=seed).matrix
                                            for seed in range(5)]), (3, 3))


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_semigroup_composition(family_a, family_b):
    # gamma = 1 - exp(-q t) makes a family a semigroup when each eigenvalue of its superoperator
    # is a power of 1 - gamma: 1, 1 - gamma and sqrt(1 - gamma) for dephasing, 1 and 1 - gamma
    # for trit-flip and depolarizing. Trit-phase-flip's 1 - gamma / 2 is not, so every pair
    # with it breaks the law, which is pinned here rather than hidden
    q, t1, t2 = 0.7, 0.4, 1.1
    step = evolve(SEMIGROUP_STATES, family_a, family_b, q, q, t1)
    stepwise = evolve(step, family_a, family_b, q, q, t2)
    direct = evolve(SEMIGROUP_STATES, family_a, family_b, q, q, t1 + t2)
    residual = np.abs(stepwise.matrix - direct.matrix).max()
    if "trit-phase-flip" in (family_a, family_b):
        assert residual > 1e-4
    else:
        assert residual <= 1e-13


def superoperator(family, gamma):
    """S with vec(Phi(rho)) = S vec(rho) for row-major vec: the sum of E x E* over Kraus E."""
    return sum(np.kron(e, e.conj()) for e in kraus_for_family(family, gamma).operators)


def choi_min_eigenvalue(s):
    """Smallest eigenvalue of the Choi matrix sum_ij |i><j| x Phi(|i><j|) of superoperator s."""
    choi = s.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)  # [(i, a), (j, b)]
    return np.linalg.eigvalsh(choi)[0]


DIVISIBILITY_GAMMAS = np.linspace(0.0, 0.95, 12)


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_intermediate_maps_are_completely_positive_except_trit_phase_flip(family):
    # CP-divisibility (Rivas, Huelga & Plenio, PRL 105 (2010) 050403): every intermediate map
    # S(gamma_2) S(gamma_1)^-1, gamma_1 <= gamma_2, is completely positive. Trit-phase-flip's
    # is not, at every t > 0 (Hall et al., PRA 89 (2014) 042120)
    if family == "trit-phase-flip":
        s1, s2 = superoperator(family, 0.6), superoperator(family, 0.61)
        assert choi_min_eigenvalue(s2 @ np.linalg.inv(s1)) < -1e-6
        return
    for i, g1 in enumerate(DIVISIBILITY_GAMMAS):
        inverse = np.linalg.inv(superoperator(family, g1))
        for g2 in DIVISIBILITY_GAMMAS[i:]:
            assert choi_min_eigenvalue(superoperator(family, g2) @ inverse) >= -1e-12


FAMILY = st.sampled_from(CHANNEL_FAMILIES)
RATE = st.floats(0.0, 3.0)
TIME = st.floats(0.0, 5.0)


@settings(max_examples=60)
@given(family_a=FAMILY, family_b=FAMILY, q_a=RATE, q_b=RATE, t=TIME,
       state_seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 9))
def test_local_noise_keeps_states_valid_and_never_raises_negativity(
        family_a, family_b, q_a, q_b, t, state_seed, rank):
    rho = random_density_matrix(3, 3, rank=rank, rng=state_seed)
    out = evolve(rho, family_a, family_b, q_a, q_b, t)  # certified on construction
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
    # negativity is an entanglement monotone under LOCC (Vidal & Werner,
    # PRA 65 (2002) 032314), and local channels are LOCC
    assert negativity(out) <= negativity(rho) + 1e-12
