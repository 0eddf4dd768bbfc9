import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutritcorr import (CHANNEL_FAMILIES, ConfigError, DensityMatrix, GdConvention,
                        PAPER_CONVENTION, RAW_CONVENTION, bloch_decomposition, bloch_synthesis,
                        evolve, gd_exact, gd_lower_bound, hermitian_eigenvalues, isotropic_family,
                        make_bell_state, negativity, partial_trace, partial_transpose,
                        project_measurement, random_density_matrix, random_unitary, tensor,
                        trace_norm)
from qutritcorr import linalg, measures
from qutritcorr.measures import NEGATIVITY_EIG_TOL

RNG = np.random.default_rng(512)
# basis states 3i + j of two qutrits ordered by ((i + j) mod 3, 3i + j)
SECTOR_ORDER = [0, 5, 7, 1, 3, 8, 2, 4, 6]


def sector_ordered(mats):
    """The matrix, or each matrix of a stack, with rows and columns in SECTOR_ORDER."""
    return mats[..., SECTOR_ORDER, :][..., SECTOR_ORDER]


def product_state(rng):
    a = random_density_matrix(3, rng=rng).matrix
    b = random_density_matrix(3, rng=rng).matrix
    return DensityMatrix(tensor(a, b), (3, 3))


def classical_quantum_state(rng):
    weights = rng.uniform(0.2, 1.0, size=3)
    weights /= weights.sum()
    mat = np.zeros((9, 9), dtype=complex)
    for k in range(3):
        block = random_density_matrix(3, rng=rng).matrix
        mat[3 * k:3 * k + 3, 3 * k:3 * k + 3] = weights[k] * block
    return DensityMatrix(mat, (3, 3))


def test_negativity_reference_values():
    assert abs(negativity(make_bell_state(3)) - 1.0) < 1e-12
    assert negativity(DensityMatrix(np.eye(9) / 9.0, (3, 3))) == 0.0
    assert abs(negativity(isotropic_family(0.5)) - 1.0 / 3.0) < 1e-12
    # PPT boundary of the isotropic family sits at p = 1/4
    assert negativity(isotropic_family(0.25)) < 1e-12
    assert negativity(isotropic_family(0.26)) > 1e-3


def test_negativity_of_product_states_vanishes():
    for _ in range(5):
        assert negativity(product_state(RNG)) < 1e-12


def test_negativity_two_routes_agree():
    # eigenvalue route vs trace-norm route, independent decompositions
    for _ in range(10):
        rho = random_density_matrix(3, 3, rng=RNG)
        via_spectrum = negativity(rho)
        via_norm = (trace_norm(partial_transpose(rho, "A")) - 1.0) / 2.0
        assert abs(via_spectrum - via_norm) < 1e-10


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_negativity_matches_the_checked_eigenvalue_route_bit_for_bit(family_a, family_b):
    # negativity reads the spectrum of the sector-ordered partial transpose directly;
    # the checked hermitian_eigenvalues route on that matrix, summed in the same
    # descending order, gives the same bits for the stack and for each row alone,
    # and the natural order the same spectrum to rounding
    q_a, t = (grid.ravel() for grid in np.meshgrid(np.linspace(0.0, 2.0, 6),
                                                     [0.1, 0.3, 0.6, 1.0, 1.5], indexing="ij"))
    rho = evolve(make_bell_state(3), family_a, family_b, q_a, 0.5, t)
    pt = partial_transpose(rho, "A")
    eigs = hermitian_eigenvalues(sector_ordered(pt))
    np.testing.assert_allclose(eigs, hermitian_eigenvalues(pt), rtol=0, atol=2e-15)
    expected = np.where(eigs < -NEGATIVITY_EIG_TOL, -eigs, 0.0).sum(axis=-1)
    assert (negativity(rho) == expected).all()
    assert [negativity(DensityMatrix(row, (3, 3))) for row in rho.matrix] == list(expected)


@pytest.mark.parametrize("stacked", [False, True])
def test_negativity_screen_keeps_every_decision_at_the_threshold(stacked):
    # The PT of the isotropic state p |Phi><Phi| + (1 - p) I/9 has smallest eigenvalue
    # (1 - 4p)/9: just past -NEGATIVITY_EIG_TOL, just inside it, between it and the
    # screen's shift of half of it, and inside the shift
    lows = np.array([-1.1e-12, -0.9e-12, -0.6e-12, -0.4e-12])
    states = [isotropic_family((1.0 - 9.0 * low) / 4.0) for low in lows]
    rhos = [DensityMatrix(np.stack([rho.matrix for rho in states]), (3, 3))] if stacked else states
    eigs = hermitian_eigenvalues(sector_ordered(np.stack([partial_transpose(rho, "A")
                                                          for rho in states])))
    np.testing.assert_allclose(eigs[:, -1], lows, rtol=1e-3)
    expected = np.where(eigs < -NEGATIVITY_EIG_TOL, -eigs, 0.0).sum(axis=-1)
    assert expected[0] > 0.0 and (expected[1:] == 0.0).all()
    got = np.hstack([negativity(rho) for rho in rhos])
    assert (got == expected).all() and not np.signbit(got).any()


def test_negativity_diagonalises_only_the_npt_rows(monkeypatch):
    # a 256-row stack of random states and product states, shuffled
    rng = np.random.default_rng(513)
    mats = [random_density_matrix(3, 3, rng=rng).matrix for _ in range(128)]
    mats += [product_state(rng).matrix for _ in range(128)]
    rho = DensityMatrix(np.stack(mats)[rng.permutation(256)], (3, 3))
    pt = sector_ordered(partial_transpose(rho, "A"))
    low = hermitian_eigenvalues(pt)[:, -1]
    assert (np.abs(low) > 1e-6).all()  # no row near the threshold
    npt = low < 0.0
    assert 50 < npt.sum() < 206
    calls = []

    def spy(mats):
        calls.append(mats.copy())
        return eigvalsh(mats)

    eigvalsh = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", spy)
    neg = negativity(rho)
    assert len(calls) == 1 and calls[0].shape == (npt.sum(), 9, 9)
    assert (calls[0] == pt[npt]).all()
    assert (neg[~npt] == 0.0).all() and (neg[npt] > 0.0).all()
    # an all-PPT stack and a PPT state alone never reach eigvalsh
    ppt = DensityMatrix(rho.matrix[~npt], (3, 3))
    assert (negativity(ppt) == 0.0).all()
    assert negativity(DensityMatrix(ppt.matrix[0], (3, 3))) == 0.0
    assert len(calls) == 1


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sector_order_is_a_permutation_of_the_partial_transpose(dims):
    # negativity gathers the PT with rows and columns permuted alike, so its
    # spectrum, and the natural-order negativity to rounding, are unchanged
    d = dims[0] * dims[1]
    rng = np.random.default_rng([514, *dims])
    # pure, rank-2 and noise-mixed full-rank states: NPT and PPT rows
    rhos = [random_density_matrix(*dims, rank=r, rng=rng) for r in (1, 2, d) * 8]
    rhos[2::3] = [DensityMatrix(0.1 * rho.matrix + 0.9 * np.eye(d) / d, dims)
                  for rho in rhos[2::3]]
    index = measures._sector_pt_index(*dims)
    order = np.diagonal(index) // (d + 1)  # diagonal entries stay on the diagonal
    assert sorted(order) == list(range(d))
    if dims == (3, 3):
        assert list(order) == SECTOR_ORDER
    for rho in rhos:
        pt = partial_transpose(rho, "A")
        assert (rho.matrix.ravel()[index] == pt[np.ix_(order, order)]).all()
    stack = DensityMatrix(np.stack([rho.matrix for rho in rhos]), dims)
    eigs = hermitian_eigenvalues(partial_transpose(stack, "A"))
    expected = np.where(eigs < -NEGATIVITY_EIG_TOL, -eigs, 0.0).sum(axis=-1)
    assert (expected > 0.0).any() and (expected == 0.0).any()
    np.testing.assert_allclose(negativity(stack), expected, rtol=0, atol=2e-15)
    np.testing.assert_allclose([negativity(rho) for rho in rhos], expected, rtol=0, atol=2e-15)


def test_negativity_local_unitary_invariance():
    rho = random_density_matrix(3, 3, rng=RNG)
    u = tensor(random_unitary(3, rng=RNG), random_unitary(3, rng=RNG))
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (3, 3))
    assert abs(negativity(rho) - negativity(rotated)) < 1e-10


def test_bloch_decomposition_of_maximally_mixed():
    dec = bloch_decomposition(DensityMatrix(np.eye(9) / 9.0, (3, 3)))
    assert np.abs(dec.y_a).max() < 1e-14
    assert np.abs(dec.z_b).max() < 1e-14
    assert np.abs(dec.corr).max() < 1e-14


def test_bloch_decomposition_of_bell_state():
    dec = bloch_decomposition(make_bell_state(3))
    assert np.abs(dec.y_a).max() < 1e-13
    assert np.abs(dec.z_b).max() < 1e-13
    # generator ordering: 3 symmetric, 3 antisymmetric, 2 diagonal
    expected = 1.5 * np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
    np.testing.assert_allclose(dec.corr, expected, atol=1e-13)


def test_bloch_decomposition_of_product_state_factorizes():
    rho = product_state(RNG)
    dec = bloch_decomposition(rho)
    np.testing.assert_allclose(dec.corr, np.outer(dec.y_a, dec.z_b), atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=str)
def test_certified_states_have_bloch_coefficients_within_the_imaginary_bound(dims):
    # bloch_decomposition keeps only the real part of each coefficient. A certified state's
    # anti-Hermitian part is at most HERMITICITY_TOL / 2 an entry; here it is i c op / max|op|
    # for each operator op of the table, at the tolerance, which drives op's own coefficient
    # furthest from real. For two qutrits the bound is (9 / 4) (16 / 3) 5e-13 = 6e-12
    d1, d2 = dims
    table, scale = measures._generator_table(d1, d2)
    ops = table.reshape(-1, d1 * d2, d1 * d2).swapaxes(-1, -2)  # rows are vec(op^T)
    c = 0.49 * linalg.HERMITICITY_TOL
    mats = random_density_matrix(d1, d2, rng=RNG).matrix + 1j * c * ops / np.abs(
        ops).max(axis=(-2, -1), keepdims=True)
    rho = DensityMatrix(mats, dims)  # certified
    assert np.abs(mats - mats.conj().swapaxes(-1, -2)).max() > 0.9 * linalg.HERMITICITY_TOL
    imag = ((rho.matrix.reshape(len(ops), -1) @ table.T) * scale).imag
    assert np.abs(imag).max() <= 1e-11
    dec = bloch_decomposition(rho)
    np.testing.assert_allclose(bloch_synthesis(dec, dims), rho.matrix, atol=1e-12)


def test_bloch_roundtrip():
    states = [random_density_matrix(3, 3, rng=RNG).matrix for _ in range(5)]
    for mat in states + [np.stack(states)]:
        rho = DensityMatrix(mat, (3, 3))
        rebuilt = bloch_synthesis(bloch_decomposition(rho), (3, 3))
        np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-13)


def test_bloch_synthesis_refuses_dims_by_name():
    dec = bloch_decomposition(make_bell_state(3))
    for dims, refusal in [((2, 2), r"give dec's Bloch vector sizes \(8, 8\), got \(2, 2\)$"),
                          ((3, 2), r"give dec's Bloch vector sizes \(8, 8\), got \(3, 2\)$"),
                          (9, r"be a pair \(d1, d2\), got 9"),
                          ((3, 3, 1), r"be a pair \(d1, d2\), got \(3, 3, 1\)"),
                          ((3, 0), r"be an integer >= 1, got 0")]:
        with pytest.raises(ConfigError, match=rf"^dims must {refusal}") as exc:
            bloch_synthesis(dec, dims)
        assert exc.value.field == "dims"


def test_bloch_synthesis_refuses_a_malformed_decomposition_as_dec():
    dec = bloch_decomposition(make_bell_state(3))
    shapes = r"must have shapes \(8,\) and \(8, 8\), got "
    vectors = r"must be Bloch vectors, of size d\^2 - 1 for some d >= 2, got "
    for bad, refusal in [
            (measures.BlochDecomposition(dec.y_a, dec.z_b, dec.corr[:, :7]),
             shapes + r"\(8,\) and \(8, 7\)$"),
            (measures.BlochDecomposition(dec.y_a, np.stack([dec.z_b] * 2), dec.corr),
             shapes + r"\(2, 8\) and \(8, 8\)$"),
            (measures.BlochDecomposition(dec.y_a, dec.z_b, np.full((8, 8), np.nan)),
             r"must hold finite numbers$"),
            (measures.BlochDecomposition(np.full(8, np.inf), dec.z_b, dec.corr),
             r"must hold finite numbers$"),
            (measures.BlochDecomposition([0.0] * 8, np.zeros(8), np.zeros((8, 7)).tolist()),
             shapes + r"\(8,\) and \(8, 7\)$"),
            # no Bloch axis, or a size that is d^2 - 1 for no d >= 2: dec is at fault, not dims
            (measures.BlochDecomposition(0.0, dec.z_b, dec.corr), vectors + r"\(\) and \(8,\)$"),
            (measures.BlochDecomposition(dec.y_a, 0.0, dec.corr), vectors + r"\(8,\) and \(\)$"),
            (measures.BlochDecomposition(dec.y_a, np.zeros(5), dec.corr),
             vectors + r"\(8,\) and \(5,\)$")]:
        with pytest.raises(ConfigError, match=r"^dec(\.z_b and dec\.corr|\.y_a and dec\.z_b)? "
                                              + refusal) as exc:
            bloch_synthesis(bad, (3, 3))
        assert exc.value.field == "dec"
    # fields given as lists are read as arrays, so a well-formed one synthesises
    as_lists = measures.BlochDecomposition(*(np.asarray(f).tolist() for f in vars(dec).values()))
    np.testing.assert_array_equal(bloch_synthesis(as_lists, (3, 3)), bloch_synthesis(dec, (3, 3)))


def test_gd_convention_validation_and_prefactors():
    with pytest.raises(ValueError):
        GdConvention("other")
    # an array is refused by the argument's name, not by numpy's ambiguous truth value
    with pytest.raises(ValueError, match=r"^prefactor_mode must be one of 'paper', 'raw', got array"):
        GdConvention(np.array(["paper", "raw"]))
    assert PAPER_CONVENTION.prefactor(3, 3) == pytest.approx(4.0 / 27.0)
    assert RAW_CONVENTION.prefactor(3, 3) == pytest.approx(2.0 / 27.0)


def bloch_route_bound(rho, convention):
    """The bound from the Bloch decomposition, G = y y^T + (2/d2) V V^T, its d1 (d1 - 1)
    smallest eigenvalues summed by numpy's own eigvalsh, per state of the stack."""
    d1, d2 = rho.dims
    dec = bloch_decomposition(rho)
    y = dec.y_a[..., :, None]
    g = y @ y.swapaxes(-1, -2) + (2.0 / d2) * dec.corr @ dec.corr.swapaxes(-1, -2)
    bracket = np.linalg.eigvalsh(g)[..., : d1 * (d1 - 1)].sum(axis=-1)
    return np.maximum(0.0, convention.prefactor(d1, d2) * bracket)


def bell_sweep_stack(family_a, family_b):
    rng = np.random.default_rng([515, CHANNEL_FAMILIES.index(family_a),
                                 CHANNEL_FAMILIES.index(family_b)])
    qa, qb = rng.uniform(0.0, 2.0, size=(2, 64))
    t = np.r_[0.0, rng.uniform(0.0, 5.0, size=63)]
    return evolve(make_bell_state(3), family_a, family_b, qa, qb, t)


def random_stacks():
    # complex stacks of pure and full-rank states, on every split of 4, 6 and 9
    rng = np.random.default_rng(516)
    for dims in [(3, 3), (2, 3), (3, 2), (2, 2)]:
        for rank in (1, dims[0] * dims[1]):
            yield DensityMatrix(np.stack([random_density_matrix(*dims, rank=rank, rng=rng).matrix
                                          for _ in range(32)]), dims)


@pytest.mark.parametrize("family_a", CHANNEL_FAMILIES)
@pytest.mark.parametrize("family_b", CHANNEL_FAMILIES)
def test_bound_matches_the_bloch_route_on_bell_sweeps(family_a, family_b):
    rho = bell_sweep_stack(family_a, family_b)
    assert rho.matrix.dtype == np.float64
    as_complex = DensityMatrix(rho.matrix.astype(complex), (3, 3))
    for convention in (PAPER_CONVENTION, RAW_CONVENTION):
        expected = bloch_route_bound(rho, convention)
        for state in (rho, as_complex):
            assert np.abs(gd_lower_bound(state, convention) - expected).max() <= 1e-14


def test_bound_matches_the_bloch_route_on_random_complex_stacks():
    for rho in random_stacks():
        assert rho.matrix.dtype == np.complex128
        for convention in (PAPER_CONVENTION, RAW_CONVENTION):
            expected = bloch_route_bound(rho, convention)
            assert (expected > 1e-3).all()
            assert np.abs(gd_lower_bound(rho, convention) - expected).max() <= 1e-14
            one = DensityMatrix(rho.matrix[0], rho.dims)
            assert abs(gd_lower_bound(one, convention) - expected[0]) <= 1e-14


def test_bound_never_calls_the_bloch_decomposition(monkeypatch):
    states = [bell_sweep_stack("dephasing", "trit-flip"), *random_stacks(), make_bell_state(3)]
    expected = [gd_lower_bound(rho) for rho in states]

    def refuse(rho):
        raise AssertionError("the bound reads its own table, not the Bloch decomposition")

    monkeypatch.setattr(measures, "bloch_decomposition", refuse)
    for rho, value in zip(states, expected):
        assert np.array_equal(gd_lower_bound(rho), value)


def test_bound_kernel_takes_any_hermitian_stack():
    # the bound is a quadratic form in the matrix: scaling it by c scales the bound by c^2,
    # and an unnormalized or non-positive Hermitian stack is read like a state
    rho = next(random_stacks())
    base = measures._gd_lower(rho.matrix, rho.dims, RAW_CONVENTION)
    np.testing.assert_allclose(measures._gd_lower(3.0 * rho.matrix, rho.dims, RAW_CONVENTION),
                               9.0 * base, rtol=1e-13, atol=0)
    shifted = rho.matrix - 0.2 * np.eye(9)  # only the identity component moves: same bound
    np.testing.assert_allclose(measures._gd_lower(shifted, rho.dims, RAW_CONVENTION), base,
                               rtol=0, atol=1e-14)


def test_bound_table_reads_y_and_v_from_the_float_view():
    # the float view of vec(rho) times the table is S = [y | sqrt(2/d2) V], sign for sign: a
    # table with +Im rows gives the bound of rho^T, which is the same, so only S shows it
    real, cplx = (measures._bound_table(3, 3, np.dtype(t)) for t in (float, complex))
    assert real.shape == (81, 72) and cplx.shape == (162, 72)
    assert not real.flags.writeable and not cplx.flags.writeable
    assert measures._bound_table(3, 3, np.dtype(complex)) is cplx
    assert (cplx[0::2] == real).all()
    for rho in [*random_stacks(), bell_sweep_stack("trit-phase-flip", "depolarizing")]:
        (d1, d2), lead = rho.dims, rho.matrix.shape[:-2]
        table = measures._bound_table(d1, d2, rho.matrix.dtype)
        s = rho.matrix.reshape(lead + (-1,)).view(float) @ table
        dec = bloch_decomposition(rho)
        expected = np.concatenate([dec.y_a[..., None], np.sqrt(2.0 / d2) * dec.corr], axis=-1)
        np.testing.assert_allclose(s.reshape(expected.shape), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda: gd_lower_bound(make_bell_state(3).matrix), "rho must be a DensityMatrix, got ndarray"),
    (lambda: gd_lower_bound(make_bell_state(3), "raw"), "convention must be a GdConvention, got str"),
    (lambda: negativity(make_bell_state(3).matrix), "rho must be a DensityMatrix, got ndarray"),
    (lambda: evolve(make_bell_state(3).matrix, "dephasing", "dephasing", 0.5, 0.5, 1.0),
     "rho0 must be a DensityMatrix, got ndarray"),
    (lambda: gd_exact(make_bell_state(3).matrix), "rho must be a DensityMatrix, got ndarray"),
    (lambda: bloch_decomposition(make_bell_state(3).matrix),
     "rho must be a DensityMatrix, got ndarray"),
    (lambda: partial_transpose(make_bell_state(3).matrix), "rho must be a DensityMatrix, got ndarray"),
    (lambda: partial_trace(make_bell_state(3).matrix), "rho must be a DensityMatrix, got ndarray"),
    (lambda: project_measurement(make_bell_state(3).matrix, np.eye(3)),
     "rho must be a DensityMatrix, got ndarray"),
])
def test_state_entry_points_refuse_what_is_not_certified(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_gd_lower_bound_bell_values():
    bell = make_bell_state(3)
    assert abs(gd_lower_bound(bell) - 4.0 / 3.0) < 1e-12
    assert abs(gd_lower_bound(bell, RAW_CONVENTION) - 2.0 / 3.0) < 1e-12


def test_gd_lower_bound_paper_doubles_raw():
    for _ in range(5):
        rho = random_density_matrix(3, 3, rng=RNG)
        assert gd_lower_bound(rho) == 2.0 * gd_lower_bound(rho, RAW_CONVENTION)


def test_gd_lower_bound_vanishes_on_product_states():
    for _ in range(5):
        rho = product_state(RNG)
        assert gd_lower_bound(rho, RAW_CONVENTION) <= 1e-10
        # the bracket itself, before the clamp at 0, from G = y y^T + (2/3) V V^T
        dec = bloch_decomposition(rho)
        g = np.outer(dec.y_a, dec.y_a) + (2.0 / 3.0) * dec.corr @ dec.corr.T
        bracket = np.linalg.eigvalsh(g)[:6].sum()
        assert abs(RAW_CONVENTION.prefactor(3, 3) * bracket) < 1e-10


def test_gd_lower_bound_vanishes_on_classical_quantum_states():
    for _ in range(5):
        assert gd_lower_bound(classical_quantum_state(RNG), RAW_CONVENTION) == 0.0


def test_gd_lower_bound_maximally_mixed_is_zero():
    assert gd_lower_bound(DensityMatrix(np.eye(9) / 9.0, (3, 3))) == 0.0


def test_gd_lower_bound_isotropic_closed_form():
    for p in np.linspace(0.0, 1.0, 9):
        raw = gd_lower_bound(isotropic_family(p), RAW_CONVENTION)
        assert abs(raw - 2.0 * p * p / 3.0) < 1e-12


def test_full_range_eigenvalue_sum_is_identically_zero():
    # subtracting ALL eigenvalues of G from its trace gives 0 for every
    # state; the bound is only nontrivial with the top d1 - 1
    for _ in range(10):
        rho = random_density_matrix(3, 3, rng=RNG)
        dec = bloch_decomposition(rho)
        g = np.outer(dec.y_a, dec.y_a) + (2.0 / 3.0) * (dec.corr @ dec.corr.T)
        bracket = np.trace(g) - np.linalg.eigvalsh(g).sum()
        assert abs(bracket) < 1e-12


def test_isotropic_family_endpoints_and_domain():
    np.testing.assert_allclose(isotropic_family(1.0).matrix,
                               make_bell_state(3).matrix, atol=1e-15)
    np.testing.assert_allclose(isotropic_family(0.0).matrix, np.eye(9) / 9.0,
                               atol=1e-15)
    with pytest.raises(ValueError):
        isotropic_family(1.2)
    with pytest.raises(ValueError):
        isotropic_family(-0.1)


@settings(max_examples=40)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
       rank=st.integers(1, 9))
def test_bloch_roundtrip_on_random_stacks(seeds, rank):
    stack = np.stack([random_density_matrix(3, 3, rank=rank, rng=s).matrix for s in seeds])
    rho = DensityMatrix(stack, (3, 3))
    rebuilt = bloch_synthesis(bloch_decomposition(rho), (3, 3))
    np.testing.assert_allclose(rebuilt, stack, rtol=0, atol=1e-13)
