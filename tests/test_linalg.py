import numpy as np
import pytest

from qutritcorr import (DensityMatrix, ValidationError, evolve, hermitian_eigenvalues,
                        make_bell_state, partial_trace, partial_transpose,
                        random_density_matrix, random_unitary, su_generators,
                        tensor, trace_norm, validate_density_matrix)
from qutritcorr import linalg, oracle
from qutritcorr.linalg import PSD_TOL

RNG = np.random.default_rng(2024)


def test_bell_state_entries():
    bell = make_bell_state(3)
    diag_idx = [0, 4, 8]
    expected = np.zeros((9, 9), dtype=complex)
    expected[np.ix_(diag_idx, diag_idx)] = 1.0 / 3.0
    np.testing.assert_allclose(bell.matrix, expected, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_state_is_maximally_entangled(d):
    bell = make_bell_state(d)
    purity = (bell.matrix @ bell.matrix).trace().real
    assert abs(purity - 1.0) < 1e-12
    for keep in ("A", "B"):
        reduced = partial_trace(bell, keep)
        np.testing.assert_allclose(reduced, np.eye(d) / d, atol=1e-14)


def test_bell_state_rejects_trivial_dimension():
    with pytest.raises(ValueError):
        make_bell_state(1)


def test_tensor_matches_kron_convention():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 10.0])
    out = tensor(a, b)
    # left factor owns the coarse index blocks
    np.testing.assert_allclose(np.diag(out), [1, 10, 2, 20, 3, 30])


def test_tensor_mixed_product_rule():
    a, b, c, d = (RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
                  for _ in range(4))
    lhs = tensor(a, b) @ tensor(c, d)
    rhs = tensor(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_tensor_associativity():
    a, b, c = (RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
               for _ in range(3))
    np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)),
                               rtol=1e-13, atol=1e-15)


def test_partial_transpose_product_state():
    rho_a = random_density_matrix(3, rng=RNG).matrix
    rho_b = random_density_matrix(3, rng=RNG).matrix
    rho = DensityMatrix(tensor(rho_a, rho_b), (3, 3))
    np.testing.assert_allclose(partial_transpose(rho, "A"), tensor(rho_a.T, rho_b),
                               atol=1e-14)
    np.testing.assert_allclose(partial_transpose(rho, "B"), tensor(rho_a, rho_b.T),
                               atol=1e-14)


def test_partial_transpose_bell_spectrum():
    # PT of the qutrit Bell state is SWAP/3: +1/3 on the six symmetric
    # directions, -1/3 on the three antisymmetric ones
    pt = partial_transpose(make_bell_state(3), "A")
    eigs = hermitian_eigenvalues(pt)
    expected = np.r_[np.full(6, 1.0 / 3.0), np.full(3, -1.0 / 3.0)]
    np.testing.assert_allclose(eigs, expected, atol=1e-12)


def test_partial_transpose_is_involutive_and_trace_preserving():
    entangled = random_density_matrix(3, 3, rng=RNG)
    pt = partial_transpose(entangled, "A")
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.abs(pt - pt.conj().T).max() < 1e-12
    # a separable mixture stays PSD under partial transpose, so the result
    # can be wrapped again and transposed back
    mats = [np.kron(random_density_matrix(3, rng=RNG).matrix,
                    random_density_matrix(3, rng=RNG).matrix) for _ in range(3)]
    separable = DensityMatrix(sum(mats) / 3.0, (3, 3))
    once = DensityMatrix(partial_transpose(separable, "A"), (3, 3))
    np.testing.assert_allclose(partial_transpose(once, "A"), separable.matrix,
                               atol=1e-14)


def test_partial_transpose_rejects_unknown_subsystem():
    with pytest.raises(ValueError):
        partial_transpose(make_bell_state(3), "C")


def test_partial_trace_rejects_unknown_subsystem():
    with pytest.raises(ValueError, match="keep must be"):
        partial_trace(make_bell_state(3), keep="C")


def test_partial_trace_of_product_state():
    rho_a = random_density_matrix(3, rng=RNG).matrix
    rho_b = random_density_matrix(3, rng=RNG).matrix
    rho = DensityMatrix(tensor(rho_a, rho_b), (3, 3))
    np.testing.assert_allclose(partial_trace(rho, "A"), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, "B"), rho_b, atol=1e-14)


def test_partial_trace_of_random_pure_state_is_valid():
    vec = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
    vec /= np.linalg.norm(vec)
    rho = DensityMatrix(np.outer(vec, vec.conj()), (3, 3))
    for keep in ("A", "B"):
        validate_density_matrix(partial_trace(rho, keep), (3, 1))


def test_partial_trace_of_stack_matches_per_state_calls():
    stack = DensityMatrix(np.array([random_density_matrix(3, 3, rng=RNG).matrix
                                    for _ in range(5)]), (3, 3))
    for keep in ("A", "B"):
        reduced = partial_trace(stack, keep)
        assert reduced.shape == (5, 3, 3)
        for rho, red in zip(stack.matrix, reduced):
            np.testing.assert_allclose(red, partial_trace(DensityMatrix(rho, (3, 3)), keep),
                                       rtol=0, atol=1e-15)


def test_hermitian_eigenvalues_sorted_and_checked():
    eigs = hermitian_eigenvalues(np.diag([0.1, 0.9, -0.3]))
    np.testing.assert_allclose(eigs, [0.9, 0.1, -0.3], atol=1e-15)
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the deviation of a NaN matrix is NaN, which must not pass the check
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.full((3, 3), np.nan))
    # inf is refused before inf - inf can raise a RuntimeWarning
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigenvalues(np.full((3, 3), np.inf))


def test_trace_norm_values():
    assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-14
    rho = random_density_matrix(3, 3, rng=RNG)
    assert abs(trace_norm(rho.matrix) - 1.0) < 1e-12
    m = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert trace_norm(m) >= abs(np.trace(m)) - 1e-12
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_su_generators_d2_are_paulis():
    basis = su_generators(2)
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.diag([1.0, -1.0]))
    assert len(basis) == 3
    for g, p in zip(basis, pauli):
        np.testing.assert_allclose(g, p, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_su_generators_orthonormal_traceless(d):
    basis = su_generators(d)
    assert len(basis) == d * d - 1
    for g in basis:
        assert abs(np.trace(g)) < 1e-14
        np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
    gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
    np.testing.assert_allclose(gram, 2.0 * np.eye(d * d - 1), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_su_generators_expand_any_state(d):
    # rho = I/d + (1/2) sum_k Tr(rho g_k) g_k
    rho = random_density_matrix(d, rng=RNG).matrix
    acc = np.eye(d, dtype=complex) / d
    for g in su_generators(d):
        acc += 0.5 * np.trace(rho @ g) * g
    np.testing.assert_allclose(acc, rho, atol=1e-13)


def test_su_generators_reject_bad_dimension():
    with pytest.raises(ValueError):
        su_generators(1)


def test_validate_density_matrix_accepts_and_rejects():
    validate_density_matrix(np.eye(9) / 9.0, (3, 3))

    with pytest.raises(ValidationError) as exc:
        validate_density_matrix(np.eye(9) / 6.0, (3, 3))
    assert abs(exc.value.violations["trace"] - 0.5) < 1e-12

    bad_herm = np.eye(9, dtype=complex) / 9.0
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValidationError) as exc:
        validate_density_matrix(bad_herm, (3, 3))
    assert "hermiticity" in exc.value.violations

    bad_psd = np.diag([0.6, 0.5, -0.1] + [0.0] * 6)
    with pytest.raises(ValidationError) as exc:
        validate_density_matrix(bad_psd, (3, 3))
    assert abs(exc.value.violations["psd"] - 0.1) < 1e-12

    for entry in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.full((9, 9), entry), (3, 3))
    with pytest.raises(ValueError, match="expected a 9x9"):
        DensityMatrix(np.eye(3) / 3.0, (3, 3))
    for dims in ((0, 3), (2.9, 2.1), (True, 4)):
        with pytest.raises(ValueError, match="must be positive"):
            DensityMatrix(np.eye(4) / 4.0, dims)
    assert DensityMatrix(np.eye(9) / 9.0, (np.int64(3), 3)).dims == (3, 3)


@pytest.mark.parametrize("entries", [
    np.eye(9) / 9.0,
    np.diag(np.array([0.5, 0.25, 0.25] + [0.0] * 6, dtype=np.float32)),
    np.diag([1] + [0] * 8),                   # integer
    np.diag([True] + [False] * 8),            # bool
    (np.eye(9) / 9.0).tolist(),               # Python floats
])
def test_real_input_certifies_as_float64(entries):
    for rho in (DensityMatrix(entries, (3, 3)), validate_density_matrix(entries, (3, 3))):
        assert rho.matrix.dtype == np.float64
        np.testing.assert_array_equal(rho.matrix, np.asarray(entries, dtype=float))


def test_complex_input_stays_complex_and_object_input_is_not_truncated():
    mat = random_density_matrix(3, 3, rng=RNG).matrix
    exact = np.zeros((9, 9), dtype=np.complex64)  # (|0> + i|1>) / sqrt(2), exact in complex64
    exact[:2, :2] = [[0.5, -0.5j], [0.5j, 0.5]]
    for entries in (mat, exact, mat.tolist()):  # tolist gives Python complex numbers
        for rho in (DensityMatrix(entries, (3, 3)), validate_density_matrix(entries, (3, 3))):
            assert rho.matrix.dtype == np.complex128
    assert (DensityMatrix(mat.tolist(), (3, 3)).matrix == mat).all()
    # an object array of complex values is refused, never cut to its real part
    for make in (DensityMatrix, validate_density_matrix):
        with pytest.raises(TypeError, match="complex"):
            make(mat.astype(object), (3, 3))


def test_density_matrix_is_frozen():
    rho = make_bell_state(3)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_random_density_matrix_is_valid_and_seeded():
    rho1 = random_density_matrix(3, 3, rng=11)
    rho2 = random_density_matrix(3, 3, rng=11)
    np.testing.assert_array_equal(rho1.matrix, rho2.matrix)
    low = hermitian_eigenvalues(rho1.matrix)[-1]
    assert low > -1e-12
    rank2 = random_density_matrix(3, 3, rank=2, rng=RNG)
    eigs = hermitian_eigenvalues(rank2.matrix)
    assert np.sum(eigs > 1e-10) == 2


@pytest.mark.parametrize("rank", [0, 10])
def test_random_density_matrix_rejects_rank_out_of_range(rank):
    with pytest.raises(ValueError, match=r"rank must be in 1\.\.9"):
        random_density_matrix(3, 3, rank=rank, rng=RNG)


def test_random_unitary_is_unitary():
    u = random_unitary(3, rng=3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)


def eigvalsh_psd_rule(mat):
    """The PSD decision as an exact smallest-eigenvalue test: the violation
    DensityMatrix must report, or None for a pass."""
    low = float(np.linalg.eigvalsh(mat)[..., 0].min())
    return -low if low < -PSD_TOL else None


def state_with_spectrum(low, rng):
    """Unit-trace Hermitian matrix with smallest eigenvalue `low` in a Haar
    random basis."""
    rest = rng.uniform(0.5, 1.5, size=8)
    eigs = np.r_[low, rest * (1.0 - low) / rest.sum()]
    u = random_unitary(9, rng=rng)
    mat = (u * eigs) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


# At offset 0 the rounding of eigvalsh itself decides, so only agreement with
# the exact rule is required there.
@pytest.mark.parametrize("offset,accepted", [(-1e-13, False), (-1e-14, False), (0.0, None),
                                             (1e-14, True), (1e-13, True)])
def test_psd_boundary_matches_exact_eigenvalue_rule(offset, accepted):
    rng = np.random.default_rng(31)
    for _ in range(20):
        mat = state_with_spectrum(-PSD_TOL + offset, rng)
        expected = eigvalsh_psd_rule(mat)
        if expected is None:
            DensityMatrix(mat, (3, 3))
        else:
            with pytest.raises(ValidationError) as exc:
                DensityMatrix(mat, (3, 3))
            assert exc.value.violations == {"psd": expected}
        assert accepted is None or (expected is None) == accepted


def test_valid_states_are_certified_without_eigvalsh(monkeypatch):
    rank1 = random_density_matrix(3, 3, rank=1, rng=RNG).matrix
    stack = np.stack([random_density_matrix(3, 3, rng=RNG).matrix for _ in range(5)])

    def refuse(*args, **kwargs):
        raise AssertionError("valid states should pass the Cholesky check")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for mat in (rank1, make_bell_state(3).matrix, stack):
        DensityMatrix(mat, (3, 3))


def stack_with_one_bad_member():
    """Nine states of ranks 1-9, the seventh with smallest eigenvalue -3e-9."""
    rng = np.random.default_rng(5)
    stack = np.stack([random_density_matrix(3, 3, rank=1 + k % 9, rng=rng).matrix
                      for k in range(9)])
    stack[6] = state_with_spectrum(-3e-9, rng)
    return stack


def test_stack_with_one_bad_member_names_its_violation():
    stack = stack_with_one_bad_member()
    with pytest.raises(ValidationError) as exc:
        DensityMatrix(stack, (3, 3))
    assert set(exc.value.violations) == {"psd"}
    low = np.linalg.eigvalsh(stack[6])[0]
    assert abs(exc.value.violations["psd"] + low) <= 1e-15


def test_only_unproven_states_reach_eigvalsh(monkeypatch):
    stack = stack_with_one_bad_member()
    shapes = []

    def spy(mat):
        shapes.append(mat.shape)
        return eigvalsh(mat)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    with pytest.raises(ValidationError):
        DensityMatrix(stack, (3, 3))
    assert shapes == [(1, 9, 9)]


def test_positive_definite_decides_each_matrix_on_its_own():
    assert oracle._positive_definite is linalg._positive_definite
    rng = np.random.default_rng(71)
    a = rng.standard_normal((5, 6, 6))
    stack = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(6)
    assert linalg._positive_definite(stack).all()
    stack[[1, 3]] -= 2.0 * np.linalg.eigvalsh(stack[[1, 3]])[:, -1, None, None] * np.eye(6)
    expected = [True, False, True, False, True]
    np.testing.assert_array_equal(linalg._positive_definite(stack), expected)
    for n in range(5):
        np.testing.assert_array_equal(linalg._positive_definite(stack[n:n + 1]), expected[n])
    # the same decisions on a complex Hermitian stack
    a = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    stack = a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(6)
    stack[[0, 4]] -= 2.0 * np.linalg.eigvalsh(stack[[0, 4]])[:, -1, None, None] * np.eye(6)
    np.testing.assert_array_equal(linalg._positive_definite(stack),
                                  [False, True, True, True, False])
    # one indefinite matrix among 32, also as the strided [:, :6, :6] view of
    # larger matrices that the oracle's Newton steps pass (NaN outside the view)
    rng = np.random.default_rng(72)
    a = rng.standard_normal((32, 6, 6))
    stack = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(6)
    stack[19] -= 2.0 * np.linalg.eigvalsh(stack[19])[-1] * np.eye(6)
    full = np.full((32, 8, 8), np.nan)
    full[:, :6, :6] = stack
    for hess in (stack, full[:, :6, :6]):
        np.testing.assert_array_equal(linalg._positive_definite(hess), np.arange(32) != 19)


def test_trace_and_psd_violations_reported_together():
    mat = np.diag([0.6, 0.5, -0.2] + [0.0] * 6).astype(complex)
    with pytest.raises(ValidationError) as exc:
        DensityMatrix(mat, (3, 3))
    assert exc.value.violations == pytest.approx({"trace": 0.1, "psd": 0.2}, abs=1e-15)


def test_empty_stack_is_refused_by_shape():
    with pytest.raises(ValueError, match=r"empty stack of shape \(0, 9, 9\)"):
        DensityMatrix(np.zeros((0, 9, 9), dtype=complex), (3, 3))
    with pytest.raises(ValueError, match=r"empty stack of shape \(0, 9, 9\)"):
        evolve(make_bell_state(3), "dephasing", "dephasing", np.array([]), 0.5, 1.0)
