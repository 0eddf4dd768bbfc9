"""Dense matrix primitives for small bipartite qudit systems.

Composite indices follow the row-major, left-factor-major convention: basis
state (i, j) of a d1 x d2 system sits at index i * d2 + j, matching np.kron.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
EIGENVALUE_HERMITICITY_TOL = 1e-10  # what hermitian_eigenvalues accepts


class ValidationError(ValueError):
    """A matrix failed a structural invariant.

    violations maps the invariant name ("hermiticity", "trace", "psd", ...)
    to the measured violation magnitude.
    """

    def __init__(self, message: str, violations: dict[str, float] | None = None):
        super().__init__(message)
        self.violations = dict(violations or {})


def _integer_at_least(value, least: int) -> bool:
    """Whether value is an integer (not a bool) of at least least."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= least


def _finite_nonnegative(value) -> bool:
    """Whether value is a real number (not a bool), finite and non-negative."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and 0 <= value < math.inf


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: for arrays that are cached or shared."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _psd_shift(dim: int) -> np.ndarray:
    return _read_only((PSD_TOL / 2) * np.eye(dim))


def _positive_definite(mats: np.ndarray) -> np.ndarray:
    """Whether Cholesky factors each real or complex matrix of the stack, decided per matrix:
    the kernel under np.linalg.cholesky, which raises once for a stack, fills failures with NaN."""
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(mats)
    return ~np.isnan(factor[..., -1, -1])


def _density_violations(mat: np.ndarray, dim: int) -> dict[str, float]:
    out: dict[str, float] = {}
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix or a stack of them, got shape {mat.shape}")
    if mat.size == 0:
        raise ValueError(f"cannot certify an empty stack of shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    herm = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if herm > HERMITICITY_TOL:
        out["hermiticity"] = herm
    trace = float(np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0).max())
    if trace > TRACE_TOL:
        out["trace"] = trace
    if "hermiticity" in out:  # eigvalsh is only meaningful once Hermiticity holds
        return out
    if not out:
        # At unit trace, Cholesky's backward error is ~ dim * eps, so a state whose
        # mat + (PSD_TOL / 2) I factors has every eigenvalue above -PSD_TOL; eigvalsh
        # decides the rest, whose minimum is the stack's whenever one violates.
        mat = mat[~_positive_definite(mat + _psd_shift(dim))]
        if not mat.size:
            return out
    low = float(np.linalg.eigvalsh(mat)[..., 0].min())
    if low < -PSD_TOL:
        out["psd"] = -low
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Certified quantum state on a d1 x d2 bipartite system, or an (N, d, d)
    stack of such states.

    Construction validates Hermiticity (1e-12), unit trace (1e-12) and
    positivity (smallest eigenvalue >= -1e-10) of every state and freezes the
    array, so any DensityMatrix in circulation holds only valid states. The
    dtype follows the data: float64 for real, integer or bool input,
    complex128 for complex input.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        if not all(_integer_at_least(d, 1) for d in self.dims):
            raise ValueError(f"subsystem dimensions must be positive integers, got {self.dims}")
        d1, d2 = map(int, self.dims)
        # A copy, complex128 for complex input, else float64: complex objects raise
        mat = np.asarray(self.matrix)
        mat = mat.astype(complex if mat.dtype.kind == "c" else float)
        violations = _density_violations(mat, d1 * d2)
        if violations:
            detail = ", ".join(f"{k} off by {v:.3e}" for k, v in violations.items())
            raise ValidationError(f"not a density matrix: {detail}", violations)
        object.__setattr__(self, "matrix", _read_only(mat))
        object.__setattr__(self, "dims", (d1, d2))


def validate_density_matrix(matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """Certify a raw matrix as a density matrix or raise ValidationError."""
    return DensityMatrix(matrix, tuple(dims))


def make_bell_state(d: int) -> DensityMatrix:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> as a density matrix."""
    if d < 2:
        raise ValueError(f"need subsystem dimension >= 2, got {d}")
    amp = np.zeros(d * d)
    amp[(d + 1) * np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(amp, amp), (d, d))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the package's index convention."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_transpose(rho: DensityMatrix, subsystem: str = "A") -> np.ndarray:
    """Transpose one subsystem in place; the result is generally not a state.
    A stack of states gives a stack of partial transposes."""
    d1, d2 = rho.dims
    lead = rho.matrix.shape[:-2]
    r4 = rho.matrix.reshape(lead + (d1, d2, d1, d2))
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    out = r4.swapaxes(-4, -2) if subsystem == "A" else r4.swapaxes(-3, -1)
    return out.copy().reshape(lead + (d1 * d2, d1 * d2))


def partial_trace(rho: DensityMatrix, keep: str = "A") -> np.ndarray:
    """Reduced state of one subsystem. A stack of states gives a stack of
    reduced states."""
    d1, d2 = rho.dims
    r4 = rho.matrix.reshape(rho.matrix.shape[:-2] + (d1, d2, d1, d2))
    if keep == "A":
        return np.einsum("...abcb->...ac", r4)
    if keep == "B":
        return np.einsum("...abad->...bd", r4)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (or of each matrix in a stack),
    sorted non-increasing."""
    mat = np.asarray(matrix)
    if not np.isfinite(mat).all():  # before any arithmetic, which would warn on inf
        raise ValueError("matrix is not Hermitian (non-finite entries)")
    dev = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if not dev <= EIGENVALUE_HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(mat)[..., ::-1]


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values."""
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return float(np.linalg.svd(mat, compute_uv=False).sum())


@lru_cache(maxsize=None)
def su_generators(d: int) -> tuple[np.ndarray, ...]:
    """Generalized Gell-Mann basis of su(d): traceless Hermitian generators
    with Tr(g_k g_l) = 2 delta_kl.

    Ordering: symmetric off-diagonal pairs (j < k, lexicographic), the
    matching antisymmetric pairs, then the d - 1 diagonal generators. For
    d = 2 this is exactly Pauli X, Y, Z.
    """
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    gens: list[np.ndarray] = []
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for upper in (1.0, -1.0j):  # the symmetric, then the antisymmetric pairs
        for j, k in pairs:
            g = np.zeros((d, d), dtype=complex)
            g[j, k], g[k, j] = upper, np.conj(upper)
            gens.append(g)
    for l in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        g[np.arange(l), np.arange(l)] = 1.0
        g[l, l] = -float(l)
        gens.append(np.sqrt(2.0 / (l * (l + 1))) * g)
    return tuple(map(_read_only, gens))


def random_density_matrix(d1: int, d2: int = 1, rank: int | None = None,
                          rng: np.random.Generator | int | None = None) -> DensityMatrix:
    """Ginibre-sampled random state on a d1 x d2 system (full rank by default)."""
    rng = np.random.default_rng(rng)
    dim = d1 * d2
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace().real, (d1, d2))


def random_unitary(d: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
