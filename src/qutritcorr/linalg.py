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


class ConfigError(ValueError):
    """A refused argument or configuration field: field names it, and the message is as given."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _shown(value) -> str:
    """A refused value for its message: a number as printed, anything else by repr ("0.5" quoted)."""
    return str(value) if isinstance(value, numbers.Number) else repr(value)


def _instance(value, kind: type | tuple[type, ...], name: str):
    """value, if it is a kind (or of the kinds, named by the first); else refused by name."""
    if not isinstance(value, kind):
        expected = (kind if isinstance(kind, type) else kind[0]).__name__
        raise ConfigError(name, f"{name} must be a {expected}, got {type(value).__name__}")
    return value


def _integer(value, least: int, name: str) -> int:
    """value as an int, if it is an integer (not a bool) of at least least; else refused by name."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigError(name, f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _nonnegative(value, name: str, most: float = math.inf):
    """value, if it is a real number (not a bool), finite and in [0, most]; else refused by name."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and 0 <= value <= most and value < math.inf):
        bounds = "be finite and non-negative" if most == math.inf else f"lie in [0, {most:g}]"
        raise ConfigError(name, f"{name} must {bounds}, got {_shown(value)}")
    return value


def _choice(value, choices, name: str) -> str:
    """value, if it is a string among choices, tested before a lookup can hash it; else refused."""
    if not (isinstance(value, str) and value in choices):
        known = ", ".join(map(repr, choices))
        raise ConfigError(name, f"{name} must be one of {known}, got {value!r}")
    return value


def _side(value, name: str) -> bool:
    """Whether value, which must be the string 'A' or 'B', is 'A'."""
    return _choice(value, ("A", "B"), name) == "A"


def _numbers(value, name: str, dim: int | None = None, stack: bool = True) -> np.ndarray:
    """value as a new float64 array, complex128 for complex input; never cut to its real part.
    It must be one dim x dim matrix (any square one when dim is None) or, with stack, a
    non-empty (N, dim, dim) stack of them; any other shape is refused by name."""
    mat = np.asarray(value)
    if not (mat.ndim in ((2, 3) if stack else (2,)) and mat.size
            and mat.shape[-1] == mat.shape[-2] and dim in (None, mat.shape[-1])):
        kind = "square" if dim is None else f"{dim}x{dim}"
        stacked = " or a stack of them" if stack else ""
        raise ConfigError(name, f"{name} must be a {kind} matrix{stacked}, got shape {mat.shape}")
    try:
        mat = mat.astype(complex if mat.dtype.kind == "c" else float)
    except TypeError:  # objects, complex numbers among them, that do not cast to float
        raise ConfigError(name, f"{name} must hold real numbers or be complex, "
                                f"got {mat.dtype}") from None
    if not np.isfinite(mat).all():  # NaN, inf or None: refused before arithmetic can warn
        raise ConfigError(name, f"{name} must hold finite numbers")
    return mat


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: for arrays that are cached or shared."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _psd_shift(dim: int, tol: float) -> np.ndarray:
    return _read_only((tol / 2) * np.eye(dim))


def _positive_definite(mats: np.ndarray) -> np.ndarray:
    """Whether Cholesky factors each real or complex matrix of the stack, decided per matrix:
    the kernel under np.linalg.cholesky, which raises once for a stack, fills failures with NaN."""
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(mats)
    return ~np.isnan(factor[..., -1, -1])


def _converged(first: np.ndarray, message: str) -> np.ndarray:
    """A LAPACK kernel's first output; NaN, its report of a failure (which also warns), raises."""
    if np.isnan(first).any():
        raise np.linalg.LinAlgError(message)
    return first


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """numpy's eigvalsh kernel without its Python wrapper, the same bits on float64 and complex128."""
    return _converged(_umath_linalg.eigvalsh_lo(mats), "Eigenvalues did not converge")


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors from numpy's eigh kernel, as `_eigvalsh` reads eigenvalues."""
    eigs, vecs = _umath_linalg.eigh_lo(mats)
    return _converged(eigs, "Eigenvalues did not converge"), vecs


def _solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with mats @ x = rhs from numpy's solve kernel, as `_eigvalsh`; a singular matrix raises."""
    return _converged(_umath_linalg.solve(mats, rhs), "Singular matrix")


def _eigvalsh_below(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Which Hermitian unit-trace matrices may have an eigenvalue below -tol, and the ascending
    `_eigvalsh` of those alone (not called for none): Cholesky's backward error at unit trace is
    ~ dim * eps, so a matrix that factors with a (tol / 2) I shift has every eigenvalue above -tol."""
    maybe = ~_positive_definite(mats + _psd_shift(mats.shape[-1], tol))
    return maybe, _eigvalsh(mats[maybe]) if maybe.any() else np.zeros((0, mats.shape[-1]))


def _dims(value) -> tuple[int, int]:
    """value as a pair (d1, d2) of integers >= 1; else refused as dims."""
    if not (np.iterable(value) and len(value) == 2):
        raise ConfigError("dims", f"dims must be a pair (d1, d2), got {value!r}")
    return tuple(_integer(d, 1, "dims") for d in value)


@dataclass(frozen=True)
class DensityMatrix:
    """Certified quantum state on a d1 x d2 bipartite system, or an (N, d, d)
    stack of such states.

    Construction validates Hermiticity (1e-12), unit trace (1e-12) and
    positivity (smallest eigenvalue >= -1e-10) of every state and freezes the
    array, so any DensityMatrix in circulation holds only valid states. The
    dtype follows the data: float64 for real, integer or bool input,
    complex128 for complex input.

    `channels.evolve`'s states are certified by construction (`_derived`): unital positive maps
    give Phi(rho) >= lambda_min(rho) I, as `test_evolve_keeps_every_state_valid` checks; a
    non-unital family must prove its own eigenvalue bound there before evolve may take it.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        d1, d2 = _dims(self.dims)
        mat = _numbers(self.matrix, "matrix", d1 * d2)
        out: dict[str, float] = {}
        herm = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
        if herm > HERMITICITY_TOL:
            out["hermiticity"] = herm
        trace = float(np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0).max())
        if trace > TRACE_TOL:
            out["trace"] = trace
        if "hermiticity" not in out:  # eigvalsh is only meaningful once Hermiticity holds
            eigs = _eigvalsh(mat) if out else _eigvalsh_below(mat, PSD_TOL)[1]
            if eigs.size and eigs[..., 0].min() < -PSD_TOL:
                out["psd"] = -float(eigs[..., 0].min())
        if out:
            detail = ", ".join(f"{k} off by {v:.3e}" for k, v in out.items())
            raise ValidationError(f"not a density matrix: {detail}", out)
        vars(self).update(matrix=_read_only(mat), dims=(d1, d2))

    @classmethod
    def _derived(cls, matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
        """A state of evolve's (see above), certified by construction: only wrapped and frozen."""
        state = object.__new__(cls)
        vars(state).update(matrix=_read_only(matrix), dims=dims)
        return state


def validate_density_matrix(matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """Certify a raw matrix as a density matrix or raise ValidationError."""
    return DensityMatrix(matrix, dims)


def make_bell_state(d: int) -> DensityMatrix:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> as a density matrix."""
    d = _integer(d, 2, "d")
    amp = np.zeros(d * d)
    amp[(d + 1) * np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(amp, amp), (d, d))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the package's index convention."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_transpose(rho: DensityMatrix, subsystem: str = "A") -> np.ndarray:
    """Transpose one subsystem of a state or of each in a stack; the result is generally not a state."""
    d1, d2 = _instance(rho, DensityMatrix, "rho").dims
    r4 = rho.matrix.reshape(rho.matrix.shape[:-2] + (d1, d2, d1, d2))
    out = r4.swapaxes(-4, -2) if _side(subsystem, "subsystem") else r4.swapaxes(-3, -1)
    return out.copy().reshape(rho.matrix.shape)


def partial_trace(rho: DensityMatrix, keep: str = "A") -> np.ndarray:
    """Reduced state of one subsystem. A stack of states gives a stack of reduced states."""
    d1, d2 = _instance(rho, DensityMatrix, "rho").dims
    r4 = rho.matrix.reshape(rho.matrix.shape[:-2] + (d1, d2, d1, d2))
    return np.einsum("...abcb->...ac" if _side(keep, "keep") else "...abad->...bd", r4)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (or of each matrix in a stack), sorted non-increasing."""
    mat = _numbers(matrix, "matrix")
    dev = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if not dev <= EIGENVALUE_HERMITICITY_TOL:
        raise ConfigError("matrix", f"matrix is not Hermitian (max deviation {dev:.3e})")
    return _eigvalsh(mat)[..., ::-1]


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values of one square matrix."""
    return float(np.linalg.svd(_numbers(matrix, "matrix", stack=False), compute_uv=False).sum())


@lru_cache(maxsize=None)
def su_generators(d: int) -> tuple[np.ndarray, ...]:
    """Generalized Gell-Mann basis of su(d): traceless Hermitian generators
    with Tr(g_k g_l) = 2 delta_kl.

    Ordering: symmetric off-diagonal pairs (j < k, lexicographic), the
    matching antisymmetric pairs, then the d - 1 diagonal generators. For
    d = 2 this is exactly Pauli X, Y, Z.
    """
    d = _integer(d, 2, "d")
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
    dim = _integer(d1, 1, "d1") * _integer(d2, 1, "d2")
    rank = dim if rank is None else _integer(rank, 1, "rank")
    if rank > dim:
        raise ConfigError("rank", f"rank must be in 1..{dim}, got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace().real, (d1, d2))


def random_unitary(d: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    d, rng = _integer(d, 1, "d"), np.random.default_rng(rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
