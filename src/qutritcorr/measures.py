"""Entanglement negativity, the Bloch decomposition, and the closed-form
geometric-discord lower bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (ConfigError, DensityMatrix, _choice, _dims, _eigvalsh, _eigvalsh_below,
                     _instance, _nonnegative, _numbers, _read_only, make_bell_state, su_generators)

NEGATIVITY_EIG_TOL = 1e-12


@dataclass(frozen=True)
class GdConvention:
    """Scaling convention for the discord lower bound.

    prefactor_mode "raw" applies 2/(d1^2 d2), which makes the result a true
    lower bound on the squared Hilbert-Schmidt distance to the nearest
    measured state; "paper" doubles that to 4/(d1^2 d2).
    """

    prefactor_mode: str = "paper"

    def __post_init__(self):
        _choice(self.prefactor_mode, ("paper", "raw"), "prefactor_mode")

    def prefactor(self, d1: int, d2: int) -> float:
        num = 4.0 if self.prefactor_mode == "paper" else 2.0
        return num / (d1 * d1 * d2)


PAPER_CONVENTION = GdConvention("paper")
RAW_CONVENTION = GdConvention("raw")


@dataclass(frozen=True)
class BlochDecomposition:
    """Local Bloch vectors and the correlation matrix of a bipartite state;
    for a stack of states each field gains a leading axis."""

    y_a: np.ndarray
    z_b: np.ndarray
    corr: np.ndarray


@lru_cache(maxsize=None)
def _generator_table(d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows vec(op^T) of the operators g_k x I, then I x g_l, then g_k x g_l,
    so that Tr(op rho) = row . vec(rho), and the factor d1/2, d2/2 or d1 d2/4
    that scales each row's trace to a Bloch coefficient; read-only."""
    gen_a, gen_b = su_generators(d1), su_generators(d2)
    eye_a, eye_b = np.eye(d1), np.eye(d2)
    ops = ([np.kron(g, eye_b) for g in gen_a] + [np.kron(eye_a, g) for g in gen_b]
           + [np.kron(ga, gb) for ga in gen_a for gb in gen_b])
    table = np.stack(ops).swapaxes(-1, -2).reshape(len(ops), -1)
    n1, n2 = len(gen_a), len(gen_b)
    scale = np.repeat([0.5 * d1, 0.5 * d2, 0.25 * d1 * d2], [n1, n2, n1 * n2])
    return _read_only(table), _read_only(scale)


def bloch_decomposition(rho: DensityMatrix) -> BlochDecomposition:
    """Expansion coefficients y_k = (d1/2) Tr(rho g_k x I),
    z_l = (d2/2) Tr(rho I x g_l), v_kl = (d1 d2/4) Tr(rho g_k x g_l)."""
    d1, d2 = _instance(rho, DensityMatrix, "rho").dims
    n1, n2 = d1 * d1 - 1, d2 * d2 - 1
    table, scale = _generator_table(d1, d2)
    lead = rho.matrix.shape[:-2]
    # the real part alone: for two qutrits |rho - rho^H| <= 1e-12 bounds each imaginary one by 6e-12
    coeffs = (rho.matrix.reshape(-1, table.shape[1]) @ table.T) * scale
    return BlochDecomposition(coeffs.real[:, :n1].reshape(lead + (n1,)),  # views, no copies
                              coeffs.real[:, n1:n1 + n2].reshape(lead + (n2,)),
                              coeffs.real[:, n1 + n2:].reshape(lead + (n1, n2)))


def bloch_synthesis(dec: BlochDecomposition, dims: tuple[int, int]) -> np.ndarray:
    """Inverse of bloch_decomposition: rebuild the density matrix (or stack)."""
    # The operators are Hermitian, so a conjugated table row is vec(op).
    dec = _instance(dec, BlochDecomposition, "dec")
    y_a, z_b, corr = (np.asarray(field) for field in (dec.y_a, dec.z_b, dec.corr))  # lists too
    if not all(v.ndim and v.shape[-1] >= 3 and (v.shape[-1] + 1) ** 0.5 % 1 == 0 for v in (y_a, z_b)):
        raise ConfigError("dec", f"dec.y_a and dec.z_b must be Bloch vectors, of size d^2 - 1 for "
                                 f"some d >= 2, got {y_a.shape} and {z_b.shape}")
    lead, (d1, d2), sizes = y_a.shape[:-1], _dims(dims), (y_a.shape[-1], z_b.shape[-1])
    if sizes != (d1 * d1 - 1, d2 * d2 - 1):
        raise ConfigError("dims", f"dims must give dec's Bloch vector sizes {sizes}, got {dims!r}")
    if (z_b.shape, corr.shape) != (lead + sizes[1:], lead + sizes):
        raise ConfigError("dec", f"dec.z_b and dec.corr must have shapes {lead + sizes[1:]} and "
                                 f"{lead + sizes}, got {z_b.shape} and {corr.shape}")
    d = d1 * d2
    coeffs = np.concatenate([y_a, z_b, corr.reshape(lead + (-1,))], axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):  # _numbers refuses a non-finite dec
        mats = (np.eye(d) + (coeffs @ _generator_table(d1, d2)[0].conj()).reshape(-1, d, d)) / d
    return _numbers(mats, "dec").reshape(lead + (d, d))


@lru_cache(maxsize=None)
def _sector_pt_index(d1: int, d2: int) -> np.ndarray:
    """Flat indices into rho that read its partial transpose over A with rows and columns in the
    order of ((i + j) mod d2, i d2 + j) for basis state (i, j); read-only."""
    d = d1 * d2
    order = sorted(range(d), key=lambda n: ((n // d2 + n % d2) % d2, n))
    natural = np.arange(d * d).reshape(d1, d2, d1, d2).swapaxes(0, 2).reshape(d, d)
    return _read_only(natural[np.ix_(order, order)])


def negativity(rho: DensityMatrix) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose over A.

    Equals (trace_norm(rho^T_A) - 1) / 2; eigenvalues within 1e-12 of zero
    are not counted as negative. A stack of states gives an array.
    """
    # A certified state's PT only permutes its entries, so needs no check. Read in (i + j) mod 3
    # order, the PT of a state commuting with Z x Z^dagger (every Bell sweep state) is three
    # exact 3x3 blocks, which eigvalsh splits; a permutation leaves the spectrum alone. A row
    # the screen clears reads 0; the rest are summed descending, fixing the last bit.
    d1, d2 = _instance(rho, DensityMatrix, "rho").dims
    pt = rho.matrix.reshape(rho.matrix.shape[:-2] + (-1,))[..., _sector_pt_index(d1, d2)]
    npt, eigs = _eigvalsh_below(pt, NEGATIVITY_EIG_TOL)
    neg = np.zeros(npt.shape)
    if eigs.size:
        neg[npt] = np.where(eigs[..., ::-1] < -NEGATIVITY_EIG_TOL, -eigs[..., ::-1], 0.0).sum(axis=-1)
    return float(neg) if rho.matrix.ndim == 2 else neg


@lru_cache(maxsize=None)
def _bound_table(d1: int, d2: int, dtype: np.dtype) -> np.ndarray:
    """Columns (k, 0) = (d1/2) g_k x I and (k, l) = sqrt(2/d2) (d1 d2/4) g_k x g_l of
    `_generator_table`, so vec(rho) times it is S = [y | sqrt(2/d2) V]; read-only. For complex128
    its rows alternate Re and -Im, so the float view of vec(rho) gives Re Tr(op rho)."""
    table, scale = _generator_table(d1, d2)
    n1, n2 = d1 * d1 - 1, d2 * d2 - 1
    pick = np.c_[np.arange(n1), n1 + n2 + np.arange(n1 * n2).reshape(n1, n2)].ravel()
    cols = (table[pick] * (scale[pick] * np.where(pick < n1, 1.0, np.sqrt(2.0 / d2)))[:, None]).T
    parts = (cols.real,) if dtype == np.float64 else (cols.real, -cols.imag)
    return _read_only(np.stack(parts, axis=1).reshape(-1, cols.shape[1]))


def _gd_lower(mats: np.ndarray, dims: tuple[int, int], convention: GdConvention):
    """The bound of any Hermitian (..., d, d) float64 or complex128 array, a float for one matrix:
    the d1 (d1 - 1) smallest eigenvalues of G = S S^T summed (no cancellation, and the exact zero
    rows of G on classical-quantum states give an exact 0), scaled and clamped at 0."""
    d1, d2 = dims
    flat = mats.reshape(-1, mats.shape[-1] ** 2)  # 2-D for one matrix too: a stack row's bits
    s = flat.view(float) @ _bound_table(d1, d2, flat.dtype)
    s = s.reshape(mats.shape[:-2] + (d1 * d1 - 1, d2 * d2))
    bracket = _eigvalsh(s @ s.swapaxes(-1, -2))[..., : d1 * (d1 - 1)].sum(axis=-1)
    value = np.maximum(0.0, convention.prefactor(d1, d2) * bracket)
    return float(value) if mats.ndim == 2 else value


def gd_lower_bound(rho: DensityMatrix,
                   convention: GdConvention = PAPER_CONVENTION) -> float | np.ndarray:
    """Closed-form lower bound on the geometric discord, measurement on A.

    G = y y^T + (2/d2) V V^T from the Bloch decomposition, read as S S^T with
    S = [y | sqrt(2/d2) V] from one product with a cached table over vec(rho);
    the trace of G less its d1 - 1 largest eigenvalues, scaled by the convention
    prefactor. A negative bracket (possible under floating point for
    zero-discord states) gives 0. A stack of states gives an array.
    """
    return _gd_lower(_instance(rho, DensityMatrix, "rho").matrix, rho.dims,
                     _instance(convention, GdConvention, "convention"))


def isotropic_family(p: float) -> DensityMatrix:
    """Mixture p |Phi><Phi| + (1 - p) I/9 of the qutrit Bell state with
    white noise."""
    _nonnegative(p, "p", 1.0)
    return DensityMatrix(p * make_bell_state(3).matrix + (1.0 - p) * np.eye(9) / 9.0, (3, 3))
