"""Brute-force geometric discord via measurement-basis search, plus
closed-form references for the channel dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _apply_superoperators, _liouville
from .linalg import DensityMatrix, su_generators
from .measures import GdConvention, PAPER_CONVENTION

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the measurement-basis search.

    value is the minimal squared Hilbert-Schmidt distance found, basis the
    unitary whose columns realize it, residual a finite-difference
    stationarity estimate at that basis (large residual flags a search that
    stopped short).
    """

    value: float
    basis: np.ndarray
    restarts_used: int
    seed: int
    residual: float


def _expi(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def project_measurement(rho: DensityMatrix, basis: np.ndarray, side: str = "A") -> DensityMatrix:
    """Dephase one subsystem in an orthonormal basis:
    rho -> sum_k (P_k x I) rho (P_k x I) with P_k = |u_k><u_k|."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    d1, d2 = rho.dims
    d = d1 if side == "A" else d2
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (d, d):
        raise ValueError(f"basis must be {d}x{d}, got shape {basis.shape}")
    dev = float(np.abs(basis.conj().T @ basis - np.eye(d)).max())
    if dev > UNITARITY_TOL:
        raise ValueError(f"basis matrix is not unitary (deviation {dev:.3e})")
    projectors = np.einsum("ik,jk->kij", basis, basis.conj())
    measured = _liouville(projectors)
    untouched = np.eye((d2 if side == "A" else d1) ** 2)
    s_a, s_b = (measured, untouched) if side == "A" else (untouched, measured)
    return DensityMatrix(_apply_superoperators(rho.matrix, rho.dims, s_a, s_b), rho.dims)


def _objective(rho4: np.ndarray, norm_sq: float, basis: np.ndarray) -> float:
    # The measured state is an orthogonal projection of rho in
    # Hilbert-Schmidt space, so the squared distance splits as
    # |rho|^2 - sum_k |<u_k|rho|u_k>|^2 over the conditional blocks.
    cols = basis.T
    blocks = np.einsum("kx,xbyd,ky->kbd", cols.conj(), rho4, cols)
    return norm_sq - float(np.vdot(blocks, blocks).real)


def _coordinate_descent(rho4, norm_sq, basis, gens, tol, min_step, max_sweeps=500):
    val = _objective(rho4, norm_sq, basis)
    step = 0.5
    sweeps = 0
    while step >= min_step and sweeps < max_sweeps:
        rotations = [_expi(sign * step * g) for g in gens for sign in (1.0, -1.0)]
        while sweeps < max_sweeps:
            sweeps += 1
            before = val
            for rot in rotations:
                cand = rot @ basis
                cand_val = _objective(rho4, norm_sq, cand)
                if cand_val < val:
                    val, basis = cand_val, cand
            if before - val <= tol:
                break
        step *= 0.5
    return val, basis


def _stationarity_residual(rho4, norm_sq, basis, gens, delta=1e-4):
    grads = []
    for g in gens:
        plus = _objective(rho4, norm_sq, _expi(delta * g) @ basis)
        minus = _objective(rho4, norm_sq, _expi(-delta * g) @ basis)
        grads.append(abs(plus - minus) / (2.0 * delta))
    return float(max(grads))


def gd_exact(rho: DensityMatrix, restarts: int = 32, seed: int = 0, side: str = "A",
             tol: float = 1e-9, min_step: float = 1e-6) -> OracleResult:
    """Minimize the squared Hilbert-Schmidt distance between rho and its
    measured version over von Neumann measurement bases on one side.

    Derivative-free coordinate descent: each restart starts from exp(i H)
    with H a seeded Gaussian Hermitian matrix, then repeatedly probes
    rotations exp(+-i step g_k) along the su(d) generator directions, halving
    the step whenever a sweep improves the objective by less than tol.
    Restart r draws from default_rng([seed, r]), so results are deterministic
    for a fixed (seed, restarts) pair.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    d1, d2 = rho.dims
    d = d1 if side == "A" else d2
    rho4 = rho.matrix.reshape(d1, d2, d1, d2)
    if side == "B":
        rho4 = rho4.transpose(1, 0, 3, 2)
    rho4 = np.ascontiguousarray(rho4)
    norm_sq = float(np.vdot(rho.matrix, rho.matrix).real)
    gens = su_generators(d)
    best_val, best_basis = np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        start = _expi((raw + raw.conj().T) / 2.0)
        val, basis = _coordinate_descent(rho4, norm_sq, start, gens, tol, min_step)
        if val < best_val:
            best_val, best_basis = val, basis
    residual = _stationarity_residual(rho4, norm_sq, best_basis, gens)
    return OracleResult(value=float(max(best_val, 0.0)), basis=best_basis,
                        restarts_used=restarts, seed=seed, residual=residual)


def _check_nonnegative(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def analytic_negativity_dephasing(q_a: float, q_b: float, t: float) -> float:
    """Negativity of the qutrit Bell state after two-sided dephasing.

    The three coherence pairs decay as s, s, s^2 with
    s = exp(-(q_a + q_b) t / 2) and each contributes |c|/3.
    """
    _check_nonnegative(q_a=q_a, q_b=q_b, t=t)
    s = float(np.exp(-(q_a + q_b) * t / 2.0))
    return (2.0 * s + s * s) / 3.0


def analytic_negativity_depolarizing(q_a: float, q_b: float, t: float) -> float:
    """Negativity of the qutrit Bell state after two-sided depolarizing
    noise: max(0, (4p - 1)/3) with p = exp(-(q_a + q_b) t), vanishing at
    t = ln(4)/(q_a + q_b)."""
    _check_nonnegative(q_a=q_a, q_b=q_b, t=t)
    p = float(np.exp(-(q_a + q_b) * t))
    return max(0.0, (4.0 * p - 1.0) / 3.0)


def analytic_gd_isotropic(p: float, convention: GdConvention = PAPER_CONVENTION) -> float:
    """Discord of the isotropic family p Bell + (1-p) I/9; the closed-form
    lower bound is tight here, (2/3) p^2 in the raw convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    base = 2.0 * p * p / 3.0
    return 2.0 * base if convention.prefactor_mode == "paper" else base
