"""Brute-force geometric discord via measurement-basis search, plus
closed-form references for the channel dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    """exp(i h) for a Hermitian h, or for each matrix of a stack."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


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


def _gram(rho4: np.ndarray) -> np.ndarray:
    """K[(x,y), (x',y')] = Tr(rho_xy^H rho_x'y') over the conditional blocks
    rho_xy = <x|rho|y> of the measured side."""
    d, d2 = rho4.shape[:2]
    blocks = rho4.transpose(0, 2, 1, 3).reshape(d * d, d2 * d2)
    return blocks.conj() @ blocks.T


def _objective(gram: np.ndarray, norm_sq: float, bases: np.ndarray) -> np.ndarray:
    # The measured state is an orthogonal projection of rho in
    # Hilbert-Schmidt space, so the squared distance splits as
    # |rho|^2 - sum_k |<u_k|rho|u_k>|^2 over the conditional blocks, and
    # |<u_k|rho|u_k>|^2 = c_k^H K c_k with c_k = vec(conj(u_k) u_k^T).
    n, d = bases.shape[0], bases.shape[-1]
    coef = (bases.conj()[:, :, None, :] * bases[:, None, :, :]).reshape(n, d * d, d)
    overlap = coef.conj() * (gram @ coef)
    return norm_sq - overlap.real.sum(axis=(1, 2))


@lru_cache(maxsize=8)
def _rotation_table(d: int, min_step: float) -> np.ndarray:
    """exp(+-i s g_k) for s = 1/2, 1/4, ... down to min_step, shaped
    (levels, probes, d, d) with probes ordered g_1+, g_1-, g_2+, ..."""
    steps = []
    step = 0.5
    while step >= min_step:
        steps.append(step)
        step *= 0.5
    gens = su_generators(d)
    table = _expi(np.array([[sign * s * g for g in gens for sign in (1.0, -1.0)]
                            for s in steps]))
    table.setflags(write=False)
    return table


def _coordinate_descent(gram, norm_sq, bases, table, tol, max_sweeps=500):
    """Descend every restart of the (R, d, d) stack in lockstep.

    A sweep tries each probe rotation at the restart's own step level and
    keeps it when it lowers that restart's objective. A restart moves to the
    next, halved step once a sweep gains at most tol, and stops when it runs
    out of levels or reaches max_sweeps sweeps.
    """
    n_levels, n_probes = table.shape[:2]
    vals = _objective(gram, norm_sq, bases)
    level = np.zeros(len(bases), dtype=int)
    sweeps = np.zeros(len(bases), dtype=int)
    live = np.arange(len(bases))
    while live.size:
        cur, cur_vals, cur_level = bases[live], vals[live], level[live]
        before = cur_vals
        for p in range(n_probes):
            cand = table[cur_level, p] @ cur
            cand_vals = _objective(gram, norm_sq, cand)
            better = cand_vals < cur_vals
            cur_vals = np.where(better, cand_vals, cur_vals)
            cur = np.where(better[:, None, None], cand, cur)
        bases[live], vals[live] = cur, cur_vals
        sweeps[live] += 1
        level[live] += before - cur_vals <= tol
        live = live[(level[live] < n_levels) & (sweeps[live] < max_sweeps)]
    return vals, bases


def _stationarity_residual(gram, norm_sq, basis, gens, delta=1e-4):
    steps = np.array([sign * delta * g for sign in (1.0, -1.0) for g in gens])
    vals = _objective(gram, norm_sq, _expi(steps) @ basis)
    plus, minus = np.split(vals, 2)
    return float((np.abs(plus - minus) / (2.0 * delta)).max())


def gd_exact(rho: DensityMatrix, restarts: int = 32, seed: int = 0, side: str = "A",
             tol: float = 1e-9, min_step: float = 1e-6) -> OracleResult:
    """Minimize the squared Hilbert-Schmidt distance between rho and its
    measured version over von Neumann measurement bases on one side.

    Derivative-free coordinate descent: each restart starts from exp(i H)
    with H a seeded Gaussian Hermitian matrix, then repeatedly probes
    rotations exp(+-i step g_k) along the su(d) generator directions, halving
    the step whenever a sweep improves the objective by less than tol, down
    to min_step. The restarts descend together as one stack, each on its own
    schedule, and the rotations are cached per process. Restart r draws from
    default_rng([seed, r]), so results are deterministic for a fixed
    (seed, restarts) pair.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if not (math.isfinite(min_step) and 0.0 < min_step <= 0.5):
        raise ValueError(f"min_step must lie in (0, 0.5], got {min_step}")
    d1, d2 = rho.dims
    d = d1 if side == "A" else d2
    rho4 = rho.matrix.reshape(d1, d2, d1, d2)
    if side == "B":
        rho4 = rho4.transpose(1, 0, 3, 2)
    gram = _gram(rho4)
    norm_sq = float(np.vdot(rho.matrix, rho.matrix).real)
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        starts.append((raw + raw.conj().T) / 2.0)
    vals, bases = _coordinate_descent(gram, norm_sq, _expi(np.array(starts)),
                                      _rotation_table(d, float(min_step)), tol)
    best = int(np.argmin(vals))
    # A copy, so the result does not keep the whole stack alive.
    basis = bases[best].copy()
    residual = _stationarity_residual(gram, norm_sq, basis, su_generators(d))
    return OracleResult(value=float(max(vals[best], 0.0)), basis=basis,
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
