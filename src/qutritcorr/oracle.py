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
# Newton: Hessian difference step, the gradient norm at which a restart is
# stationary and no longer descended (generic starts sit at about 1e-2, flat
# landscapes of U x U*-invariant states at about 1e-17), step count, step-norm
# cap. A step is taken if it raises f by at most its rounding, ROUNDING_SLACK
# |rho|^2 (up to 0.9e-15 |rho|^2 on random states; a slack of 1e-15 strands
# restarts at about 1e-9), and lowers f or the gradient norm.
HESSIAN_STEP, NEWTON_TOL, NEWTON_ITERATIONS, MAX_STEP, ROUNDING_SLACK = 1e-4, 1e-13, 60, 0.5, 1e-14


# Slots leave out the per-instance dict, which callers keeping many results pay.
@dataclass(frozen=True, slots=True)
class OracleResult:
    """Outcome of the measurement-basis search.

    value is the minimal squared Hilbert-Schmidt distance found, basis the
    unitary whose columns realize it, residual the Frobenius norm of the
    Riemannian gradient at that basis: about 1e-13 or less once Newton has
    converged, so a larger one flags a search that stopped short.
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
    if not np.isfinite(basis).all():  # before any arithmetic, which would warn on inf
        raise ValueError("basis matrix is not unitary (non-finite entries)")
    dev = float(np.abs(basis.conj().T @ basis - np.eye(d)).max())
    if not dev <= UNITARITY_TOL:
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


def _evaluate(gram: np.ndarray, norm_sq: float, bases: np.ndarray):
    """Objective of each basis in the (n, d, d) stack, and the products
    K c_k, shaped (n, d*d, d), that its gradient reuses."""
    # The measured state is an orthogonal projection of rho in
    # Hilbert-Schmidt space, so the squared distance splits as
    # |rho|^2 - sum_k |<u_k|rho|u_k>|^2 over the conditional blocks, and
    # |<u_k|rho|u_k>|^2 = c_k^H K c_k with c_k = vec(conj(u_k) u_k^T).
    n, d = bases.shape[0], bases.shape[-1]
    coef = (bases.conj()[:, :, None, :] * bases[:, None, :, :]).reshape(n, d * d, d)
    kc = gram @ coef
    # Re(conj(c) Kc) summed over all entries, as one real dot product per basis
    return norm_sq - np.einsum("nij,nij->n", coef.view(float), kc.view(float)), kc


def _gradient(kc: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Riemannian gradient X of the objective at each basis U of the stack:
    f(exp(i s H) U) = f(U) + s Tr(H X) + O(s^2) for Hermitian H.

    X = -2i (U W^H - W U^H) with W[:, k] = Z_k u_k and
    Z_k[x, y] = conj((K c_k)[x d + y]); X is traceless Hermitian, and its
    Frobenius norm is the steepest slope over unit-norm directions H.
    """
    n, d = bases.shape[0], bases.shape[-1]
    w_conj = np.einsum("nxyk,nyk->nxk", kc.reshape(n, d, d, d), bases.conj())
    uw = bases @ w_conj.swapaxes(-1, -2)
    return -2j * (uw - uw.conj().swapaxes(-1, -2))


@lru_cache(maxsize=16)
def _start_bases(d: int, seed: int, restarts: int) -> np.ndarray:
    """The seeded starts exp(i H_r), H_r a Gaussian Hermitian matrix drawn
    from default_rng([seed, r]), as a read-only (restarts, d, d) stack."""
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    raw = np.array([g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for g in rngs])
    bases = _expi((raw + raw.conj().swapaxes(-1, -2)) / 2.0)
    bases.setflags(write=False)
    return bases


def _plane_matrix(gram: np.ndarray, bases: np.ndarray, p: int, q: int) -> np.ndarray:
    """G = sum_mu g_mu g_mu^T of each basis in the plane (p, q), with
    g_mu = [M_pp - M_qq, 2 Re M_pq, 2 Im M_pq] over M_mu = U^H A_mu U and
    rho = sum_mu A_mu (x) B_mu (B_mu an orthonormal Hermitian basis of the
    unmeasured side). As g_mu = vec(A_mu)^T E and K = sum_mu conj(vec A_mu)
    vec(A_mu)^T, G = Re(E^H K E), where E's columns are vec(P_pp - P_qq),
    vec(P_pq + P_qp) and -i vec(P_pq - P_qp) with P_kl = conj(u_k) u_l^T."""
    n, d = bases.shape[0], bases.shape[-1]
    up, uq = bases[..., p], bases[..., q]
    pp, pq, qp, qq = ((a.conj()[:, :, None] * b[:, None, :]).reshape(n, d * d)
                      for a, b in ((up, up), (up, uq), (uq, up), (uq, uq)))
    e = np.stack([pp - qq, pq + qp, -1j * (pq - qp)], axis=-1)
    return (e.conj().swapaxes(-1, -2) @ (gram @ e)).real


def _jacobi_turn(gram: np.ndarray, bases: np.ndarray, p: int, q: int) -> None:
    """Turn each basis of the stack in the plane (p, q), U <- U V with
    V = [[c, -s*], [s, c]], to the objective's minimum there, in place. After
    the turn sum_mu (M_pp - M_qq)^2 = v^T G v with v = [cos 2theta, ...], so
    the top eigenvector of G is the best turn (Cardoso & Souloumiac, SIAM J.
    Matrix Anal. Appl. 17 (1996) 161)."""
    x, y, z = np.linalg.eigh(_plane_matrix(gram, bases, p, q))[1][..., -1].T
    x, y, z = np.copysign(1.0, x) * np.array([x, y, z])
    c = np.sqrt((1.0 + x) / 2.0)[:, None]
    s = (y - 1j * z)[:, None] / (2.0 * c)
    up, uq = bases[..., p], bases[..., q]
    bases[..., p], bases[..., q] = c * up + s * uq, c * uq - s.conj() * up


def _coordinates(gens: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tr(g_j X) for each generator g_j and each X of the stack."""
    return np.einsum("jab,nba->nj", gens, x).real


def _hessian(gram, norm_sq, bases, gens, stencil):
    """Hessian of h -> f(exp(i sum_j h_j g_j) U) at h = 0 for each basis: central
    differences of the gradient coordinates over stencil = exp(+-i HESSIAN_STEP
    g_j), symmetrised (the antisymmetric part is the frame's own turn). The
    moved bases of 8 restarts share one evaluation, whose temporaries (about
    150 KB; 600 KB for 32 restarts) the process keeps resident."""
    moved = (stencil[None] @ bases[:, None]).reshape(-1, *bases.shape[1:])
    rows = 8 * len(stencil)
    grads = np.concatenate([_coordinates(gens, _gradient(_evaluate(gram, norm_sq, part)[1], part))
                            for part in (moved[i:i + rows] for i in range(0, len(moved), rows))])
    plus, minus = grads.reshape(len(bases), 2, len(gens), len(gens)).swapaxes(0, 1)
    hess = (plus - minus) / (2.0 * HESSIAN_STEP)
    return (hess + hess.swapaxes(-1, -2)) / 2.0


def _newton(gram, norm_sq, bases, min_step):
    """Damped Newton steps U -> exp(i sum_j h_j g_j) U for every restart of the
    stack in lockstep; moves it in place, returns its values and gradient norms.
    Hessian eigenvalues enter by modulus, so saddles are left downhill; those
    at most 1e-4 of the largest, the gauge U -> U diag(phases), are dropped."""
    gens = np.array(su_generators(bases.shape[-1]))
    stencil = _expi(np.concatenate([HESSIAN_STEP * gens, -HESSIAN_STEP * gens]))

    def evaluate(b):  # values, gradient coordinates and gradient norms |X|_F
        vals, kc = _evaluate(gram, norm_sq, b)
        x = _gradient(kc, b)
        return vals, _coordinates(gens, x), np.linalg.norm(x, axis=(-2, -1))

    vals, grads, norms = evaluate(bases)
    live = np.flatnonzero(norms > NEWTON_TOL)
    for _ in range(NEWTON_ITERATIONS):
        if not live.size:
            break
        w, v = np.linalg.eigh(_hessian(gram, norm_sq, bases[live], gens, stencil))
        w = np.abs(w)
        inv_w = np.divide(1.0, w, out=np.zeros_like(w),
                          where=w > 1e-4 * w.max(axis=-1, keepdims=True))
        step = -np.einsum("nji,ni,nki,nk->nj", v, inv_w, v, grads[live])
        step *= MAX_STEP / np.maximum(np.linalg.norm(step, axis=-1, keepdims=True), MAX_STEP)
        stepped = np.zeros(len(live), dtype=bool)
        pending, scale = np.arange(len(live)), 1.0
        while pending.size and scale >= min_step:  # halve the step until it passes
            idx = live[pending]
            cand = _expi(np.einsum("nj,jab->nab", scale * step[pending], gens)) @ bases[idx]
            c_vals, c_grads, c_norms = evaluate(cand)
            ok = (c_vals <= vals[idx] + ROUNDING_SLACK * norm_sq) & (
                (c_vals < vals[idx]) | (c_norms < norms[idx]))
            bases[idx[ok]], vals[idx[ok]] = cand[ok], c_vals[ok]
            grads[idx[ok]], norms[idx[ok]] = c_grads[ok], c_norms[ok]
            stepped[pending[ok]] = True
            pending = pending[~ok]
            scale *= 0.5
        live = live[stepped & (norms[live] > NEWTON_TOL)]
    return vals, norms


def gd_exact(rho: DensityMatrix, restarts: int = 32, seed: int = 0, side: str = "A",
             tol: float = 1e-9, min_step: float = 1e-6) -> OracleResult:
    """Minimize the squared Hilbert-Schmidt distance between rho and its
    measured version over von Neumann measurement bases on one side.

    Restart r starts from exp(i H), H a Gaussian Hermitian matrix drawn from
    default_rng([seed, r]) and cached per process, and all restarts descend
    together as one stack. A restart whose start is already stationary (flat
    landscapes, such as isotropic states) stays there. The others take two
    Jacobi sweeps of closed-form plane turns (the objective is a joint
    diagonalisation criterion), then damped Newton steps (`_newton`) until the
    gradient norm is at most NEWTON_TOL (1e-13) or a step fails. min_step is
    the smallest step the backtracking tries; tol is validated but unused.
    residual is the Riemannian gradient norm at the returned basis.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if not (math.isfinite(min_step) and 0.0 < min_step <= 0.5):
        raise ValueError(f"min_step must lie in (0, 0.5], got {min_step}")
    rho4 = rho.matrix.reshape(rho.dims * 2)  # measured side first
    rho4 = rho4 if side == "A" else rho4.transpose(1, 0, 3, 2)
    d = rho4.shape[0]
    gram = _gram(rho4)
    norm_sq = float(np.vdot(rho.matrix, rho.matrix).real)
    bases = _start_bases(d, seed, restarts).copy()
    vals, kc = _evaluate(gram, norm_sq, bases)
    # Stationary starts (flat landscapes) are left where they are, and checked
    # before anything else is built.
    norms = np.linalg.norm(_gradient(kc, bases), axis=(-2, -1))
    live = np.flatnonzero(norms > NEWTON_TOL)
    if live.size:
        cur = bases[live]
        for p, q in [(p, q) for p in range(d) for q in range(p + 1, d)] * 2:
            _jacobi_turn(gram, cur, p, q)  # two Jacobi sweeps
        vals[live], norms[live] = _newton(gram, norm_sq, cur, float(min_step))
        bases[live] = cur
    best = int(np.argmin(vals))
    # A copy of the basis, so the result does not keep the whole stack alive.
    return OracleResult(value=float(max(vals[best], 0.0)), basis=bases[best].copy(),
                        restarts_used=restarts, seed=seed, residual=float(norms[best]))


def _check_nonnegative(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


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
