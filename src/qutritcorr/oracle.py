"""Brute-force geometric discord via measurement-basis search, plus
closed-form references for the channel dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import _kraus_sum
from .linalg import (ConfigError, DensityMatrix, _eigh, _instance, _integer, _nonnegative,
                     _numbers, _positive_definite, _read_only, _side, _solve, su_generators)
from .measures import GdConvention, PAPER_CONVENTION

UNITARITY_TOL = 1e-10
# Newton: the gradient norm at which a restart is stationary (generic starts sit
# at about 1e-2, flat landscapes of U x U*-invariant states at about 1e-17), step
# count, step-norm cap, smallest step tried. A step is taken if it lowers f or the
# gradient norm and raises f by at most its rounding, ROUNDING_SLACK |rho|^2 (up
# to 0.9e-15 |rho|^2 on random states; a slack of 1e-15 strands restarts at about 1e-9).
NEWTON_TOL, NEWTON_ITERATIONS, MAX_STEP, MIN_STEP, ROUNDING_SLACK = 1e-13, 60, 0.5, 1e-6, 1e-14


# Slots leave out the per-instance dict, which callers keeping many results pay.
@dataclass(frozen=True, slots=True)
class OracleResult:
    """Outcome of the measurement-basis search.

    value is the minimal squared Hilbert-Schmidt distance found, basis the
    read-only unitary whose columns realize it, residual the Frobenius norm of the
    Riemannian gradient at that basis: about 1e-13 or less once Newton has
    converged, so a larger one flags a search that stopped short.
    """

    value: float
    basis: np.ndarray
    restarts_used: int
    seed: int
    residual: float


def _expi(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a Hermitian h, or for each matrix of a stack: only the starts use it."""
    w, v = _eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def project_measurement(rho: DensityMatrix, basis: np.ndarray, side: str = "A") -> DensityMatrix:
    """Dephase one subsystem in an orthonormal basis:
    rho -> sum_k (P_k x I) rho (P_k x I) with P_k = |u_k><u_k|."""
    d = _instance(rho, DensityMatrix, "rho").dims[0 if _side(side, "side") else 1]
    basis = _numbers(basis, "basis", d, stack=False).astype(complex)
    dev = float(np.abs(basis.conj().T @ basis - np.eye(d)).max())
    if not dev <= UNITARITY_TOL:
        raise ConfigError("basis", f"basis matrix is not unitary (deviation {dev:.3e})")
    projectors = np.einsum("ik,jk->kij", basis, basis.conj())
    return DensityMatrix(_kraus_sum(rho.matrix, rho.dims, projectors, side), rho.dims)


@lru_cache(maxsize=4)
def _hermitian_parts(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real coordinates of a Hermitian d x d matrix M, Re M_kk, then Re M_kl
    and Im M_kl for k < l. Returns, read-only, their positions in the float view
    of vec(M), the units H_a whose coordinates are e_a, and conj(vec(H_a)) / |H_a|."""
    parts = [(k, k, 0) for k in range(d)] + [
        (k, l, im) for im in (0, 1) for k in range(d) for l in range(k + 1, d)]
    units = np.zeros((d * d, d, d), dtype=complex)
    for unit, (k, l, im) in zip(units, parts):
        unit[k, l], unit[l, k] = 1j ** im, (-1j) ** im
    return tuple(map(_read_only, (
        np.array([2 * (k * d + l) + im for k, l, im in parts]), units,
        units.reshape(d * d, -1).conj() / np.linalg.norm(units, axis=(1, 2))[:, None])))


def _operator_rows(rho4: np.ndarray) -> np.ndarray:
    """Rows vec(A_mu) of rho = sum_mu A_mu (x) B_mu, B_mu = H_mu / |H_mu| on the
    unmeasured side (`_hermitian_parts`): (A_mu)_xy = Tr(<x|rho|y> B_mu). rho is cast to
    complex in its one copy, so the product is not a mixed-dtype matmul."""
    d, d2 = rho4.shape[:2]
    realigned = np.ascontiguousarray(rho4.transpose(0, 2, 1, 3), dtype=complex)
    return _hermitian_parts(d2)[2] @ realigned.reshape(d * d, d2 * d2).T


def _krons(bases: np.ndarray) -> np.ndarray:
    """kron(conj(U), U) for each basis U of the stack, (n, d^2, d^2)."""
    n, d = bases.shape[0], bases.shape[-1]
    return (bases.conj()[:, :, None, :, None] * bases[:, None, :, None, :]).reshape(n, d * d, d * d)


def _sandwiches(ops: np.ndarray, krons: np.ndarray) -> np.ndarray:
    """Real coordinates (n, mu, d^2) of M_mu = U^H A_mu U for each basis U of the
    stack, given by its `_krons`: the rows of ops @ kron(conj(U), U) are the vec(M_mu),
    one product per basis, so no restart's bits depend on the rest of the stack."""
    return (ops @ krons).view(float)[..., _hermitian_parts(math.isqrt(krons.shape[-1]))[0]]


@lru_cache(maxsize=4)
def _readout_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed map from Q's upper triangle (`_readout`) to sum_k Q_kk, the
    gradient and the Hessian of h -> f(U exp(i sum_j h_j g_j)) at h = 0: with
    L_j the real matrix of M -> i[M, g_j], S_jl = (L_j L_l + L_l L_j) / 2 and
    k over the diagonal coordinates, f = |rho|^2 - sum_k Q_kk, grad_j = -2 sum_k
    (L_j Q)_kk, hess_jl = -2 sum_k (L_j Q L_l^T + S_jl Q)_kk. Returns, read-only,
    the flat positions of the upper triangle, row by row, and the table."""
    index, units, _ = _hermitian_parts(d)
    gens, dd, m = np.array(su_generators(d)), d * d, d * d - 1
    comm = 1j * (units[None] @ gens[:, None] - gens[:, None] @ units[None])
    lifts = comm.reshape(m, dd, dd).view(float)[..., index].swapaxes(-1, -2)
    turns, first, pick = lifts[:, None] @ lifts[None], lifts[:, :d], np.eye(dd)[:d]
    hess = (first[:, None].swapaxes(-1, -2) @ first[None]
            + ((turns + turns.swapaxes(0, 1)) / 2.0)[:, :, :d].swapaxes(-1, -2) @ pick)
    coef = np.concatenate([(pick.T @ pick)[None], -2.0 * first.swapaxes(-1, -2) @ pick,
                           -2.0 * hess.reshape(m * m, dd, dd)])
    rows, cols = np.triu_indices(dd)  # Q is symmetric: fold each pair onto one entry
    return (_read_only(rows * dd + cols),
            _read_only((coef[:, rows, cols] + (rows != cols) * coef[:, cols, rows]).T.copy()))


def _readout(ops: np.ndarray, norm_sq: float, krons: np.ndarray, hessian: bool = True):
    """Objective, gradient coordinates, gradient norm |X|_F and Hessian of each basis U
    of the stack, given by its `_krons`, in the right frame U -> U exp(i sum_j h_j g_j),
    read by one product with `_readout_table` from the rotated Gram matrix Q = sum_mu
    m_mu m_mu^T, m_mu the real coordinates of M_mu = U^H A_mu U. As Tr(g_j g_l) = 2
    delta_jl, |X|_F^2 = sum_j grad_j^2 / 2. f and grad read only Q's first d rows,
    which lead its upper triangle: with hessian=False only those are built."""
    n, d = krons.shape[0], math.isqrt(krons.shape[-1])
    m, rows = d * d - 1, d * d if hessian else d
    upper, table = _readout_table(d)
    k = rows * d * d - rows * (rows - 1) // 2  # the upper triangle's entries in Q's first rows
    coords = _sandwiches(ops, krons)
    q = (coords[..., :rows].swapaxes(-1, -2) @ coords).reshape(n, 1, -1)[..., upper[:k]]
    out = (q @ table[:k, :None if hessian else 1 + m])[:, 0]
    grads, hess = out[:, 1:1 + m], out[:, 1 + m:].reshape(n, m, m) if hessian else None
    return norm_sq - out[:, 0], grads, np.sqrt((grads * grads).sum(axis=-1) / 2.0), hess


@lru_cache(maxsize=32)
def _starts(d: int, seed: int, restarts: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The seeded starts exp(i H_r), H_r a Gaussian Hermitian matrix drawn from
    default_rng([seed, r]), as a read-only (restarts, d, d) stack, one view per
    start, so the results that keep a start share one basis object, and their
    read-only `_krons`, which every stationary check reads."""
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    raw = np.array([g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for g in rngs])
    starts = _read_only(_expi((raw + raw.conj().swapaxes(-1, -2)) / 2.0))
    return starts, tuple(starts), _read_only(_krons(starts))


def _plane_matrix(ops: np.ndarray, bases: np.ndarray, p: int, q: int) -> np.ndarray:
    """G = sum_mu g_mu g_mu^T of each basis in the plane (p, q), read from the real
    coordinates of M_mu = U^H A_mu U as g_mu = [M_pp - M_qq, 2 Re M_pq, 2 Im M_pq]."""
    d, m = bases.shape[-1], _sandwiches(ops, _krons(bases))
    pq = d + p * (2 * d - p - 1) // 2 + q - p - 1  # (p, q)'s place among the pairs k < l
    g = np.stack([m[..., p] - m[..., q], 2.0 * m[..., pq], 2.0 * m[..., pq + d * (d - 1) // 2]], -1)
    return g.swapaxes(-1, -2) @ g


def _jacobi_turn(ops: np.ndarray, bases: np.ndarray, p: int, q: int) -> None:
    """Turn each basis of the stack in the plane (p, q), U <- U V with
    V = [[c, -s*], [s, c]], to the objective's minimum there, in place. After
    the turn sum_mu (M_pp - M_qq)^2 = v^T G v with v = [cos 2theta, ...], so
    the top eigenvector of G is the best turn (Cardoso & Souloumiac, SIAM J.
    Matrix Anal. Appl. 17 (1996) 161)."""
    top = _eigh(_plane_matrix(ops, bases, p, q))[1][..., -1]
    x, y, z = (np.copysign(1.0, top[:, :1]) * top).T
    c = np.sqrt((1.0 + x) / 2.0)[:, None]
    s = (y - 1j * z)[:, None] / (2.0 * c)
    up, uq = bases[..., p], bases[..., q]
    bases[..., p], bases[..., q] = c * up + s * uq, c * uq - s.conj() * up


@lru_cache(maxsize=4)
def _cayley_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only: rows vec(g_j^T) * -i/2 of the d(d-1) off-diagonal generators, which
    su_generators lists first, and vec(I), so h @ table + vec(I) = vec((I - ih/2)^T)."""
    gens = np.array(su_generators(d)[:d * (d - 1)]).swapaxes(-1, -2)
    return _read_only(gens.reshape(len(gens), -1) * -0.5j), _read_only(np.eye(d).ravel())


def _newton_steps(hess: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The step -H^-1 g of each restart where H is positive definite; elsewhere
    H's eigenvalues enter by modulus, so saddles are left downhill, and those at
    most 1e-4 of the largest are dropped."""
    pd = _positive_definite(hess)
    if pd.all():  # the common case: one solve for the whole stack
        return -_solve(hess, grads[..., None])[..., 0]
    step = np.empty_like(grads)
    if pd.any():
        step[pd] = -_solve(hess[pd], grads[pd][..., None])[..., 0]
    w, v = _eigh(hess[~pd])
    w = np.abs(w)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w > 1e-4 * w.max(axis=-1, keepdims=True))
    step[~pd] = -np.einsum("nji,ni,nki,nk->nj", v, inv_w, v, grads[~pd])
    return step


def _newton(ops, norm_sq, bases):
    """Damped Newton steps for every restart of the stack in lockstep, in place; returns
    the values and gradient norms. A step h = sum_j h_j g_j moves U by the Cayley
    retraction U (I - ih/2)^-1 (I + ih/2) = 2 U (I - ih/2)^-1 - U, one solve (Wen & Yin,
    Math. Program. 142 (2013) 397); it matches U exp(ih) through second order, so
    `_readout`'s Hessian is the model's. Only the d(d-1) off-diagonal generators step:
    the diagonal ones are the gauge U -> U diag(phases), which leaves f unchanged, so the
    reduced Hessian is solved directly where Cholesky shows it positive definite
    (`_newton_steps`). The gradient norm still reads all d^2 - 1 coordinates."""
    d = bases.shape[-1]
    k, (table, eye) = d * (d - 1), _cayley_table(d)
    vals, grads, norms, hess = _readout(ops, norm_sq, _krons(bases))
    live = np.flatnonzero(norms > NEWTON_TOL)
    for _ in range(NEWTON_ITERATIONS):
        if not live.size:
            break
        step = _newton_steps(hess[live, :k, :k], grads[live, :k])
        step *= MAX_STEP / np.maximum(np.sqrt((step * step).sum(axis=-1, keepdims=True)), MAX_STEP)
        stepped, pending, scale = np.zeros(len(live), dtype=bool), np.arange(len(live)), 1.0
        while pending.size and scale >= MIN_STEP:  # halve the step until it passes
            idx = live[pending]  # flat holds A^T, A = I - ih/2: X = U A^-1 solves A^T X^T = U^T
            u, flat = bases[idx], (scale * step[pending]) @ table + eye
            cand = 2.0 * _solve(flat.reshape(-1, d, d), u.swapaxes(-1, -2)).swapaxes(-1, -2) - u
            c_vals, c_grads, c_norms, c_hess = _readout(ops, norm_sq, _krons(cand))
            old = vals[idx]
            ok = (c_vals <= old + ROUNDING_SLACK * norm_sq) & ((c_vals < old) | (c_norms < norms[idx]))
            stepped[pending[ok]] = True
            pending = pending[~ok]
            if pending.size:  # some candidates failed: only the others move; else store as is
                idx, cand, c_vals, c_grads, c_hess, c_norms = (
                    a[ok] for a in (idx, cand, c_vals, c_grads, c_hess, c_norms))
            bases[idx], vals[idx], grads[idx], hess[idx], norms[idx] = (
                cand, c_vals, c_grads, c_hess, c_norms)
            scale *= 0.5
        live = live[stepped & (norms[live] > NEWTON_TOL)]
    return vals, norms


def gd_exact(rho: DensityMatrix, restarts: int = 32, seed: int = 0,
             side: str = "A") -> OracleResult:
    """Minimize the squared Hilbert-Schmidt distance between rho and its
    measured version over von Neumann measurement bases on one side.

    Restart r starts from exp(i H), H a Gaussian Hermitian matrix drawn from
    default_rng([seed, r]) and cached per process. A restart whose start is
    stationary (flat landscapes, such as isotropic states) stays there; the
    others take two Jacobi sweeps of plane turns, then damped Newton steps, all
    restarts as one stack. The backtracking halves a step down to MIN_STEP
    (1e-6), the smallest step it tries."""
    restarts, seed = _integer(restarts, 1, "restarts"), _integer(seed, 0, "seed")
    d = _instance(rho, DensityMatrix, "rho").dims[0 if _side(side, "side") else 1]
    if rho.matrix.ndim == 3:
        raise ConfigError("rho", f"rho must be one state, got a stack of {len(rho.matrix)}")
    rho4 = rho.matrix.reshape(rho.dims * 2)
    ops = _operator_rows(rho4 if side == "A" else rho4.transpose(1, 0, 3, 2))  # measured side first
    norm_sq = float(np.vdot(rho.matrix, rho.matrix).real)
    starts, views, krons = _starts(d, seed, restarts)
    vals, _, norms, _ = _readout(ops, norm_sq, krons, hessian=False)
    moved = norms > NEWTON_TOL  # stationary starts stay where they are
    if moved.any():
        bases = starts[moved]  # a copy of the starts that descend
        for p, q in [(p, q) for p in range(d) for q in range(p + 1, d)] * 2:
            _jacobi_turn(ops, bases, p, q)  # two Jacobi sweeps
        vals[moved], norms[moved] = _newton(ops, norm_sq, bases)
    best = int(np.argmin(vals))
    # a descended start is returned as its own copy, a stationary one as its shared view
    basis = _read_only(bases[moved[:best].sum()].copy()) if moved[best] else views[best]
    return OracleResult(value=float(max(vals[best], 0.0)), basis=basis,
                        restarts_used=restarts, seed=seed, residual=float(norms[best]))


def analytic_negativity_dephasing(q_a: float, q_b: float, t: float) -> float:
    """Negativity of the qutrit Bell state after two-sided dephasing.

    The three coherence pairs decay as s, s, s^2 with
    s = exp(-(q_a + q_b) t / 2) and each contributes |c|/3.
    """
    _nonnegative(q_a, "q_a"), _nonnegative(q_b, "q_b"), _nonnegative(t, "t")
    s = float(np.exp(-(q_a + q_b) * t / 2.0))
    return (2.0 * s + s * s) / 3.0


def analytic_negativity_depolarizing(q_a: float, q_b: float, t: float) -> float:
    """Negativity of the qutrit Bell state after two-sided depolarizing
    noise: max(0, (4p - 1)/3) with p = exp(-(q_a + q_b) t), vanishing at
    t = ln(4)/(q_a + q_b)."""
    _nonnegative(q_a, "q_a"), _nonnegative(q_b, "q_b"), _nonnegative(t, "t")
    p = float(np.exp(-(q_a + q_b) * t))
    return max(0.0, (4.0 * p - 1.0) / 3.0)


def analytic_gd_isotropic(p: float, convention: GdConvention = PAPER_CONVENTION) -> float:
    """Discord of the isotropic family p Bell + (1-p) I/9; the closed-form
    lower bound is tight here, (2/3) p^2 in the raw convention."""
    _nonnegative(p, "p", 1.0)
    base = 2.0 * p * p / 3.0
    return 2.0 * base if _instance(convention, GdConvention, "convention") == PAPER_CONVENTION else base
