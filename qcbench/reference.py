"""Plain-numpy reference for the quantities the benchmark checks.

Nothing here imports qutritcorr. Every channel is written as an explicit
Kraus set built from the qutrit shift X and clock Z, applied to the two-qutrit
state as a sum over kron(A_i, B_j); negativity comes from the spectrum of the
partial transpose and the discord bound from the G matrix of the Bloch
decomposition in the literal Gell-Mann basis.
"""

from __future__ import annotations

import math

import numpy as np

D = 3
W = np.exp(2j * np.pi / 3)
X = np.roll(np.eye(D), 1, axis=0).astype(complex)  # |j> -> |j+1 mod 3>
Z = np.diag(W ** np.arange(D))
I3 = np.eye(D, dtype=complex)

_S3 = math.sqrt(3.0)
GELL_MANN = np.array([
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    [[1 / _S3, 0, 0], [0, 1 / _S3, 0], [0, 0, -2 / _S3]],
], dtype=complex)

NEGATIVE_EIG_TOL = 1e-12  # the documented cut below which a PT eigenvalue counts


def gamma(q: float, t: float) -> float:
    return 1.0 - math.exp(-q * t)


def _power(m: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.matrix_power(m, k)


def kraus(family: str, g: float) -> list[np.ndarray]:
    """Kraus operators of one family at decay parameter g."""
    if family == "dephasing":
        s = math.sqrt(1.0 - g)
        return [np.diag([1.0, s, s]).astype(complex),
                np.diag([0.0, math.sqrt(g), 0.0]).astype(complex),
                np.diag([0.0, 0.0, math.sqrt(g)]).astype(complex)]
    keep = math.sqrt(1.0 - 2.0 * g / 3.0) * I3
    if family == "trit-flip":
        return [keep] + [math.sqrt(g / 3.0) * _power(X, a) for a in (1, 2)]
    if family == "trit-phase-flip":
        return [keep] + [math.sqrt(g / 6.0) * _power(X, a) @ _power(Z, b)
                         for a in (1, 2) for b in (1, 2)]
    if family == "depolarizing":
        ops = [math.sqrt(1.0 - 8.0 * g / 9.0) * I3]
        ops += [math.sqrt(g) / 3.0 * _power(X, a) @ _power(Z, b)
                for a in range(D) for b in range(D) if (a, b) != (0, 0)]
        return ops
    raise ValueError(f"no reference for family {family!r}")


def evolve(rho: np.ndarray, family_a: str, family_b: str,
           q_a: float, q_b: float, t: float) -> np.ndarray:
    """sum_ij kron(A_i, B_j) rho kron(A_i, B_j)^dag."""
    out = np.zeros((D * D, D * D), dtype=complex)
    for a in kraus(family_a, gamma(q_a, t)):
        for b in kraus(family_b, gamma(q_b, t)):
            k = np.kron(a, b)
            out += k @ rho @ k.conj().T
    return out


def negativity(rho: np.ndarray) -> float:
    pt = rho.reshape(D, D, D, D).transpose(2, 1, 0, 3).reshape(D * D, D * D)
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(-eigs[eigs < -NEGATIVE_EIG_TOL].sum())


def gd_bound(rho: np.ndarray, prefactor_num: float = 4.0) -> float:
    """prefactor * (Tr G - two largest eigenvalues of G), clamped at 0, with
    G = y y^T + (2/3) V V^T; prefactor_num 4 is the paper convention, 2 raw."""
    r4 = rho.reshape(D, D, D, D)
    rho_a = np.einsum("abcb->ac", r4)
    y = 1.5 * np.einsum("kij,ji->k", GELL_MANN, rho_a).real
    v = 2.25 * np.einsum("abcd,kca,ldb->kl", r4, GELL_MANN, GELL_MANN).real
    g = np.outer(y, y) + (2.0 / D) * v @ v.T
    eigs = np.linalg.eigvalsh(g)
    bracket = float(np.trace(g) - eigs[-(D - 1):].sum())
    return max(0.0, prefactor_num / D ** 3 * bracket)


def hs_distance_sq(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a) - np.asarray(b)
    return float(np.vdot(diff, diff).real)


def bell() -> np.ndarray:
    amp = np.zeros(D * D, dtype=complex)
    amp[[0, 4, 8]] = 1.0 / math.sqrt(D)
    return np.outer(amp, amp.conj())


def ginibre_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random two-qutrit state G G^dag / Tr, G a 9x9 Ginibre matrix."""
    g = rng.standard_normal((D * D, D * D)) + 1j * rng.standard_normal((D * D, D * D))
    m = g @ g.conj().T
    return m / m.trace().real
