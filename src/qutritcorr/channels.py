"""Kraus-operator noise families for qutrits and their two-sided local action."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (ConfigError, DensityMatrix, _choice, _instance, _integer, _nonnegative,
                     _numbers, _read_only, _shown)

COMPLETENESS_TOL = 1e-12
BASIS_IMAG_TOL = 1e-15  # all four bases are exactly real; more flags a set not conjugation-closed
# evolve's gather: block jk of the 27x27 (C_j R C_k^T) to row jk, un-realigned to rho's layout
_UNREALIGN = _read_only(np.arange(729).reshape((3,) * 6).transpose(0, 3, 1, 4, 2, 5).reshape(9, 81))


class IncompleteKrausError(ValueError):
    """Raised when a channel that must be trace preserving is not."""

    def __init__(self, message: str, diagnostics: "KrausDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class KrausChannel:
    """A set of d x d Kraus operators acting on one subsystem.

    Completeness (sum E^dag E = I) is deliberately not enforced here; use
    validate_kraus. That keeps defective operator sets constructible for
    diagnostics.
    """

    dim: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = _integer(self.dim, 1, "dim")
        if not (isinstance(self.operators, (tuple, list)) and self.operators):
            raise ConfigError("operators", "operators must be a tuple or list of at least one Kraus "
                                           f"operator, got {_shown(self.operators)}")
        frozen = tuple(_read_only(_numbers(op, "operators", d, stack=False).astype(complex, copy=False))
                       for op in self.operators)
        object.__setattr__(self, "operators", frozen)


@dataclass(frozen=True)
class KrausDiagnostics:
    ok: bool
    max_deviation: float


def validate_kraus(channel: KrausChannel) -> KrausDiagnostics:
    """Check trace preservation: max entry of |sum E^dag E - I| <= COMPLETENESS_TOL."""
    total = sum(op.conj().T @ op for op in _instance(channel, KrausChannel, "channel").operators)
    dev = float(np.abs(total - np.eye(channel.dim)).max())
    return KrausDiagnostics(ok=dev <= COMPLETENESS_TOL, max_deviation=dev)


def _gammas(t, lead=None, **rates) -> np.ndarray:
    """1 - exp(-q t) per rate q, on a new first axis; with lead, a state stack's leading shape,
    they must give it one non-empty batch axis at most. A refusal names the first bad rate, then t."""
    try:
        tq = np.broadcast_arrays(t, *rates.values())
        batch = np.broadcast_shapes(lead, tq[0].shape) if lead else tq[0].shape
        real = all(a.dtype.kind in "iuf" for a in tq)  # strings, bools and objects are refused
        tq = np.array(tq, dtype=float) if real else tq
    except ValueError:  # ragged, or shapes that do not broadcast
        real = False
    if not (real and ((tq >= 0.0) & (tq < np.inf)).all()  # NaN fails both
            and (lead is None or len(batch) <= 1 and 0 not in batch)):
        shape = lead or ()
        for name, value in (*rates.items(), ("t", t)):
            try:  # a ragged sequence has no shape
                a = np.asarray(value)
                shape = np.broadcast_shapes(shape, a.shape)
            except ValueError:
                raise ConfigError(name, f"{name} must have a shape that broadcasts with {shape}, "
                                        f"got {_shown(value)}") from None
            if not (a.dtype.kind in "iuf" and ((a >= 0.0) & (a < np.inf)).all()):
                raise ConfigError(name, f"{name} must be finite and non-negative, got {_shown(value)}")
            if lead is not None and (len(shape) > 1 or 0 in shape):
                raise ConfigError(name, f"{name} must give rho0's stack {lead} one non-empty batch "
                                        f"axis at most, got {_shown(value)}")
    # 1 - exp(-q t) lies in [0, 1] unclamped; -q t overflowing to -inf gives exactly 1
    with np.errstate(over="ignore"):
        return 1.0 - np.exp(-tq[1:] * tq[0])


def gamma_of(q, t):
    """Decay parameter 1 - exp(-q t), in [0, 1]: a float for scalars, an array for
    arrays, which broadcast. Negative, NaN and infinite inputs are refused."""
    (gamma,) = _gammas(t, q=q)
    return float(gamma) if gamma.ndim == 0 else gamma


def shift_matrix(d: int = 3) -> np.ndarray:
    """Cyclic shift |j> -> |j+1 mod d>."""
    d = _integer(d, 1, "d")
    s = np.zeros((d, d), dtype=complex)
    s[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return s


def clock_matrix(d: int = 3) -> np.ndarray:
    """Diagonal phase clock diag(1, w, w^2, ...) with w = exp(2 pi i / d)."""
    return np.diag(np.exp(2j * np.pi * np.arange(_integer(d, 1, "d")) / d))


def dephasing_kraus(gamma: float) -> KrausChannel:
    """Pure dephasing: populations untouched, coherences to level 0 damped by
    sqrt(1 - gamma), the coherence between levels 1 and 2 by (1 - gamma)."""
    _nonnegative(gamma, "gamma", 1.0)
    keep = np.eye(3, dtype=complex)
    keep[1:, 1:] *= np.sqrt(1.0 - gamma)
    ops = [keep] + [np.sqrt(gamma) * np.diag(np.eye(3, dtype=complex)[k]) for k in (1, 2)]
    return KrausChannel(3, tuple(ops))


def _weyl_kraus(keep: float, amp: float, shifts) -> KrausChannel:
    """keep I, then amp X^k Z^l for each (k, l) in shifts: diag(w^(l j)) rolled down k rows,
    w = exp(2 pi i / 3), with each phase read from the table (1, w, w*), never multiplied."""
    w = np.exp(2j * np.pi / 3.0)
    phases, j = np.array([1.0, w, np.conj(w)]), np.arange(3)
    ops = [amp * np.roll(np.diag(phases[(l * j) % 3]), k, axis=0) for k, l in shifts]
    return KrausChannel(3, (keep * np.eye(3, dtype=complex), *ops))


def trit_flip_kraus(gamma: float) -> KrausChannel:
    """Cyclic level flips: identity with weight 1 - 2 gamma / 3, each
    nontrivial shift X, X^2 with weight gamma / 3."""
    _nonnegative(gamma, "gamma", 1.0)
    return _weyl_kraus(np.sqrt(1.0 - 2.0 * gamma / 3.0), np.sqrt(gamma / 3.0), ((1, 0), (2, 0)))


def trit_flip_kraus_unnormalized(gamma: float) -> KrausChannel:
    """Trit-flip variant with weight sqrt(gamma) on each shift.

    The operator sum is (1 + 4 gamma / 3) I, so the map is not trace
    preserving for gamma > 0. Kept only as a regression target for
    validate_kraus; nothing else may consume it.
    """
    _nonnegative(gamma, "gamma", 1.0)
    return _weyl_kraus(np.sqrt(1.0 - 2.0 * gamma / 3.0), np.sqrt(gamma), ((1, 0), (2, 0)))


def trit_phase_flip_kraus(gamma: float) -> KrausChannel:
    """Cyclic flips dressed with third-root-of-unity phases: identity with
    weight 1 - 2 gamma / 3 plus X Z^2, X Z, X^2 Z^2 and X^2 Z with weight gamma / 6."""
    _nonnegative(gamma, "gamma", 1.0)
    return _weyl_kraus(np.sqrt(1.0 - 2.0 * gamma / 3.0), np.sqrt(gamma / 6.0),
                       ((1, 2), (1, 1), (2, 2), (2, 1)))


def depolarizing_kraus(gamma: float) -> KrausChannel:
    """Uniform contraction rho -> (1 - gamma) rho + gamma I/3, realized by the
    shift/clock unitary basis with weight sqrt(gamma)/3 on each nontrivial
    X^-a Z^b and sqrt(1 - 8 gamma / 9) on the identity."""
    _nonnegative(gamma, "gamma", 1.0)
    return _weyl_kraus(np.sqrt(1.0 - 8.0 * gamma / 9.0), np.sqrt(gamma) / 3.0,
                       [(-a % 3, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)])


def identity_kraus(d: int = 3) -> KrausChannel:
    return KrausChannel(d, (np.eye(_integer(d, 1, "d"), dtype=complex),))


_FAMILY_BUILDERS = {
    "dephasing": dephasing_kraus,
    "trit-flip": trit_flip_kraus,
    "trit-phase-flip": trit_phase_flip_kraus,
    "depolarizing": depolarizing_kraus,
}

CHANNEL_FAMILIES = tuple(_FAMILY_BUILDERS)


def kraus_for_family(family: str, gamma: float) -> KrausChannel:
    return _FAMILY_BUILDERS[_choice(family, CHANNEL_FAMILIES, "family")](gamma)


def apply_channel(channel: KrausChannel, matrix: np.ndarray) -> np.ndarray:
    """Single-system Kraus action sum_i E_i M E_i^dag, on one matrix or a stack."""
    d = _instance(channel, KrausChannel, "channel").dim
    return _kraus_sum(_numbers(matrix, "matrix", d), (d, 1), channel.operators, "A")


def _kraus_sum(matrix: np.ndarray, dims: tuple[int, int], ops, side: str) -> np.ndarray:
    """sum_i (E_i x I) M (E_i x I)^dag for side "A", with I x E_i for side "B", of a
    (d1 d2)-square matrix M or a stack of them; ops is the (k, d, d) Kraus stack."""
    ops = np.asarray(ops)
    m = matrix.reshape(matrix.shape[:-2] + 2 * tuple(dims))
    into, mid, out = ("...bxcy", "...iaxcy", "...axdy") if side == "A" else (
        "...xbyc", "...ixayc", "...xayd")
    left = np.einsum(f"iab,{into}->{mid}", ops, m)
    return np.einsum(f"{mid},idc->{out}", left, ops.conj()).reshape(matrix.shape)


def _checked_complete(channel: KrausChannel, what: str) -> KrausChannel:
    diag = validate_kraus(_instance(channel, KrausChannel, what))
    if not diag.ok:
        raise IncompleteKrausError(f"{what} is not trace preserving "
                                   f"(completeness deviation {diag.max_deviation:.3e})", diag)
    return channel


def apply_local_channels(rho: DensityMatrix, channel_a: KrausChannel,
                         channel_b: KrausChannel) -> DensityMatrix:
    """Apply channel_a to subsystem A and channel_b to subsystem B."""
    out = _instance(rho, DensityMatrix, "rho").matrix
    for side, channel, d in zip("AB", (channel_a, channel_b), rho.dims):
        name = f"channel_{side.lower()}"
        if _checked_complete(channel, name).dim != d:
            raise ConfigError(name, f"{name} must act on {d} levels, got {channel.dim}")
        out = _kraus_sum(out, rho.dims, channel.operators, side)
    return DensityMatrix(out, rho.dims)


@lru_cache(maxsize=None)
def _family_superoperator_basis(family: str) -> np.ndarray:
    """The stack (C0, C1, C2) with S(gamma) = C0 + sqrt(1 - gamma) C1 + gamma C2,
    solved from the Kraus sets at gamma = 0, 3/4, 1 (sqrt(1 - gamma) = 1, 1/2, 0).

    Every family has this form: its Kraus weights are constants,
    sqrt(1 - gamma) or roots of linear functions of gamma. Completeness is
    linear in S, so checking the three sets proves it for every gamma. Each Kraus
    set is closed under conjugation, so the stack is real: an imaginary part above
    BASIS_IMAG_TOL is refused, not dropped, and the real part is returned.
    """
    units = np.eye(9).reshape(9, 3, 3)  # |b><d| at 3b + d, so S[:, 3b + d] = vec(Phi(|b><d|))
    kraus = (_checked_complete(kraus_for_family(family, g), f"{family} Kraus set at gamma={g}")
             for g in (0.0, 0.75, 1.0))
    s0, s34, s1 = (apply_channel(channel, units).reshape(9, 9).T for channel in kraus)
    c0 = 2.0 * s0 + 3.0 * s1 - 4.0 * s34
    basis = np.stack((c0, s0 - c0, s1 - c0))
    imag = float(np.abs(basis.imag).max())
    if imag > BASIS_IMAG_TOL:
        raise ValueError(f"{family} superoperator basis has imaginary part {imag:.3e}")
    return _read_only(np.ascontiguousarray(basis.real))


def evolve(rho0: DensityMatrix, family_a: str, family_b: str, q_a, q_b, t) -> DensityMatrix:
    """Two-sided noise at gamma = 1 - exp(-q t) per side: one state for scalar rates and time,
    an (N, 9, 9) stack when they or rho0 are stacks (all broadcast). Realigned, the state is
    sum_jk a_j b_k C_j R C_k^T, a = (1, sqrt(1 - gamma_a), gamma_a), b alike, in rho0's dtype."""
    if _instance(rho0, DensityMatrix, "rho0").dims != (3, 3):
        raise ConfigError("rho0", f"rho0 must be a state of two qutrits, got dims {rho0.dims}")
    lead = rho0.matrix.shape[:-2]
    c_a, c_b = (_family_superoperator_basis(_choice(f, CHANNEL_FAMILIES, name))
                for f, name in ((family_a, "family_a"), (family_b, "family_b")))
    g = _gammas(t, lead, q_a=q_a, q_b=q_b)  # (gamma_a, gamma_b), whose batch fits rho0's stack
    r = rho0.matrix.reshape(lead + (3, 3, 3, 3)).swapaxes(-3, -2).reshape(lead + (9, 9))
    m = (c_a.reshape(27, 9) @ r @ c_b.reshape(27, 9).T).reshape(lead + (729,))[..., _UNREALIGN]
    w = np.empty(g.shape + (3,))
    w[..., 0], w[..., 1], w[..., 2] = 1.0, np.sqrt(1.0 - g), g
    out = (w[0, ..., :, None] * w[1, ..., None, :]).reshape(g.shape[1:] + (1, 9)) @ m
    return DensityMatrix._derived(out.reshape(out.shape[:-2] + (9, 9)), rho0.dims)
