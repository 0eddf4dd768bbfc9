"""Time and decay-rate sweeps of the correlation measures, bundled presets,
and the robustness comparison report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .channels import CHANNEL_FAMILIES, evolve
from .linalg import (ConfigError, DensityMatrix, _choice, _instance, _integer, _nonnegative,
                     make_bell_state)
from .measures import GdConvention, PAPER_CONVENTION, RAW_CONVENTION, gd_lower_bound, negativity
from .oracle import gd_exact


@dataclass(frozen=True)
class SweepRange:
    """Inclusive linspace over [start, stop] with steps points."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        _integer(self.steps, 2, "steps")
        _nonnegative(self.start, "start", _nonnegative(self.stop, "stop"))

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def __str__(self) -> str:
        return f"{self.start:g}:{self.stop:g}:{self.steps}"


@dataclass(frozen=True)
class ExperimentConfig:
    family_a: str
    family_b: str
    q_a: float | SweepRange
    q_b: float | SweepRange
    t: float | SweepRange
    sweep_mode: str = field(init=False)  # derived from which axes are ranges
    gd_convention: GdConvention = PAPER_CONVENTION
    oracle_enabled: bool = False
    oracle_restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        _choice(self.family_a, CHANNEL_FAMILIES, "family_a")
        _choice(self.family_b, CHANNEL_FAMILIES, "family_b")
        object.__setattr__(self, "sweep_mode", infer_sweep_mode(self.q_a, self.q_b, self.t))
        _instance(self.gd_convention, GdConvention, "gd_convention")
        _instance(self.oracle_enabled, (bool, np.bool_), "oracle_enabled")
        object.__setattr__(self, "oracle_enabled", bool(self.oracle_enabled))  # numpy bool -> JSON
        for name, least in (("oracle_restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), least, name))
        for name in ("q_a", "q_b", "t"):
            if not isinstance(getattr(self, name), SweepRange):
                _nonnegative(getattr(self, name), name)


def infer_sweep_mode(q_a: float | SweepRange, q_b: float | SweepRange,
                     t: float | SweepRange) -> str:
    """Pick the sweep mode implied by which axes are ranges."""
    qa_range, qb_range, t_range = (isinstance(x, SweepRange) for x in (q_a, q_b, t))
    if qa_range and qb_range:
        if t_range:
            raise ConfigError("t", "cannot sweep q_a, q_b and t at once; fix t")
        return "rate_grid"
    if qa_range or qb_range:
        return "rate_time"
    if t_range:
        return "time"
    raise ConfigError("t", "nothing to sweep; give a range for t or for a rate")


@dataclass(frozen=True)
class SweepDataset:
    """Equal-length measure columns plus provenance metadata."""

    columns: dict[str, np.ndarray]
    meta: dict[str, object]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _axis_repr(axis: float | SweepRange) -> str:
    return str(axis) if isinstance(axis, SweepRange) else format(float(axis), "g")


_ROW_ORDER = {
    "time": "by t",
    "rate_time": "swept rate outer, t inner",
    "rate_grid": "q1 outer, q2 inner",
}


def config_meta(cfg: ExperimentConfig) -> dict[str, object]:
    meta = {
        "family_a": cfg.family_a,
        "family_b": cfg.family_b,
        "q_a": _axis_repr(cfg.q_a),
        "q_b": _axis_repr(cfg.q_b),
        "t": _axis_repr(cfg.t),
        "sweep_mode": cfg.sweep_mode,
        "row_order": _ROW_ORDER[cfg.sweep_mode],
        "gd_convention": cfg.gd_convention.prefactor_mode,
        "gd_clamped": True,  # gd_lower_bound clamps a negative bracket at 0
        "oracle_enabled": cfg.oracle_enabled,
        "oracle_restarts": cfg.oracle_restarts,
        "seed": cfg.seed,
        "initial_state": "qutrit-bell",
        "trit_flip_weights": "trace-preserving (gamma/3 per shift)",
        "depolarizing_operators": "shift-clock unitary basis",
        "version": __version__,
    }
    if cfg.oracle_enabled:  # only then, so the default output keeps its header
        meta["gd_exact_convention"] = cfg.gd_convention.prefactor_mode
    return meta


# Rows are evaluated in batches of this many: enough to amortise numpy's
# per-call overhead, few enough that a 10,000-row surface never holds all of
# its intermediate (N, 9, 9) stacks at once.
_BATCH_ROWS = 256


def run_sweep(cfg: ExperimentConfig) -> SweepDataset:
    """Evolve the Bell state over the rows of any sweep mode and record the
    measures at every row. Rows run q_a outer, q_b middle, t inner, which
    with scalar axes of length 1 is _ROW_ORDER for every mode."""
    axes = [np.atleast_1d(axis.grid() if isinstance(axis, SweepRange) else float(axis))
            for axis in (_instance(cfg, ExperimentConfig, "cfg").q_a, cfg.q_b, cfg.t)]
    qa, qb, t = (grid.ravel() for grid in np.meshgrid(*axes, indexing="ij"))
    bell = make_bell_state(3)
    columns = {"t": t, "q1": qa, "q2": qb,
               "negativity": np.empty(len(t)), "gd_lower": np.empty(len(t))}
    if cfg.oracle_enabled:
        columns["gd_exact"] = np.empty(len(t))
        # gd_exact's raw distance in gd_lower's convention: times exactly 2.0 for paper
        scale = cfg.gd_convention.prefactor(3, 3) / RAW_CONVENTION.prefactor(3, 3)
    for start in range(0, len(t), _BATCH_ROWS):
        rows = slice(start, start + _BATCH_ROWS)
        rho = evolve(bell, cfg.family_a, cfg.family_b, qa[rows], qb[rows], t[rows])
        columns["negativity"][rows] = negativity(rho)
        columns["gd_lower"][rows] = gd_lower_bound(rho, cfg.gd_convention)
        if cfg.oracle_enabled:
            columns["gd_exact"][rows] = [
                scale * gd_exact(DensityMatrix(state, rho.dims), restarts=cfg.oracle_restarts,
                                 seed=cfg.seed).value
                for state in rho.matrix]
    return SweepDataset(columns=columns, meta=config_meta(cfg))


def _sweep_in_mode(cfg: ExperimentConfig, caller: str, *modes: str) -> SweepDataset:
    """run_sweep(cfg), refused unless cfg.sweep_mode is one of the caller's modes."""
    if _instance(cfg, ExperimentConfig, "cfg").sweep_mode not in modes:
        raise ConfigError("sweep_mode", f"{caller} handles {' and '.join(map(repr, modes))}, "
                                        f"got {cfg.sweep_mode!r}")
    return run_sweep(cfg)


def time_sweep(cfg: ExperimentConfig) -> SweepDataset:
    """Evolve the Bell state across a time grid (optionally crossed with one
    swept rate) and record the measures at every row."""
    return _sweep_in_mode(cfg, "time_sweep", "time", "rate_time")


def rate_grid(cfg: ExperimentConfig) -> SweepDataset:
    """Measures over a (q_a, q_b) grid at fixed time."""
    return _sweep_in_mode(cfg, "rate_grid", "rate_grid")


# Presets pair every family with itself and every distinct pair once.
PRESET_CHANNELS = {
    "fig1": ("dephasing", "dephasing"),
    "fig2": ("trit-flip", "trit-flip"),
    "fig3": ("trit-phase-flip", "trit-phase-flip"),
    "fig4": ("depolarizing", "depolarizing"),
    "fig5": ("dephasing", "trit-flip"),
    "fig6": ("dephasing", "trit-phase-flip"),
    "fig7": ("dephasing", "depolarizing"),
    "fig8": ("trit-flip", "trit-phase-flip"),
    "fig9": ("trit-flip", "depolarizing"),
    "fig10": ("trit-phase-flip", "depolarizing"),
}

PRESET_NAMES = tuple(PRESET_CHANNELS)

# 200 time steps resolve the entanglement-vanishing kink near t = ln 4 at
# the default rates; 50-point rate axes keep a full preset under a minute.
DEFAULT_TIME_RANGE = SweepRange(0.0, 5.0, 200)
DEFAULT_RATE_RANGE = SweepRange(0.0, 2.0, 50)
PRESET_FIXED_RATE = 0.5
PRESET_FIXED_TIME = 1.0


def preset_configs(name: str, gd_convention: GdConvention = PAPER_CONVENTION,
                   seed: int = 0) -> dict[str, ExperimentConfig]:
    family_a, family_b = PRESET_CHANNELS[_choice(name, PRESET_NAMES, "name")]
    common = dict(family_a=family_a, family_b=family_b,
                  gd_convention=gd_convention, seed=seed)
    return {
        "time": ExperimentConfig(q_a=DEFAULT_RATE_RANGE, q_b=PRESET_FIXED_RATE,
                                 t=DEFAULT_TIME_RANGE, **common),
        "grid": ExperimentConfig(q_a=DEFAULT_RATE_RANGE, q_b=DEFAULT_RATE_RANGE,
                                 t=PRESET_FIXED_TIME, **common),
    }


def run_preset(name: str, gd_convention: GdConvention = PAPER_CONVENTION,
               seed: int = 0) -> dict[str, SweepDataset]:
    """Run both datasets of a preset: the (q1, t) surface and the rate grid."""
    configs = preset_configs(name, gd_convention=gd_convention, seed=seed)
    out = {}
    for key, cfg in configs.items():
        ds = run_sweep(cfg)
        meta = {"preset": name, **ds.meta}
        if name == "fig1":
            meta["label_note"] = ("also appears under the label 'phase-flip'; "
                                  "the channel pair here is dephasing/dephasing")
        out[key] = SweepDataset(columns=ds.columns, meta=meta)
    return out


ROBUSTNESS_DEFINITION = (
    "curves are normalized by their value at the first time point; at each "
    "later point the measure with the larger normalized value counts as more "
    "robust"
)
TIE_TOL = 1e-12  # normalized curves at most this far apart tie


@dataclass(frozen=True)
class RobustnessReport:
    """Pointwise comparison of the measures' decay relative to their
    initial values."""

    times: np.ndarray
    initial: dict[str, float]
    normalized: dict[str, np.ndarray | None]
    winner: tuple[str, ...]
    crossovers: tuple[float, ...]
    definition: str
    meta: dict[str, object]

    def to_dict(self) -> dict[str, object]:
        return {
            "definition": self.definition,
            "times": [float(t) for t in self.times],
            "initial": {k: float(v) for k, v in self.initial.items()},
            "normalized": {k: None if v is None else [float(x) for x in v]
                           for k, v in self.normalized.items()},
            "winner": list(self.winner),
            "crossovers": list(self.crossovers),
            "meta": dict(self.meta),
        }


def robustness_report(cfg: ExperimentConfig) -> RobustnessReport:
    """Compare how negativity and the discord bound decay along a time sweep.

    A measure that starts at zero cannot be normalized; its curve is None and
    every winner entry becomes "undefined".
    """
    ds = _sweep_in_mode(cfg, "robustness_report", "time")
    times = ds.columns["t"]
    curves = {"negativity": ds.columns["negativity"], "gd": ds.columns["gd_lower"]}
    initial = {name: float(col[0]) for name, col in curves.items()}
    normalized: dict[str, np.ndarray | None] = {
        name: (col / initial[name] if initial[name] > 0.0 else None)
        for name, col in curves.items()
    }
    if any(v is None for v in normalized.values()):
        winner = tuple("undefined" for _ in times)
        crossovers: tuple[float, ...] = ()
    else:
        diff = normalized["negativity"] - normalized["gd"]
        winner = tuple(
            "tie" if abs(d) <= TIE_TOL else ("negativity" if d > 0 else "gd")
            for d in diff
        )
        # sign changes between consecutive untied points, linearly interpolated
        untied = np.flatnonzero(np.abs(diff) > TIE_TOL)
        flips = np.sign(diff[untied[:-1]]) != np.sign(diff[untied[1:]])
        i0, i1 = untied[:-1][flips], untied[1:][flips]
        t0, t1, d0, d1 = times[i0], times[i1], diff[i0], diff[i1]
        crossovers = tuple(float(x) for x in t0 - d0 * (t1 - t0) / (d1 - d0))
    return RobustnessReport(times=times, initial=initial, normalized=normalized,
                            winner=winner, crossovers=crossovers,
                            definition=ROBUSTNESS_DEFINITION, meta=ds.meta)
