"""The three workloads. Each draws its inputs from the seed, hands the runner
one round of top-level calls at a time, keeps what the checker needs, and
checks it after the timed phase.

A round is the unit the runner repeats until the run's time is up, so every
run sees the same mix of call shapes.
"""

from __future__ import annotations

import os

import numpy as np

import qutritcorr as qc
from qutritcorr import cli

import reference as ref

RATE_AXIS = (0.0, 2.0, 50)
TIME_AXIS = (0.0, 5.0, 200)


def _axis(spec: tuple) -> str:
    return ":".join(format(x, "g") for x in spec)


def _run(argv: list[str]) -> None:
    """One in-process CLI call; a non-zero exit code fails the call, so its
    rows are not counted."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"run {argv} exited {code}")


def _ginibre_states(rng: np.random.Generator, count: int) -> list:
    """Full-rank random states, certified by DensityMatrix."""
    return [qc.DensityMatrix(ref.ginibre_state(rng), (3, 3)) for _ in range(count)]


class PresetSweep:
    """The CLI `run` command on both preset shapes of two channel pairs."""

    name = "preset_sweep"
    # fig5 and fig10 together use each of the four families once
    PAIRS = (("dephasing", "trit-flip"), ("trit-phase-flip", "depolarizing"))

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.fixed_rate = float(rng.uniform(0.45, 0.55))
        self.fixed_time = float(rng.uniform(0.95, 1.05))
        self.check_rng = np.random.default_rng([seed, 2])
        self.specs = [(fa, fb, shape) for fa, fb in self.PAIRS for shape in ("time", "grid")]
        self.kept: list[tuple] = []
        self.traced_bytes = 0
        self.files = 0

    @staticmethod
    def warm_up(workdir: str) -> None:
        cli.main(["run", "--channel-a", "dephasing", "--channel-b", "trit-flip",
                  "--qa", "0:2:2", "--qb", "0.5", "--t", "0:5:2",
                  "--output", os.path.join(workdir, f"warm-{os.getpid()}.csv"), "--force"])

    def _argv(self, spec: tuple, path: str) -> list[str]:
        fa, fb, shape = spec
        if shape == "time":
            axes = ["--qb", repr(self.fixed_rate), "--t", _axis(TIME_AXIS)]
        else:
            axes = ["--qb", _axis(RATE_AXIS), "--t", repr(self.fixed_time)]
        return ["run", "--channel-a", fa, "--channel-b", fb, "--qa", _axis(RATE_AXIS),
                *axes, "--output", path]

    def _params(self, shape: str) -> np.ndarray:
        """(t, q1, q2) of every row, in the CLI's row order."""
        rates = np.linspace(*RATE_AXIS)
        if shape == "time":
            return np.array([(t, q, self.fixed_rate)
                             for q in rates for t in np.linspace(*TIME_AXIS)])
        return np.array([(self.fixed_time, q1, q2) for q1 in rates for q2 in rates])

    def calls(self, round_index: int):
        for slot, spec in enumerate(self.specs):
            self.files += 1
            path = os.path.join(self.workdir, f"{self.files}.csv")
            rows = RATE_AXIS[2] * (TIME_AXIS[2] if spec[2] == "time" else RATE_AXIS[2])
            yield (slot, path), rows, lambda argv=self._argv(spec, path): _run(argv)

    def keep(self, key, out, traced: bool) -> None:
        self.kept.append(key)
        if traced:
            self.traced_bytes += os.path.getsize(key[1])

    def check(self, checker) -> tuple[int, int, dict]:
        failed = 0
        first: dict[int, bytes] = {}
        params = {shape: self._params(shape) for shape in ("time", "grid")}
        for slot, path in self.kept:
            fa, fb, shape = self.specs[slot]
            with open(path, "rb") as fh:
                body = fh.read()
            if first.setdefault(slot, body) != body:
                failed += 1
                checker.fail(f"{path}: differs from the same call's first output")
            elif not checker.csv_dataset(path, fa, fb, params[shape], self.check_rng):
                failed += 1
        return 0, failed, {"cli.bytes_written": self.traced_bytes}


class PointQueries:
    """A seeded stream of single-state evolve -> negativity -> bound queries."""

    name = "point_queries"
    POOL = 256      # certified random initial states
    ROUND = 64      # queries drawn at once
    SAMPLE = 256    # rows kept (reservoir sample) for the reference check

    def __init__(self, seed: int, workdir: str):
        self.states = _ginibre_states(np.random.default_rng([seed, 1]), self.POOL)
        self.rng = np.random.default_rng([seed, 2])
        self.sampler = np.random.default_rng([seed, 3])
        self.check_rng = np.random.default_rng([seed, 4])
        self.count = 0
        self.kept: dict[int, tuple] = {}

    @staticmethod
    def warm_up(workdir: str) -> None:
        rho = qc.evolve(qc.make_bell_state(3), "depolarizing", "trit-flip", 0.5, 0.5, 1.0)
        qc.negativity(rho)
        qc.gd_lower_bound(rho)

    @staticmethod
    def _query(state, family_a, family_b, q_a, q_b, t):
        rho = qc.evolve(state, family_a, family_b, q_a, q_b, t)
        return qc.negativity(rho), qc.gd_lower_bound(rho)

    def calls(self, round_index: int):
        n, rng = self.ROUND, self.rng
        which = rng.integers(self.POOL, size=n)
        fams = rng.integers(len(qc.CHANNEL_FAMILIES), size=(n, 2))
        rates = rng.uniform(0.0, 2.0, size=(n, 2))
        times = rng.uniform(0.0, 5.0, size=n)
        index = np.arange(self.count, self.count + n)
        slots = np.where(index < self.SAMPLE, index, self.sampler.integers(0, index + 1))
        self.count += n
        for i in range(n):
            query = (int(which[i]), qc.CHANNEL_FAMILIES[fams[i, 0]],
                     qc.CHANNEL_FAMILIES[fams[i, 1]], float(rates[i, 0]),
                     float(rates[i, 1]), float(times[i]))
            state = self.states[query[0]]
            yield (query, int(slots[i])), 1, lambda s=state, q=query: self._query(s, *q[1:])

    def keep(self, key, out, traced: bool) -> None:
        query, slot = key
        if slot < self.SAMPLE:
            self.kept[slot] = (query, out)

    def check(self, checker) -> tuple[int, int, dict]:
        failed = sum(not checker.point_row(self.states[q[0]].matrix, q, out)
                     for q, out in self.kept.values())
        attempted, anchor_failed = checker.closed_form_anchors(self.check_rng)
        return attempted, failed + anchor_failed, {}


class OracleSweep:
    """gd_exact over a fixed mix: a Bell time sweep, random states, isotropic
    states."""

    name = "oracle_sweep"
    RESTARTS = 32
    BELL_TIMES = tuple(np.linspace(0.0, 5.0, 6))
    ISOTROPIC_PS = (0.2, 0.5, 0.8)
    RANDOM_PER_ROUND = 4
    POOL = 64

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        bell = qc.make_bell_state(3)
        self.bell = [("bell", qc.evolve(bell, "depolarizing", "depolarizing", 0.5, 0.5, t))
                     for t in self.BELL_TIMES]
        self.isotropic = [("isotropic", qc.isotropic_family(p)) for p in self.ISOTROPIC_PS]
        self.random = [("random", s) for s in
                       _ginibre_states(np.random.default_rng([seed, 1]), self.POOL)]
        self.kept: list[tuple] = []

    @staticmethod
    def warm_up(workdir: str) -> None:
        qc.gd_exact(qc.isotropic_family(0.5), restarts=1, seed=0)

    def calls(self, round_index: int):
        first = round_index * self.RANDOM_PER_ROUND
        randoms = [self.random[(first + k) % self.POOL] for k in range(self.RANDOM_PER_ROUND)]
        for kind, rho in self.bell + randoms + self.isotropic:
            yield (kind, rho), 1, lambda rho=rho: qc.gd_exact(
                rho, restarts=self.RESTARTS, seed=self.seed)

    def keep(self, key, out, traced: bool) -> None:
        self.kept.append((key, out))

    def check(self, checker) -> tuple[int, int, dict]:
        failed, gaps = 0, []
        for (kind, rho), result in self.kept:
            ok, gap = checker.oracle_row(rho.matrix, kind, result)
            failed += not ok
            gaps.append(gap)
        extra = {"oracle.residual_max": max((r.residual for _, r in self.kept), default=0.0),
                 "oracle.bound_gap_min": min(gaps, default=0.0)}
        return 0, failed, extra


WORKLOADS = {w.name: w for w in (PresetSweep, PointQueries, OracleSweep)}
