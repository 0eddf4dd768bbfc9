"""Output checks against the plain-numpy reference, and their self-test.

Tolerances are the project's own: 1e-12 for recomputed columns, 1e-10 for
closed forms and for the oracle value reproduced by its own basis, 1e-4 for
dominance over the raw bound and 1e-5 for tightness on isotropic states.
"""

from __future__ import annotations

import os

import numpy as np

import qutritcorr as qc
from qutritcorr import cli

import reference as ref

ROW_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
VALUE_TOL = 1e-10
DOMINANCE_TOL = 1e-4
TIGHTNESS_TOL = 1e-5

CSV_HEADER = ["t", "q1", "q2", "negativity", "gd_lower"]
ROWS_SAMPLED_PER_FILE = 16
ANCHOR_POINTS = 8


def printed_tol(values: np.ndarray) -> np.ndarray:
    """ROW_TOL plus half a unit in the 12th significant digit, the rounding
    the CSV writer's '.12g' format applies to each value."""
    mag = np.abs(values)
    exponent = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    return ROW_TOL + np.where(mag > 0, 0.5 * 10.0 ** (exponent - 11), 0.0)


class Checker:
    """Runs the checks and keeps the first few failure messages."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, message: str) -> bool:
        if len(self.failures) < 10:
            self.failures.append(message)
        return False

    def csv_dataset(self, path: str, family_a: str, family_b: str,
                    params: np.ndarray, rng: np.random.Generator) -> bool:
        """A dataset file: header, the expected (t, q1, q2) on every row, and
        negativity and bound recomputed on a seeded sample of rows."""
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        if lines[0].split(",") != CSV_HEADER:
            return self.fail(f"{path}: header {lines[0]!r}")
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        if data.shape != (len(params), len(CSV_HEADER)):
            return self.fail(f"{path}: shape {data.shape}, expected {(len(params), 5)}")
        axis_dev = np.abs(data[:, :3] - params) - printed_tol(params)
        if axis_dev.max() > 0:
            return self.fail(f"{path}: axis columns off the requested grid")
        picks = {0, len(params) - 1}
        picks.update(int(i) for i in rng.choice(
            len(params), min(ROWS_SAMPLED_PER_FILE, len(params)), replace=False))
        start = ref.bell()
        for i in sorted(picks):
            t, q1, q2 = params[i]
            rho = ref.evolve(start, family_a, family_b, q1, q2, t)
            want = np.array([ref.negativity(rho), ref.gd_bound(rho)])
            dev = np.abs(data[i, 3:] - want) - printed_tol(want)
            if dev.max() > 0:
                return self.fail(f"{path}: row {i} {data[i, 3:].tolist()} "
                                 f"vs reference {want.tolist()}")
        return True

    def point_row(self, state: np.ndarray, query: tuple, out: tuple) -> bool:
        _, family_a, family_b, q_a, q_b, t = query
        rho = ref.evolve(state, family_a, family_b, q_a, q_b, t)
        want = (ref.negativity(rho), ref.gd_bound(rho))
        dev = max(abs(out[0] - want[0]), abs(out[1] - want[1]))
        if not dev <= ROW_TOL:
            return self.fail(f"query {query}: {out} vs reference {want}")
        return True

    def closed_form_anchors(self, rng: np.random.Generator) -> tuple[int, int]:
        """Library negativity of the evolved Bell state against the
        analytic_negativity_* closed forms; returns (attempted, failed)."""
        bell = qc.make_bell_state(3)
        closed = {"dephasing": qc.analytic_negativity_dephasing,
                  "depolarizing": qc.analytic_negativity_depolarizing}
        attempted = failed = 0
        for q_a, q_b, t in zip(*rng.uniform(0.0, 2.0, (2, ANCHOR_POINTS)),
                               rng.uniform(0.0, 5.0, ANCHOR_POINTS)):
            for family, form in closed.items():
                attempted += 1
                got = qc.negativity(qc.evolve(bell, family, family, q_a, q_b, t))
                want = form(q_a, q_b, t)
                if not abs(got - want) <= CLOSED_FORM_TOL:
                    failed += 1
                    self.fail(f"{family} closed form at {(q_a, q_b, t)}: {got} vs {want}")
        return attempted, failed

    def oracle_row(self, rho: np.ndarray, kind: str, result) -> tuple[bool, float]:
        """Dominance over the raw bound, tightness on isotropic states, and the
        value reproduced by projecting in the returned basis. Returns
        (ok, exact value minus raw bound)."""
        raw = ref.gd_bound(rho, prefactor_num=2.0)
        gap = result.value - raw
        state = qc.DensityMatrix(rho, (3, 3))
        reached = ref.hs_distance_sq(rho, qc.project_measurement(state, result.basis).matrix)
        if not np.isfinite(result.residual):
            return self.fail(f"{kind}: residual {result.residual}"), gap
        if not gap >= -DOMINANCE_TOL:
            return self.fail(f"{kind}: oracle {result.value} below raw bound {raw}"), gap
        if kind == "isotropic" and not abs(gap) <= TIGHTNESS_TOL:
            return self.fail(f"isotropic: oracle {result.value} vs bound {raw}"), gap
        if not abs(reached - result.value) <= VALUE_TOL:
            return self.fail(f"{kind}: basis reaches {reached}, value says {result.value}"), gap
        return True, gap


def self_test(workdir: str) -> list[str]:
    """Feed the checks one corrupted dataset row and one inflated oracle
    value next to their clean originals; returns what went wrong (empty when
    every clean input passed and every corrupted one was counted failed)."""
    problems = []
    checker = Checker()
    rng = np.random.default_rng(0)

    path = os.path.join(workdir, "selftest.csv")
    cli.main(["run", "--channel-a", "trit-phase-flip", "--channel-b", "dephasing",
              "--qa", "0:2:3", "--qb", "0.7", "--t", "0:5:4", "--output", path, "--force"])
    grid = np.array([(t, q, 0.7) for q in np.linspace(0, 2, 3) for t in np.linspace(0, 5, 4)])
    args = ("trit-phase-flip", "dephasing", grid)
    if not checker.csv_dataset(path, *args, rng):
        problems.append("clean dataset failed")
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = len(lines) - 5
    cells = lines[row].split(",")
    cells[3] = format(float(cells[3]) + 1e-9, ".12g")
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if checker.csv_dataset(path, *args, np.random.default_rng(0)):
        problems.append("corrupted row passed")

    state = qc.isotropic_family(0.5)
    result = qc.gd_exact(state, restarts=2, seed=0)
    if not checker.oracle_row(state.matrix, "isotropic", result)[0]:
        problems.append("clean oracle value failed")
    inflated = qc.OracleResult(value=result.value + 1e-6, basis=result.basis,
                               restarts_used=result.restarts_used, seed=result.seed,
                               residual=result.residual)
    if checker.oracle_row(state.matrix, "isotropic", inflated)[0]:
        problems.append("inflated oracle value passed")
    return problems
