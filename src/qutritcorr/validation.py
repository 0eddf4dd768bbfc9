"""Cross-module consistency suite behind the `validate` CLI command."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (CHANNEL_FAMILIES, COMPLETENESS_TOL, _FAMILY_BUILDERS, clock_matrix,
                       evolve, shift_matrix, trit_flip_kraus_unnormalized, validate_kraus)
from .linalg import (PSD_TOL, DensityMatrix, ValidationError, _integer_at_least,
                     make_bell_state, random_density_matrix)
from .measures import RAW_CONVENTION, gd_lower_bound, isotropic_family, negativity
from .oracle import (analytic_gd_isotropic, analytic_negativity_dephasing,
                     analytic_negativity_depolarizing, gd_exact, project_measurement)

CLOSED_FORM_TOL = 1e-10
BOUND_TOL = 1e-4
TIGHTNESS_TOL = 1e-5
MUB_TOL = 1e-12

GAMMA_GRID = np.linspace(0.0, 1.0, 11)
# 4 asymmetric rate pairs x 5 times = the 20-point closed-form grid
RATE_PAIRS = ((0.2, 0.2), (0.5, 0.5), (1.0, 0.3), (1.7, 0.9))
TIME_POINTS = (0.0, 0.5, 1.0, 2.0, 5.0)
ISOTROPIC_PS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    max_deviation: float
    passed: bool


def run_validation(seed: int = 0, restarts: int = 32, oracle_states: int = 12,
                   unnormalized_trit_flip: bool = False) -> list[CheckResult]:
    for name, value, least in (("seed", seed, 0), ("oracle_states", oracle_states, 1)):
        if not _integer_at_least(value, least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    checks: list[CheckResult] = []

    builders = dict(_FAMILY_BUILDERS)
    if unnormalized_trit_flip:
        builders["trit-flip"] = trit_flip_kraus_unnormalized
    for family, builder in builders.items():
        dev = max(validate_kraus(builder(g)).max_deviation for g in GAMMA_GRID)
        label = family + (" (unnormalized weights)"
                          if family == "trit-flip" and unnormalized_trit_flip else "")
        checks.append(CheckResult(f"kraus completeness: {label}", COMPLETENESS_TOL,
                                  dev, dev <= COMPLETENESS_TOL))

    rng = np.random.default_rng(seed)
    families = list(CHANNEL_FAMILIES)
    mats, pairs, params = [], [], []
    for _ in range(200):
        mats.append(random_density_matrix(3, 3, rng=rng).matrix)
        pairs.append(tuple(str(f) for f in rng.choice(families, size=2)))
        params.append((*rng.uniform(0.0, 2.0, size=2), rng.uniform(0.0, 5.0)))
    mats, params = np.array(mats), np.array(params)
    worst = 0.0
    ok = True
    for pair in dict.fromkeys(pairs):  # one stacked evolve per family pair
        group = [n for n, p in enumerate(pairs) if p == pair]
        try:
            evolve(DensityMatrix(mats[group], (3, 3)), *pair, *params[group].T)
        except ValidationError as exc:
            ok = False
            worst = max(worst, max(exc.violations.values(), default=np.inf))
    checks.append(CheckResult("evolved states valid", PSD_TOL, worst, ok))

    bell = make_bell_state(3)
    grid = [(qa, qb, t) for qa, qb in RATE_PAIRS for t in TIME_POINTS]
    for family, closed_form in (("dephasing", analytic_negativity_dephasing),
                                ("depolarizing", analytic_negativity_depolarizing)):
        evolved = negativity(evolve(bell, family, family, *np.array(grid).T))
        dev = float(np.max(np.abs(evolved - [closed_form(*point) for point in grid])))
        checks.append(CheckResult(f"negativity closed form: {family}", CLOSED_FORM_TOL,
                                  dev, dev <= CLOSED_FORM_TOL))

    state_rng = np.random.default_rng([seed, 1])
    states = [random_density_matrix(3, 3, rng=state_rng) for _ in range(oracle_states)]
    isotropic = [isotropic_family(p) for p in ISOTROPIC_PS]
    exact = [gd_exact(rho, restarts=restarts, seed=seed).value for rho in states + isotropic]
    # np.max, unlike max, lets a NaN through to fail the check
    gap = float(np.max([gd_lower_bound(rho, RAW_CONVENTION) - value
                        for rho, value in zip(states, exact)]))
    checks.append(CheckResult("gd bound below oracle", BOUND_TOL, max(0.0, gap),
                              gap <= BOUND_TOL))

    tight = 0.0  # against the oracle and, as a sanity check, the closed form
    for p, rho, value in zip(ISOTROPIC_PS, isotropic, exact[len(states):]):
        bound = gd_lower_bound(rho, RAW_CONVENTION)
        analytic = analytic_gd_isotropic(p, RAW_CONVENTION)
        tight = float(np.max([tight, abs(bound - value), abs(bound - analytic)]))
    checks.append(CheckResult("gd bound tight on isotropic states", TIGHTNESS_TOL,
                              tight, tight <= TIGHTNESS_TOL))

    # any fixed basis bounds the discord from above; these are the four qutrit
    # mutually unbiased bases, the eigenbases of Z, X, XZ and XZ^2
    x, z = shift_matrix(3), clock_matrix(3)
    mubs = [np.linalg.eig(u)[1] for u in (z, x, x @ z, x @ z @ z)]
    excess = float(np.max([
        value - np.min([np.vdot(diff, diff).real for diff in
                        (rho.matrix - project_measurement(rho, u).matrix for u in mubs)])
        for rho, value in zip(states + isotropic, exact)]))
    checks.append(CheckResult("gd oracle below MUB distances", MUB_TOL, max(0.0, excess),
                              excess <= MUB_TOL))
    return checks
