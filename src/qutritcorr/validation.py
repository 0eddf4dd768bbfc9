"""Cross-module consistency suite behind the `validate` CLI command."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (CHANNEL_FAMILIES, COMPLETENESS_TOL, _FAMILY_BUILDERS, clock_matrix,
                       evolve, shift_matrix, trit_flip_kraus_unnormalized, validate_kraus)
from .linalg import (PSD_TOL, DensityMatrix, ValidationError, _integer,
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
    seed, oracle_states = _integer(seed, 0, "seed"), _integer(oracle_states, 1, "oracle_states")
    checks: list[CheckResult] = []

    def check(name: str, tolerance: float, deviation: float, passed: bool | None = None):
        """Record a check; it passes at deviation <= tolerance (NaN fails), shown clamped at 0."""
        checks.append(CheckResult(name, tolerance, float(np.maximum(deviation, 0.0)),
                                  bool(deviation <= tolerance) if passed is None else passed))

    for family, builder in _FAMILY_BUILDERS.items():
        if family == "trit-flip" and unnormalized_trit_flip:
            family, builder = "trit-flip (unnormalized weights)", trit_flip_kraus_unnormalized
        check(f"kraus completeness: {family}", COMPLETENESS_TOL,
              np.max([validate_kraus(builder(g)).max_deviation for g in GAMMA_GRID]))

    rng = np.random.default_rng(seed)
    draws = [(random_density_matrix(3, 3, rng=rng).matrix,
              tuple(str(f) for f in rng.choice(CHANNEL_FAMILIES, size=2)),
              (*rng.uniform(0.0, 2.0, size=2), rng.uniform(0.0, 5.0))) for _ in range(200)]
    worst, ok = 0.0, True
    for pair in dict.fromkeys(drawn for _, drawn, _ in draws):  # one stacked evolve per family pair
        mats, params = zip(*((m, p) for m, drawn, p in draws if drawn == pair))
        try:  # evolve certifies its states by construction; here they pass the full certification
            out = evolve(DensityMatrix(np.array(mats), (3, 3)), *pair, *np.array(params).T)
            DensityMatrix(out.matrix, out.dims)
        except ValidationError as exc:
            ok, worst = False, max(worst, max(exc.violations.values(), default=np.inf))
    check("evolved states valid", PSD_TOL, worst, ok)

    bell = make_bell_state(3)
    grid = [(qa, qb, t) for qa, qb in RATE_PAIRS for t in TIME_POINTS]
    for family, closed_form in (("dephasing", analytic_negativity_dephasing),
                                ("depolarizing", analytic_negativity_depolarizing)):
        evolved = negativity(evolve(bell, family, family, *np.array(grid).T))
        check(f"negativity closed form: {family}", CLOSED_FORM_TOL,
              np.max(np.abs(evolved - [closed_form(*point) for point in grid])))

    state_rng = np.random.default_rng([seed, 1])
    states = [random_density_matrix(3, 3, rng=state_rng) for _ in range(oracle_states)]
    isotropic = [isotropic_family(p) for p in ISOTROPIC_PS]
    exact = [gd_exact(rho, restarts=restarts, seed=seed).value for rho in states + isotropic]
    bounds = [gd_lower_bound(rho, RAW_CONVENTION) for rho in states + isotropic]
    # np.max, unlike max, lets a NaN through to fail the check
    check("gd bound below oracle", BOUND_TOL, np.max(np.subtract(bounds, exact)[:len(states)]))
    # against the oracle and, as a sanity check, the closed form
    check("gd bound tight on isotropic states", TIGHTNESS_TOL, np.max(np.abs(
        [(b - value, b - analytic_gd_isotropic(p, RAW_CONVENTION))
         for p, b, value in zip(ISOTROPIC_PS, bounds[len(states):], exact[len(states):])])))

    # any fixed basis bounds the discord from above; these are the four qutrit
    # mutually unbiased bases, the eigenbases of Z, X, XZ and XZ^2
    x, z = shift_matrix(3), clock_matrix(3)
    mubs = [np.linalg.eig(u)[1] for u in (z, x, x @ z, x @ z @ z)]
    check("gd oracle below MUB distances", MUB_TOL, np.max([
        value - np.min([np.vdot(diff, diff).real for diff in
                        (rho.matrix - project_measurement(rho, u).matrix for u in mubs)])
        for rho, value in zip(states + isotropic, exact)]))
    return checks
