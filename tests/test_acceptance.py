"""End-to-end acceptance checks for the released feature set.

Each test prints a single summary line so a full run doubles as a short
report.  Tolerances are stated inline next to each assertion.
"""

import json
import time

import numpy as np
import pytest

import qutritcorr.cli as cli
from qutritcorr import (CHANNEL_FAMILIES, DEFAULT_TIME_RANGE, ExperimentConfig,
                        PAPER_CONVENTION, PRESET_CHANNELS, RAW_CONVENTION,
                        SweepRange, analytic_gd_isotropic,
                        analytic_negativity_dephasing,
                        analytic_negativity_depolarizing, apply_local_channels,
                        bloch_decomposition,
                        evolve, gamma_of, gd_exact, gd_lower_bound, isotropic_family,
                        kraus_for_family, make_bell_state, negativity,
                        random_density_matrix, robustness_report, run_preset,
                        time_sweep, validate_density_matrix, validate_kraus)

GAMMAS = np.linspace(0.0, 1.0, 11)


@pytest.fixture(scope="module")
def preset_runs():
    start = time.perf_counter()
    runs = {name: run_preset(name) for name in PRESET_CHANNELS}
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_bell_state_baselines():
    start = time.perf_counter()
    bell = make_bell_state(3)
    neg = negativity(bell)
    paper = gd_lower_bound(bell, convention=PAPER_CONVENTION)
    raw = gd_lower_bound(bell, convention=RAW_CONVENTION)
    exact = gd_exact(bell, restarts=32, seed=0)
    elapsed = time.perf_counter() - start
    assert abs(neg - 1.0) <= 1e-12
    assert abs(paper - 4.0 / 3.0) <= 1e-12
    assert abs(raw - 2.0 / 3.0) <= 1e-12
    assert abs(exact.value - 2.0 / 3.0) <= 1e-5
    assert elapsed < 5.0
    print(f"[acceptance] bell baselines pass: N={neg:.12f} "
          f"paper={paper:.12f} raw={raw:.12f} oracle={exact.value:.12f} "
          f"({elapsed:.2f}s)")


def test_dephasing_closed_form_grid():
    start = time.perf_counter()
    bell = make_bell_state(3)
    rates = np.linspace(0.05, 2.0, 20)
    times = np.linspace(0.0, 5.0, 5)
    worst = 0.0
    for qa in rates:
        for qb in rates:
            for t in times:
                rho = evolve(bell, "dephasing", "dephasing", qa, qb, t)
                want = analytic_negativity_dephasing(qa, qb, t)
                worst = max(worst, abs(negativity(rho) - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"[acceptance] dephasing closed form pass: worst dev {worst:.3e} "
          f"over {20 * 20 * 5} points ({elapsed:.2f}s)")


def test_depolarizing_closed_form_and_sudden_death():
    bell = make_bell_state(3)
    qa, qb = 0.7, 0.3
    times = np.linspace(0.0, 5.0, 200)
    sim = np.empty_like(times)
    gd_raw = np.empty_like(times)
    for i, t in enumerate(times):
        rho = evolve(bell, "depolarizing", "depolarizing", qa, qb, t)
        sim[i] = negativity(rho)
        gd_raw[i] = gd_lower_bound(rho, convention=RAW_CONVENTION)
    want = np.array([analytic_negativity_depolarizing(qa, qb, t) for t in times])
    assert np.max(np.abs(sim - want)) <= 1e-10
    p = np.exp(-(qa + qb) * times)
    assert np.max(np.abs(gd_raw - (2.0 / 3.0) * p * p)) <= 1e-10
    # entanglement dies in finite time; the lower bound never does
    t_death = np.log(4.0) / (qa + qb)
    step = times[1] - times[0]
    alive = sim > 1e-12
    last_alive = times[np.nonzero(alive)[0][-1]]
    first_dead = times[np.nonzero(~alive)[0][0]]
    assert last_alive < t_death < first_dead + 1e-12
    assert first_dead - last_alive <= step + 1e-12
    assert np.all(gd_raw > 0.0)
    print(f"[acceptance] depolarizing closed form pass: death bracketed "
          f"{last_alive:.4f} < {t_death:.4f} <= {first_dead:.4f}, "
          f"bound stays positive (min {gd_raw.min():.3e})")


def test_channel_families_are_trace_preserving():
    start = time.perf_counter()
    worst = 0.0
    for family in CHANNEL_FAMILIES:
        for gamma in GAMMAS:
            diag = validate_kraus(kraus_for_family(family, gamma))
            assert diag.ok, (family, gamma)
            worst = max(worst, diag.max_deviation)
    assert worst <= 1e-12
    rng = np.random.default_rng(7)
    bell = make_bell_state(3)
    families = list(CHANNEL_FAMILIES)
    for trial in range(200):
        fa, fb = rng.choice(families, size=2)
        qa, qb = rng.uniform(0.0, 2.0, size=2)
        t = rng.uniform(0.0, 5.0)
        out = evolve(bell, str(fa), str(fb), qa, qb, t)
        validate_density_matrix(out.matrix, (3, 3))  # raises on violation
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[acceptance] channel families pass: completeness worst {worst:.3e}, "
          f"200 random evolutions valid ({elapsed:.2f}s)")


def test_lower_bound_never_exceeds_oracle(mub_distance):
    # The oracle is bracketed: the bound lies below it, and every mutually
    # unbiased basis gives a distance above it (to 1e-12). The Bell state under
    # dephasing/trit-flip at t = 0.5 has a local minimum 9.1e-3 above the
    # discord, so an oracle that returned its worst restart would fail there.
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_gap, worst_slack = -np.inf, np.inf
    for trial in range(50):
        seed = int(rng.integers(0, 2**31 - 1))
        rho = random_density_matrix(3, d2=3, rng=seed)
        bound = gd_lower_bound(rho, convention=RAW_CONVENTION)
        exact = gd_exact(rho, restarts=32, seed=trial)
        assert bound <= exact.value + 1e-4, (trial, bound, exact.value)
        worst_gap = max(worst_gap, bound - exact.value)
        worst_slack = min(worst_slack, mub_distance(rho) - exact.value)
    bell = make_bell_state(3)
    for family_a in CHANNEL_FAMILIES:
        for family_b in CHANNEL_FAMILIES:
            for t in (0.5, 3.0):
                rho = evolve(bell, family_a, family_b, 2.0 / 3.0, 0.5, t)
                exact = gd_exact(rho, restarts=32, seed=0)
                worst_gap = max(worst_gap, gd_lower_bound(rho, RAW_CONVENTION) - exact.value)
                worst_slack = min(worst_slack, mub_distance(rho) - exact.value)
    worst_tight = 0.0
    for i, p in enumerate(np.linspace(0.05, 0.95, 10)):
        rho = isotropic_family(p)
        exact = gd_exact(rho, restarts=32, seed=1000 + i)
        dev = abs(exact.value - analytic_gd_isotropic(p, convention=RAW_CONVENTION))
        worst_tight = max(worst_tight, dev)
        worst_slack = min(worst_slack, mub_distance(rho) - exact.value)
    elapsed = time.perf_counter() - start
    assert worst_gap <= 1e-4
    assert worst_slack >= -1e-12
    assert worst_tight <= 1e-5
    assert elapsed < 600.0
    print(f"[acceptance] oracle dominance pass: worst bound-oracle gap "
          f"{worst_gap:.3e}, worst MUB slack {worst_slack:.3e}, isotropic "
          f"tightness {worst_tight:.3e} ({elapsed:.2f}s)")


def test_preset_negativity_monotone_in_time(preset_runs):
    runs, _ = preset_runs
    for name, out in runs.items():
        ds = out["time"]
        n_rates = len(ds) // 200
        neg = ds.columns["negativity"].reshape(n_rates, 200)
        increases = np.diff(neg, axis=1)
        assert np.all(increases <= 1e-12), name
    print(f"[acceptance] preset monotonicity pass: negativity non-increasing "
          f"in t for all {len(runs)} presets")


def test_preset_columns_match_kraus_path(preset_runs):
    # the batched superoperator sweep against per-row Kraus application
    runs, _ = preset_runs
    rng = np.random.default_rng(3)
    bell = make_bell_state(3)
    worst = 0.0
    for name, out in runs.items():
        fa, fb = PRESET_CHANNELS[name]
        for ds in out.values():
            for i in rng.choice(len(ds), size=16, replace=False):
                t, q1, q2 = (ds.columns[c][i] for c in ("t", "q1", "q2"))
                rho = apply_local_channels(bell, kraus_for_family(fa, gamma_of(q1, t)),
                                           kraus_for_family(fb, gamma_of(q2, t)))
                worst = max(worst, abs(ds.columns["negativity"][i] - negativity(rho)),
                            abs(ds.columns["gd_lower"][i] - gd_lower_bound(rho)))
    assert worst <= 1e-12
    print(f"[acceptance] preset columns pass: worst deviation from the Kraus path "
          f"{worst:.3e} over 16 rows of {2 * len(runs)} datasets")


def test_legacy_formula_regressions():
    from qutritcorr import trit_flip_kraus_unnormalized
    # keeping the raw printed weights breaks trace preservation by 4*gamma/3
    for gamma in GAMMAS:
        diag = validate_kraus(trit_flip_kraus_unnormalized(gamma))
        assert abs(diag.max_deviation - 4.0 * gamma / 3.0) <= 1e-12
        assert diag.ok == (gamma == 0.0)
    # summing the correlation spectrum over its full range cancels the trace
    # term identically, which is why the bound keeps only the top block
    for seed in range(20):
        rho = random_density_matrix(3, d2=3, rng=seed)
        dec = bloch_decomposition(rho)
        g = np.outer(dec.y_a, dec.y_a) + (2.0 / 3.0) * dec.corr @ dec.corr.T
        eigs = np.linalg.eigvalsh(g)
        assert abs(np.trace(g) - eigs.sum()) <= 1e-12
    print("[acceptance] legacy formula regressions pass: unnormalized weights "
          "deviate by 4g/3, full-range spectrum sum cancels the trace term")


def test_robustness_reports_archive(tmp_path):
    reports = {}
    for name, (fa, fb) in PRESET_CHANNELS.items():
        cfg = ExperimentConfig(family_a=fa, family_b=fb, q_a=0.5, q_b=0.5,
                               t=DEFAULT_TIME_RANGE)
        report = robustness_report(cfg)
        path = tmp_path / f"{name}_robustness.json"
        path.write_text(json.dumps(report.to_dict(), indent=2))
        assert path.stat().st_size > 0
        reports[name] = report
    assert len(reports) == 10
    dep = reports["fig4"]
    idx = int(np.argmin(np.abs(dep.times - 1.0)))
    n_norm = dep.normalized["negativity"][idx]
    g_norm = dep.normalized["gd"][idx]
    assert n_norm == pytest.approx(0.157216, abs=5e-3)
    assert g_norm == pytest.approx(0.135335, abs=5e-3)
    assert n_norm > g_norm
    print(f"[acceptance] robustness archive pass: 10 reports written, "
          f"depolarizing at t~1 keeps {n_norm:.4f} of its negativity vs "
          f"{g_norm:.4f} of its bound")


def test_preset_pipeline_is_deterministic(tmp_path, preset_runs):
    _, elapsed = preset_runs
    assert elapsed < 300.0
    outs = []
    for label in ("a", "b"):
        outdir = tmp_path / label
        rc = cli.main(["preset", "--name", "fig4", "--outdir", str(outdir)])
        assert rc == 0
        outs.append((outdir / "fig4_time.csv").read_bytes()
                    + (outdir / "fig4_grid.csv").read_bytes())
    assert outs[0] == outs[1]
    print(f"[acceptance] determinism pass: fig4 byte-identical across runs, "
          f"all presets in {elapsed:.1f}s")
