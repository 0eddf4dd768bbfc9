import dataclasses
import json

import numpy as np
import pytest

from qutritcorr import (CHANNEL_FAMILIES, ConfigError, ExperimentConfig,
                        PRESET_CHANNELS, RAW_CONVENTION, SweepRange,
                        analytic_negativity_dephasing,
                        analytic_negativity_depolarizing, infer_sweep_mode,
                        preset_configs, rate_grid, robustness_report, run_preset,
                        run_sweep, time_sweep)
from qutritcorr.cli import format_dataset_csv, format_dataset_json


def time_config(family_a, family_b, qa, qb, t_range, **kw):
    return ExperimentConfig(family_a=family_a, family_b=family_b, q_a=qa, q_b=qb,
                            t=t_range, **kw)


def test_sweep_range_grid_and_validation():
    r = SweepRange(0.0, 5.0, 6)
    np.testing.assert_allclose(r.grid(), [0, 1, 2, 3, 4, 5])
    assert str(r) == "0:5:6"
    with pytest.raises(ConfigError):
        SweepRange(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        SweepRange(2.0, 1.0, 5)
    with pytest.raises(ConfigError):
        SweepRange(-1.0, 1.0, 5)
    # a fractional step count is refused by name, not by numpy in grid()
    with pytest.raises(ConfigError) as exc:
        SweepRange(0.0, 1.0, 2.5)
    assert exc.value.field == "steps"
    assert len(SweepRange(0.0, 1.0, np.int64(3)).grid()) == 3


def test_config_validation_names_fields():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(family_a="bogus", family_b="dephasing", q_a=0.5, q_b=0.5,
                         t=SweepRange(0, 1, 5))
    assert exc.value.field == "family_a"

    for field in ("family_a", "family_b"):  # an array, not numpy's ambiguous truth value
        families = {"family_a": "dephasing", "family_b": "dephasing",
                    field: np.array(["dephasing", "x"])}
        with pytest.raises(ConfigError, match=rf"^{field} must be one of .*, got array"):
            ExperimentConfig(**families, q_a=0.5, q_b=0.5, t=SweepRange(0, 1, 5))

    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(family_a="dephasing", family_b="dephasing", q_a=0.5,
                         q_b=0.5, t=1.0)
    assert exc.value.field == "t"

    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(family_a="dephasing", family_b="dephasing",
                         q_a=SweepRange(0, 1, 3), q_b=SweepRange(0, 1, 3),
                         t=SweepRange(0, 1, 3))
    assert exc.value.field == "t"

    with pytest.raises(ConfigError) as exc:
        time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3), oracle_restarts=0)
    assert exc.value.field == "oracle_restarts"

    with pytest.raises(ConfigError) as exc:
        time_config("dephasing", "dephasing", 0.5, float("nan"), SweepRange(0, 1, 3))
    assert exc.value.field == "q_b"
    assert time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3),
                       oracle_enabled=np.True_).oracle_enabled


@pytest.mark.parametrize("field,value", [("q_a", True), ("q_a", "0.5"), ("q_a", None),
                                         ("q_b", False), ("q_b", 1j), ("t", True),
                                         ("t", "1"), ("gd_convention", "raw"),
                                         ("gd_convention", None), ("oracle_enabled", "no"),
                                         ("oracle_enabled", 1)])
def test_config_refuses_rates_and_times_that_are_not_real_numbers(field, value):
    axes = {"q_a": 0.5, "q_b": 0.5, "t": SweepRange(0, 1, 3)}
    if field == "t":
        axes["q_a"] = SweepRange(0, 1, 3)
    axes[field] = value
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(family_a="dephasing", family_b="dephasing", **axes)
    assert exc.value.field == field


@pytest.mark.parametrize("start,stop", [(True, 1), (0, True), ("0", 1), (0, None),
                                        (0, 1 + 0j)])
def test_sweep_range_refuses_bounds_that_are_not_real_numbers(start, stop):
    with pytest.raises(ConfigError) as exc:
        SweepRange(start, stop, 3)
    assert exc.value.field == ("stop" if start == 0 else "start")
    with pytest.raises(ConfigError, match=r"^start must lie in \[0, 1\], got 2\.0$"):
        SweepRange(2.0, 1.0, 3)  # the stop, read first, bounds the start
    assert len(SweepRange(np.float64(0), np.int64(1), 3).grid()) == 3


@pytest.mark.parametrize("seed", [-3, 2.5, True, "3"])
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ConfigError) as exc:
        time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3), seed=seed)
    assert exc.value.field == "seed"
    assert time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3),
                       seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("numpy_field", [{"seed": np.int64(3)},
                                         {"oracle_restarts": np.int32(4)},
                                         {"oracle_enabled": np.False_}])
def test_numpy_scalars_in_the_config_format_as_csv_and_json(numpy_field):
    # accepted numpy scalars become Python values, so the metadata serialises
    cfg = time_config("dephasing", "trit-flip", 0.5, 0.5, SweepRange(0, 1, 3), **numpy_field)
    (name, value), = numpy_field.items()
    assert type(getattr(cfg, name)) is type(value.item()) and getattr(cfg, name) == value
    ds = run_sweep(cfg)
    assert f"# {name}: {json.dumps(value.item())}\n" in format_dataset_csv(ds)
    assert json.loads(format_dataset_json(ds))["meta"][name] == value.item()


@pytest.mark.parametrize("restarts", [2.5, True, "8"])
def test_config_refuses_oracle_restarts_that_are_not_a_positive_integer(restarts):
    # refused when the config is built, not after the first batch is evolved
    with pytest.raises(ConfigError) as exc:
        time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3),
                    oracle_enabled=True, oracle_restarts=restarts)
    assert exc.value.field == "oracle_restarts"
    assert time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3),
                       oracle_restarts=np.int64(4)).oracle_restarts == 4


def test_sweep_mode_is_derived_and_read_only():
    cfg = time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 3))
    assert cfg.sweep_mode == "time"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.sweep_mode = "rate_grid"
    with pytest.raises(TypeError):
        ExperimentConfig(family_a="dephasing", family_b="dephasing", q_a=0.5, q_b=0.5,
                         t=SweepRange(0, 1, 3), sweep_mode="time")


def test_infer_sweep_mode():
    r = SweepRange(0, 1, 4)
    assert infer_sweep_mode(0.5, 0.5, r) == "time"
    assert infer_sweep_mode(r, 0.5, 1.0) == "rate_time"
    assert infer_sweep_mode(r, 0.5, r) == "rate_time"
    assert infer_sweep_mode(r, r, 1.0) == "rate_grid"
    with pytest.raises(ConfigError):
        infer_sweep_mode(r, r, r)
    with pytest.raises(ConfigError):
        infer_sweep_mode(0.5, 0.5, 1.0)


def test_time_sweep_start_and_closed_form():
    cfg = time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0.0, 5.0, 40))
    ds = time_sweep(cfg)
    assert list(ds.columns) == ["t", "q1", "q2", "negativity", "gd_lower"]
    assert len(ds) == 40
    np.testing.assert_allclose(ds.columns["q1"], 0.5)
    assert abs(ds.columns["negativity"][0] - 1.0) < 1e-10
    assert abs(ds.columns["gd_lower"][0] - 4.0 / 3.0) < 1e-10
    expected = [analytic_negativity_dephasing(0.5, 0.5, t) for t in ds.columns["t"]]
    np.testing.assert_allclose(ds.columns["negativity"], expected, atol=1e-10)


def test_time_sweep_columns_are_nonnegative():
    cfg = time_config("trit-flip", "depolarizing", 0.9, 0.4, SweepRange(0.0, 5.0, 25))
    ds = time_sweep(cfg)
    assert np.all(ds.columns["negativity"] >= 0.0)
    assert np.all(ds.columns["gd_lower"] >= 0.0)


def test_time_sweep_is_deterministic():
    cfg = time_config("trit-phase-flip", "dephasing", 0.3, 0.8, SweepRange(0.0, 4.0, 15))
    d1, d2 = time_sweep(cfg), time_sweep(cfg)
    for name in d1.columns:
        np.testing.assert_array_equal(d1.columns[name], d2.columns[name])


def test_rate_time_sweep_row_order():
    cfg = ExperimentConfig(family_a="dephasing", family_b="dephasing",
                           q_a=SweepRange(0.0, 1.0, 3), q_b=0.5,
                           t=SweepRange(0.0, 2.0, 4))
    ds = time_sweep(cfg)
    assert len(ds) == 12
    # swept rate outer, t inner
    np.testing.assert_allclose(ds.columns["q1"][:4], 0.0)
    np.testing.assert_allclose(ds.columns["q1"][4:8], 0.5)
    np.testing.assert_allclose(ds.columns["t"][:4], [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0])
    assert ds.meta["sweep_mode"] == "rate_time"


def test_time_sweep_rejects_grid_config():
    cfg = ExperimentConfig(family_a="dephasing", family_b="dephasing",
                           q_a=SweepRange(0, 1, 3), q_b=SweepRange(0, 1, 3),
                           t=1.0)
    with pytest.raises(ConfigError, match="time_sweep handles 'time' and 'rate_time'") as exc:
        time_sweep(cfg)
    assert exc.value.field == "sweep_mode"
    with pytest.raises(ConfigError, match="rate_grid handles 'rate_grid', got 'time'") as exc:
        rate_grid(time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0, 1, 4)))
    assert exc.value.field == "sweep_mode"


def test_rate_grid_layout_and_depolarizing_values():
    cfg = ExperimentConfig(family_a="depolarizing", family_b="depolarizing",
                           q_a=SweepRange(0.0, 2.0, 5), q_b=SweepRange(0.0, 2.0, 5),
                           t=1.0)
    ds = rate_grid(cfg)
    assert len(ds) == 25
    # row-major: q1 outer, q2 inner
    np.testing.assert_allclose(ds.columns["q1"][:5], 0.0)
    np.testing.assert_allclose(ds.columns["q2"][:5], [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(ds.columns["t"], 1.0)
    expected = [analytic_negativity_depolarizing(q1, q2, 1.0)
                for q1, q2 in zip(ds.columns["q1"], ds.columns["q2"])]
    np.testing.assert_allclose(ds.columns["negativity"], expected, atol=1e-10)


@pytest.mark.parametrize("family", CHANNEL_FAMILIES)
def test_rate_grid_monotone_along_both_axes(family):
    n = 6
    cfg = ExperimentConfig(family_a=family, family_b=family,
                           q_a=SweepRange(0.0, 2.0, n), q_b=SweepRange(0.0, 2.0, n),
                           t=1.0)
    ds = rate_grid(cfg)
    neg = ds.columns["negativity"].reshape(n, n)
    assert np.all(np.diff(neg, axis=0) <= 1e-12)
    assert np.all(np.diff(neg, axis=1) <= 1e-12)


def test_oracle_column_when_enabled():
    cfg = ExperimentConfig(family_a="depolarizing", family_b="depolarizing",
                           q_a=0.5, q_b=0.5, t=SweepRange(0.0, 2.0, 3),
                           gd_convention=RAW_CONVENTION,
                           oracle_enabled=True, oracle_restarts=4)
    ds = time_sweep(cfg)
    assert list(ds.columns)[-1] == "gd_exact"
    # two-sided depolarizing keeps the state isotropic, where the bound is tight
    np.testing.assert_allclose(ds.columns["gd_exact"], ds.columns["gd_lower"],
                               atol=1e-6)


def test_preset_table_covers_all_pairs():
    assert len(PRESET_CHANNELS) == 10
    assert PRESET_CHANNELS["fig1"] == ("dephasing", "dephasing")
    assert PRESET_CHANNELS["fig4"] == ("depolarizing", "depolarizing")
    assert PRESET_CHANNELS["fig10"] == ("trit-phase-flip", "depolarizing")
    pairs = {tuple(sorted(v)) for v in PRESET_CHANNELS.values()}
    assert len(pairs) == 10  # every unordered pair exactly once


def test_preset_configs_shapes():
    cfgs = preset_configs("fig2")
    assert cfgs["time"].sweep_mode == "rate_time"
    assert cfgs["time"].q_b == 0.5
    assert cfgs["grid"].sweep_mode == "rate_grid"
    assert cfgs["grid"].t == 1.0
    with pytest.raises(ConfigError):
        preset_configs("fig11")


def test_robustness_report_depolarizing():
    cfg = time_config("depolarizing", "depolarizing", 0.5, 0.5, SweepRange(0.0, 5.0, 101))
    report = robustness_report(cfg)
    assert abs(report.initial["negativity"] - 1.0) < 1e-10
    assert abs(report.initial["gd"] - 4.0 / 3.0) < 1e-10
    # at t = 1 the normalized negativity (4/e - 1)/3 beats the normalized
    # bound exp(-2); the curves cross at t = ln 3, then the bound wins
    idx = np.argmin(np.abs(report.times - 1.0))
    n_norm = report.normalized["negativity"][idx]
    g_norm = report.normalized["gd"][idx]
    assert n_norm > g_norm
    assert abs(n_norm - analytic_negativity_depolarizing(0.5, 0.5, report.times[idx])) < 1e-10
    assert abs(g_norm - np.exp(-2.0 * report.times[idx])) < 1e-10
    assert report.winner[idx] == "negativity"
    assert report.winner[-1] == "gd"
    assert any(abs(c - np.log(3.0)) < 0.06 for c in report.crossovers)


def test_robustness_report_handles_vanished_initial_value():
    # beyond the entanglement death time the first negativity sample is 0
    cfg = time_config("depolarizing", "depolarizing", 2.0, 2.0, SweepRange(2.0, 5.0, 10))
    report = robustness_report(cfg)
    assert report.normalized["negativity"] is None
    assert set(report.winner) == {"undefined"}
    assert report.crossovers == ()


def test_robustness_report_requires_time_mode():
    cfg = ExperimentConfig(family_a="dephasing", family_b="dephasing",
                           q_a=SweepRange(0, 1, 3), q_b=0.5,
                           t=SweepRange(0, 1, 3))
    with pytest.raises(ConfigError, match="handles 'time', got 'rate_time'") as exc:
        robustness_report(cfg)
    assert exc.value.field == "sweep_mode"


def test_robustness_report_serializes():
    cfg = time_config("dephasing", "dephasing", 0.5, 0.5, SweepRange(0.0, 3.0, 16))
    payload = robustness_report(cfg).to_dict()
    assert payload["definition"]
    assert len(payload["times"]) == 16
    assert len(payload["winner"]) == 16
    assert payload["meta"]["family_a"] == "dephasing"


def test_run_preset_returns_both_datasets():
    # shrink nothing: presets are fixed, so spot-check structure only on the
    # cheapest pair
    out = run_preset("fig1")
    assert set(out) == {"time", "grid"}
    assert out["time"].meta["preset"] == "fig1"
    assert "label_note" in out["time"].meta
    assert len(out["time"]) == 50 * 200
    assert len(out["grid"]) == 50 * 50
