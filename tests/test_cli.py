import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import qutritcorr.cli as cli
import qutritcorr.validation as validation
from qutritcorr import (DensityMatrix, SweepDataset, SweepRange, __version__,
                        evolve, gd_exact, make_bell_state)


def run_cli(argv):
    return cli.main(list(argv))


def test_parse_axis_scalar_and_range():
    assert cli.parse_axis("0.5") == 0.5
    r = cli.parse_axis("0:2:5")
    assert isinstance(r, SweepRange)
    assert (r.start, r.stop, r.steps) == (0.0, 2.0, 5)


@pytest.mark.parametrize("text", ["abc", "1:2", "0:2:1", "2:0:5", "-1", "0:2:5:9",
                                  "nan", "inf", "0:inf:3"])
def test_parse_axis_rejects_garbage(text):
    with pytest.raises(Exception):
        cli.parse_axis(text)


def test_run_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
                  "--qa", "0.5", "--qb", "0.5", "--t", "0:2:5",
                  "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# family_a: dephasing") for l in meta)
    assert body[0] == "t,q1,q2,negativity,gd_lower"
    assert len(body) == 6
    first = body[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(1.0, abs=1e-10)


def test_run_writes_json_roundtrip(tmp_path):
    out = tmp_path / "sweep.json"
    rc = run_cli(["run", "--channel-a", "depolarizing", "--channel-b", "dephasing",
                  "--qa", "0.3", "--qb", "0.7", "--t", "0:1:4",
                  "--format", "json", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "columns"}
    assert payload["meta"]["family_a"] == "depolarizing"
    cols = payload["columns"]
    assert list(cols) == ["t", "q1", "q2", "negativity", "gd_lower"]
    # repr-level serialization keeps the floats exact
    from qutritcorr import ExperimentConfig, time_sweep
    cfg = ExperimentConfig(family_a="depolarizing", family_b="dephasing",
                           q_a=0.3, q_b=0.7, t=SweepRange(0.0, 1.0, 4))
    ds = time_sweep(cfg)
    assert cols["negativity"] == list(ds.columns["negativity"])


def test_run_stdout_dash(capsys):
    rc = run_cli(["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
                  "--qa", "0.5", "--qb", "0.5", "--t", "0:1:3"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "t,q1,q2,negativity,gd_lower" in captured


def test_run_oracle_column(tmp_path):
    out = tmp_path / "o.csv"
    rc = run_cli(["run", "--channel-a", "depolarizing", "--channel-b", "depolarizing",
                  "--qa", "0.5", "--qb", "0.5", "--t", "0:1:2",
                  "--oracle", "--restarts", "2", "--output", str(out)])
    assert rc == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "t,q1,q2,negativity,gd_lower,gd_exact"


@pytest.mark.parametrize("convention,scale", [("paper", 2.0), ("raw", 1.0)])
def test_run_oracle_column_is_gd_exact_row_by_row(tmp_path, convention, scale):
    # a 3x3 rate grid whose first row (q_a = q_b = 0) is the Bell state, whose
    # landscape is flat; JSON keeps every float exactly. The column is in the
    # dataset's convention, as gd_lower is: paper doubles the raw distance, exactly
    out = tmp_path / "grid.json"
    rc = run_cli(["run", "--channel-a", "dephasing", "--channel-b", "trit-phase-flip",
                  "--qa", "0:1:3", "--qb", "0:1:3", "--t", "1", "--oracle", "--restarts", "4",
                  "--seed", "2", "--gd-convention", convention, "--format", "json",
                  "--output", str(out)])
    assert rc == 0
    dataset = json.loads(out.read_text())
    columns = dataset["columns"]
    assert dataset["meta"]["gd_exact_convention"] == convention
    rho = evolve(make_bell_state(3), "dephasing", "trit-phase-flip",
                 *(np.array(columns[key]) for key in ("q1", "q2", "t")))
    expected = [scale * gd_exact(DensityMatrix(state, (3, 3)), restarts=4, seed=2).value
                for state in rho.matrix]
    assert columns["gd_exact"] == expected
    assert abs(expected[0] - scale * 2.0 / 3.0) <= 1e-14
    assert len(set(expected)) == 9
    # at the Bell state the bound is tight: the exact value is not below it
    assert abs(columns["gd_exact"][0] - columns["gd_lower"][0]) <= 1e-14
    plain = tmp_path / "plain.csv"  # without the oracle, no gd_exact column and no line for it
    assert run_cli(["run", "--channel-a", "dephasing", "--channel-b", "trit-phase-flip",
                    "--qa", "0:1:3", "--qb", "0:1:3", "--t", "1", "--output", str(plain)]) == 0
    assert "gd_exact" not in plain.read_text()


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "qutritcorr", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__


def test_the_package_version_has_one_source():
    # pyproject.toml reads the version from the module every dataset's metadata prints
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"] and pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "qutritcorr._version.__version__"}


def test_cached_parser_keeps_no_options_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    base = ["run", "--channel-a", "depolarizing", "--channel-b", "depolarizing",
            "--qa", "0.5", "--qb", "0.5", "--t", "0:1:2"]
    with_oracle, plain = tmp_path / "o.csv", tmp_path / "p.csv"
    assert run_cli(base + ["--oracle", "--restarts", "2", "--output", str(with_oracle)]) == 0
    assert run_cli(base + ["--output", str(plain)]) == 0
    header = [l for l in plain.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "t,q1,q2,negativity,gd_lower"
    assert "# oracle_enabled: false" in plain.read_text()


def refuse_to_compute(*args, **kwargs):
    raise AssertionError("computed before the output target was checked")


def test_run_refuses_overwrite_then_force(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
            "--qa", "0.5", "--qb", "0.5", "--t", "0:1:3", "--output", str(out)]
    assert run_cli(argv) == 0
    written = out.read_bytes()
    with monkeypatch.context() as patch:  # the existing target is refused before any sweep
        patch.setattr(cli, "run_sweep", refuse_to_compute)
        assert run_cli(argv) == 3
        assert run_cli(argv + ["--oracle"]) == 3
    assert capsys.readouterr().err.count("refusing to overwrite") == 2
    assert out.read_bytes() == written
    assert run_cli(argv + ["--force"]) == 0


def test_oracle_refuses_overwrite_before_computing_then_force(tmp_path, monkeypatch, capsys):
    out = tmp_path / "point.json"
    out.write_text("old\n")
    argv = ["oracle", "--channel-a", "dephasing", "--channel-b", "trit-flip",
            "--qa", "0.5", "--qb", "0.3", "--t", "1", "--restarts", "2", "--output", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "gd_exact", refuse_to_compute)
        assert run_cli(argv) == 3
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    assert run_cli(argv + ["--force"]) == 0
    assert json.loads(out.read_text())["restarts"] == 2


def test_run_unwritable_path(tmp_path):
    out = tmp_path / "missing" / "deep" / "sweep.csv"
    rc = run_cli(["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
                  "--qa", "0.5", "--qb", "0.5", "--t", "0:1:3",
                  "--output", str(out)])
    assert rc == 3


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", broken_replace)
    out = tmp_path / "sweep.csv"
    argv = ["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
            "--qa", "0.5", "--qb", "0.5", "--t", "0:1:3", "--output", str(out)]
    assert run_cli(argv) == 3
    assert os.listdir(tmp_path) == []
    out.write_bytes(b"old bytes\n")
    assert run_cli(argv + ["--force"]) == 3
    assert out.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["sweep.csv"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--channel-a", "nosuch", "--channel-b", "dephasing",
                 "--qa", "0.5", "--qb", "0.5", "--t", "0:1:3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_run_rejects_three_ranges():
    rc = run_cli(["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
                  "--qa", "0:1:3", "--qb", "0:1:3", "--t", "0:1:3"])
    assert rc == 2


def fake_datasets():
    cols = {"t": np.array([0.0, 1.0]), "q1": np.array([0.5, 0.5]),
            "q2": np.array([0.5, 0.5]), "negativity": np.array([1.0, 0.5]),
            "gd_lower": np.array([4.0 / 3.0, 0.5])}
    meta = {"preset": "fig1", "family_a": "dephasing", "family_b": "dephasing"}
    ds = SweepDataset(columns=cols, meta=meta)
    return {"time": ds, "grid": ds}


def test_preset_writes_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    rc = run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig1_time.csv").exists()
    assert (tmp_path / "fig1_grid.csv").exists()
    printed = capsys.readouterr().out
    assert "fig1_time.csv" in printed and "fig1_grid.csv" in printed


def test_preset_checks_every_target_before_computing(tmp_path, monkeypatch):
    calls = []

    def fake_run_preset(name, **kw):
        calls.append(name)
        return fake_datasets()

    monkeypatch.setattr(cli, "run_preset", fake_run_preset)
    (tmp_path / "fig1_grid.csv").write_text("kept\n")
    rc = run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path)])
    assert rc == 3
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["fig1_grid.csv"]
    assert (tmp_path / "fig1_grid.csv").read_text() == "kept\n"


def test_preset_failing_second_rename_leaves_neither_file(tmp_path, monkeypatch, capsys):
    # both temporary files are written before either is renamed; a failed rename
    # removes the target already in place, so no half of the pair is left behind
    replace, calls = os.replace, []

    def second_replace_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    monkeypatch.setattr(cli.os, "replace", second_replace_fails)
    rc = run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path)])
    assert rc == 3 and len(calls) == 2
    assert os.listdir(tmp_path) == []
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("failing_call", [1, 2, 3, 4])
def test_preset_force_failing_rename_keeps_the_old_pair(tmp_path, monkeypatch, capsys, failing_call):
    # with --force over an existing pair the calls are: move each old file aside, then rename
    # each new one in; whichever fails, both old files are back, byte for byte, and no
    # temporary file is left
    old = {name: f"old {name}\n".encode() for name in ("fig1_time.csv", "fig1_grid.csv")}
    for name, body in old.items():
        (tmp_path / name).write_bytes(body)
    replace, calls = os.replace, []

    def one_replace_fails(src, dst):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    monkeypatch.setattr(cli.os, "replace", one_replace_fails)
    rc = run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path), "--force"])
    assert rc == 3 and len(calls) > failing_call
    assert sorted(os.listdir(tmp_path)) == sorted(old)
    for name, body in old.items():
        assert (tmp_path / name).read_bytes() == body
    assert "cannot write" in capsys.readouterr().err


def test_preset_force_replaces_the_pair_and_leaves_no_temporary(tmp_path, monkeypatch, capsys):
    for name in ("fig1_time.csv", "fig1_grid.csv"):
        (tmp_path / name).write_text("old\n")
    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    assert run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path), "--force"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["fig1_grid.csv", "fig1_time.csv"]
    assert (tmp_path / "fig1_time.csv").read_text() == cli.format_dataset_csv(fake_datasets()["time"])
    capsys.readouterr()


def test_preset_honors_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "fromenv"))
    rc = run_cli(["preset", "--name", "fig1"])
    assert rc == 0
    assert (tmp_path / "fromenv" / "fig1_time.csv").exists()


def test_preset_explicit_outdir_beats_env(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "fromenv"))
    rc = run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path / "explicit")])
    assert rc == 0
    assert (tmp_path / "explicit" / "fig1_time.csv").exists()
    assert not (tmp_path / "fromenv").exists()


def test_preset_outdir_below_a_file_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_preset", lambda name, **kw: fake_datasets())
    (tmp_path / "plain").write_text("kept\n")
    rc = run_cli(["preset", "--name", "fig1", "--outdir", str(tmp_path / "plain" / "out")])
    assert rc == 3
    assert "cannot create" in capsys.readouterr().err
    assert (tmp_path / "plain").read_text() == "kept\n"


def test_preset_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["preset", "--name", "fig99"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_validate_passes(capsys):
    rc = run_cli(["validate", "--oracle-states", "2", "--restarts", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completeness" in out
    assert "pass" in out


def test_validate_flags_unnormalized_weights(capsys):
    rc = run_cli(["validate", "--oracle-states", "1", "--restarts", "2",
                  "--unnormalized-trit-flip"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "unnormalized" in captured.err


def test_validate_fails_when_an_evolved_state_is_refused(monkeypatch, capsys):
    # evolve certifies its states by construction (DensityMatrix._derived), so validate runs
    # the full certification itself: an evolve that returns a unit-trace state with eigenvalue
    # -3e-9 for every random start fails the check with that deviation. The Bell closed-form
    # checks still see the real evolve
    real_evolve, bell = validation.evolve, make_bell_state(3).matrix
    bad = np.diag(np.r_[-3e-9, np.full(8, (1.0 + 3e-9) / 8)])

    def evolve(rho, *args):
        out = real_evolve(rho, *args)
        if np.array_equal(rho.matrix, bell):
            return out
        return DensityMatrix._derived(np.broadcast_to(bad, out.matrix.shape), out.dims)

    monkeypatch.setattr(validation, "evolve", evolve)
    checks = {c.name: c for c in validation.run_validation(restarts=2, oracle_states=1)}
    evolved = checks.pop("evolved states valid")
    assert not evolved.passed
    assert evolved.max_deviation == 3e-9
    assert all(c.passed for c in checks.values())
    assert run_cli(["validate", "--oracle-states", "1", "--restarts", "2"]) == 1
    assert "failed: evolved states valid" in capsys.readouterr().err


def test_validate_fails_when_the_oracle_exceeds_a_mub_distance(monkeypatch, capsys):
    # every basis gives an isotropic state the same distance, so an oracle
    # reading 1e-9 high exceeds the mutually unbiased bases' there
    real_gd_exact = validation.gd_exact
    monkeypatch.setattr(validation, "gd_exact", lambda rho, **kw: types.SimpleNamespace(
        value=real_gd_exact(rho, **kw).value + 1e-9))
    checks = {c.name: c for c in validation.run_validation(restarts=2, oracle_states=1)}
    mub = checks.pop("gd oracle below MUB distances")
    assert not mub.passed and 0.9e-9 < mub.max_deviation < 1.1e-9
    assert all(c.passed for c in checks.values())
    assert run_cli(["validate", "--oracle-states", "1", "--restarts", "2"]) == 1
    assert "failed: gd oracle below MUB distances" in capsys.readouterr().err


def test_validate_fails_when_the_bound_reads_nan(monkeypatch, capsys):
    # a NaN deviation fails its check and is shown as NaN, neither a pass nor clamped to 0
    monkeypatch.setattr(validation, "gd_lower_bound", lambda rho, convention: float("nan"))
    checks = {c.name: c for c in validation.run_validation(restarts=2, oracle_states=1)}
    failing = ("gd bound below oracle", "gd bound tight on isotropic states")
    for name in failing:
        check = checks.pop(name)
        assert not check.passed and np.isnan(check.max_deviation), name
    assert all(c.passed for c in checks.values())
    assert run_cli(["validate", "--oracle-states", "1", "--restarts", "2"]) == 1
    out, err = capsys.readouterr()
    assert f"failed: {', '.join(failing)}" in err
    assert all("max dev nan" in line and line.endswith("FAIL")
               for line in out.splitlines() if line.startswith(failing))


def test_library_value_errors_exit_2(capsys):
    # zero oracle restarts and zero oracle states are usage errors, not a
    # validation failure (exit 1) and not a vacuous pass
    rc = run_cli(["oracle", "--channel-a", "depolarizing", "--channel-b",
                  "depolarizing", "--qa", "0.5", "--qb", "0.5", "--t", "1.0",
                  "--restarts", "0"])
    assert rc == 2
    assert run_cli(["validate", "--oracle-states", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    # a fractional count is refused by name, not by range(); True is not one state
    for states in (2.5, True):
        with pytest.raises(ValueError, match="oracle_states"):
            validation.run_validation(oracle_states=states)
    # a negative seed is refused by name, not by numpy's generator
    rc = run_cli(["oracle", "--channel-a", "depolarizing", "--channel-b",
                  "depolarizing", "--qa", "0.5", "--qb", "0.5", "--t", "1.0",
                  "--seed", "-3"])
    assert rc == 2
    assert "error: seed must be an integer >= 0, got -3" in capsys.readouterr().err


def test_negative_seed_exits_2_naming_seed(tmp_path, monkeypatch, capsys):
    # `run` without --oracle and `validate` refuse it by name, before any
    # state is drawn or any file written
    monkeypatch.setattr(validation, "random_density_matrix", None)
    out = tmp_path / "sweep.csv"
    for argv in (["run", "--channel-a", "dephasing", "--channel-b", "dephasing",
                  "--qa", "0.5", "--qb", "0.5", "--t", "0:2:5", "--output", str(out),
                  "--seed", "-3"],
                 ["validate", "--seed", "-3"]):
        assert run_cli(argv) == 2
        assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_subcommand(capsys):
    rc = run_cli(["oracle", "--channel-a", "depolarizing", "--channel-b",
                  "depolarizing", "--qa", "0.5", "--qb", "0.5", "--t", "1.0",
                  "--restarts", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("negativity", "gd_lower_paper", "gd_lower_raw", "gd_exact",
                "residual"):
        assert key in payload
    # unlike run --oracle's column, the subcommand reports the raw distance
    assert payload["gd_exact_convention"] == "raw"
    rho = evolve(make_bell_state(3), "depolarizing", "depolarizing", 0.5, 0.5, 1.0)
    assert payload["gd_exact"] == gd_exact(rho, restarts=2, seed=0).value
    assert payload["gd_lower_raw"] <= payload["gd_exact"] + 1e-6
    p = np.exp(-1.0)
    assert payload["negativity"] == pytest.approx((4 * p - 1) / 3, abs=1e-10)


def test_oracle_rates_whose_product_with_time_overflows_exit_0_quietly(capsys):
    # q t = 1e400 overflows to inf and gamma is exactly 1: no numpy warning
    rc = run_cli(["oracle", "--channel-a", "dephasing", "--channel-b", "trit-flip",
                  "--qa", "1e200", "--qb", "0", "--t", "1e200"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert json.loads(captured.out)["negativity"] == 0.0


def test_csv_meta_formatting():
    ds = fake_datasets()["time"]
    text = cli.format_dataset_csv(ds)
    assert text.startswith("# preset: fig1\n")
    assert "1.33333333333" in text  # .12g


def test_bulk_formatting_matches_per_cell_reference():
    specials = [0.0, -0.0, 5e-324, 1.0 / 3.0, 0.1 + 0.2, 1e16 + 2, 1e-300]
    rng = np.random.default_rng(8)
    rows = 2 * cli._FORMAT_ROWS + 37
    cols = {name: np.resize(np.r_[specials, rng.standard_normal(50) * 10.0 ** k], rows)
            for k, name in enumerate(["t", "q1", "q2", "negativity", "gd_lower"])}
    cols["gd_lower"] = cols["gd_lower"][::-1].copy()
    ds = SweepDataset(columns=cols, meta={"preset": "fig1", "seed": 0})

    lines = [f"# {key}: {cli._meta_value(val)}" for key, val in ds.meta.items()]
    lines.append(",".join(cols))
    for i in range(rows):
        lines.append(",".join(format(col[i], ".12g") for col in cols.values()))
    assert cli.format_dataset_csv(ds) == "\n".join(lines) + "\n"

    payload = {"meta": dict(ds.meta),
               "columns": {name: [float(x) for x in col] for name, col in cols.items()}}
    assert cli.format_dataset_json(ds) == json.dumps(payload, indent=2) + "\n"
