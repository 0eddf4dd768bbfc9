"""Committed golden outputs: every preset dataset, the CSV and JSON text of one, `validate`
at seeds 0 and 1 and two oracle outputs, as tests/data/make_golden.py wrote them. A change
that keeps the numbers passes unchanged; one that means to move them regenerates the file
with that script."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from qutritcorr import (PAPER_CONVENTION, PRESET_NAMES, RAW_CONVENTION, SweepDataset, cli,
                        run_preset)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())
VALUE_TOL = 1e-12  # absolute, on every float column


@pytest.fixture(scope="module")
def presets():
    """Every preset, run once in each convention."""
    return {name: (run_preset(name, PAPER_CONVENTION), run_preset(name, RAW_CONVENTION))
            for name in PRESET_NAMES}


def test_the_golden_file_covers_every_preset_dataset():
    assert set(GOLDEN["presets"]) == set(PRESET_NAMES)
    assert all(set(datasets) == {"time", "grid"} for datasets in GOLDEN["presets"].values())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_datasets_match_the_golden_outputs(presets, name):
    paper, raw = presets[name]
    for key, golden in GOLDEN["presets"][name].items():
        assert paper[key].meta == golden["meta"]["paper"], key
        assert raw[key].meta == golden["meta"]["raw"], key
        assert list(paper[key].columns) == golden["columns"] and len(paper[key]) == golden["rows"]
        columns = [paper[key].columns[c] for c in ("t", "q1", "q2", "negativity", "gd_lower")]
        rows = slice(None, None, GOLDEN["stride"])
        got = np.column_stack([col[rows] for col in columns] + [raw[key].columns["gd_lower"][rows]])
        np.testing.assert_allclose(got, golden["values"], rtol=0, atol=VALUE_TOL, err_msg=key)


def test_formatters_write_the_golden_bytes():
    # the dataset is rebuilt from the golden's own metadata and strided rows, so only the
    # CSV and JSON formatters are under test here, byte for byte
    golden = GOLDEN["formatted"]
    entry = GOLDEN["presets"][golden["preset"]][golden["dataset"]]
    values = np.array(entry["values"]).T  # gd_lower paper is the fifth value column
    ds = SweepDataset(dict(zip(entry["columns"], values)), entry["meta"]["paper"])
    assert cli.format_dataset_csv(ds) == golden["csv"]
    assert cli.format_dataset_json(ds) == golden["json"]


@pytest.mark.parametrize("name", GOLDEN["cli"])
def test_cli_stdout_matches_the_golden_output(name):
    golden = GOLDEN["cli"][name]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(golden["argv"]) == 0
    assert out.getvalue() == golden["stdout"]
