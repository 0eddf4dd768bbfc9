"""Write tests/data/golden.json, the outputs that tests/test_golden.py pins.

    PYTHONPATH=src python tests/data/make_golden.py [--check]

It records, for all 20 preset datasets (ten presets, each a time surface and a
rate grid), the metadata of both gd conventions exactly and every STRIDE-th row
of the float columns, with gd_lower in both conventions; the exact CSV and JSON
text of one of those datasets cut to its strided rows; and the exact stdout of
`validate` at seeds 0 and 1, of one `oracle` report and of one small
`run --oracle` grid.
A change that means to move any of these regenerates the file with this script
and says so in CHANGES.md. With --check it writes nothing, prints the entries a
fresh run would change, one per line, as presets/<name>, formatted, cli/<name>
or a top-level key, and exits 1 if there are any (0 if none).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from qutritcorr import (PAPER_CONVENTION, PRESET_NAMES, RAW_CONVENTION, SweepDataset, cli,
                        run_preset)

GOLDEN = Path(__file__).with_name("golden.json")
STRIDE = 23  # coprime with both preset axes (200 times, 50 rates), so rows walk every column
COLUMNS = ("t", "q1", "q2", "negativity")
FORMATTED = ("fig1", "grid")  # the preset dataset whose strided rows are formatted
CLI_RUNS = {  # name: argv, each printing to stdout
    "validate --seed 0": ["validate", "--seed", "0"],
    "validate --seed 1": ["validate", "--seed", "1"],
    "oracle": ["oracle", "--channel-a", "dephasing", "--channel-b", "trit-flip",
               "--qa", "0.5", "--qb", "0.3", "--t", "1", "--restarts", "8"],
    "run --oracle": ["run", "--channel-a", "trit-phase-flip", "--channel-b", "depolarizing",
                     "--qa", "0.4", "--qb", "0:1:2", "--t", "0:2:3", "--oracle",
                     "--restarts", "4"],
}


def preset_rows(paper: dict, raw: dict) -> dict:
    """Each dataset of one preset: both conventions' metadata and its strided rows."""
    out = {}
    for key, ds in paper.items():
        cols = [ds.columns[name] for name in COLUMNS]
        cols += [ds.columns["gd_lower"], raw[key].columns["gd_lower"]]
        out[key] = {"meta": {"paper": ds.meta, "raw": raw[key].meta},
                    "columns": list(ds.columns), "rows": len(ds),
                    "values": [[float(col[i]) for col in cols]
                               for i in range(0, len(ds), STRIDE)]}
    return out


def cli_stdout(argv: list[str]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return out.getvalue()


def formatted(ds) -> dict:
    """The CSV and JSON text of ds cut to every STRIDE-th row: the rows the golden keeps."""
    cut = SweepDataset({name: col[::STRIDE] for name, col in ds.columns.items()}, ds.meta)
    return {"csv": cli.format_dataset_csv(cut), "json": cli.format_dataset_json(cut)}


def build() -> dict:
    """The golden entries, as the current tree computes them."""
    preset, dataset = FORMATTED
    return {
        "stride": STRIDE,
        "value_columns": [*COLUMNS, "gd_lower paper", "gd_lower raw"],
        "presets": {name: preset_rows(run_preset(name, PAPER_CONVENTION),
                                      run_preset(name, RAW_CONVENTION))
                    for name in PRESET_NAMES},
        "formatted": {"preset": preset, "dataset": dataset,
                      **formatted(run_preset(preset, PAPER_CONVENTION)[dataset])},
        "cli": {name: {"argv": argv, "stdout": cli_stdout(argv)}
                for name, argv in CLI_RUNS.items()},
    }


def entries(golden: dict) -> dict:
    """golden split into the entries --check reports, one per preset and per CLI run, each
    as its JSON text, so -0.0 against 0.0 counts as a change."""
    out = {}
    for key, value in golden.items():
        parts = value.items() if key in ("presets", "cli") else [(None, value)]
        out.update({key if name is None else f"{key}/{name}": json.dumps(v) for name, v in parts})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write, or with --check compare, golden.json.")
    parser.add_argument("--check", action="store_true",
                        help="print the entries a fresh run would change; write nothing")
    check, golden = parser.parse_args(argv).check, build()
    if not check:
        GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
        return 0
    old, new = entries(json.loads(GOLDEN.read_text())), entries(golden)
    changed = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    for key in changed:
        print(key)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
