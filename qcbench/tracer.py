"""Spans around qutritcorr's public functions, installed from outside.

Each wrapped function is replaced in every qutritcorr module namespace that
binds it (``sweeps.negativity`` as well as ``measures.negativity``), and
``DensityMatrix.__post_init__`` on the class. Spans are kept in flat arrays
and written when the run ends; ``installed()`` restores every binding.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

# (layer, module, attribute) for every wrapped public function
TARGETS = (
    ("sweeps.loop", "qutritcorr.sweeps", "time_sweep"),
    ("sweeps.loop", "qutritcorr.sweeps", "rate_grid"),
    ("channels.build", "qutritcorr.channels", "kraus_for_family"),
    ("channels.completeness", "qutritcorr.channels", "validate_kraus"),
    ("channels.apply", "qutritcorr.channels", "apply_local_channels"),
    ("linalg.certify", "qutritcorr.linalg", "DensityMatrix.__post_init__"),
    ("measures.negativity", "qutritcorr.measures", "negativity"),
    ("measures.bloch", "qutritcorr.measures", "bloch_decomposition"),
    ("measures.bound", "qutritcorr.measures", "gd_lower_bound"),
    ("oracle.gd_exact", "qutritcorr.oracle", "gd_exact"),
    ("cli.format", "qutritcorr.cli", "format_dataset_csv"),
    ("cli.write", "qutritcorr.cli", "write_text"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
BUILD = LAYERS.index("channels.build")


class Tracer:
    """Single-threaded span recorder: name, start, end, parent, call id."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.call_id = -1
        self.build_keys: list[tuple] = []  # (call id, arguments) of every build
        self._stack: list[int] = []

    def _wrap(self, fn, layer_id: int):
        name, parent, call = self.name, self.parent, self.call
        start, end, stack = self.start, self.end, self._stack
        keys = self.build_keys if layer_id == BUILD else None

        @wraps(fn)
        def span(*args, **kwargs):
            if keys is not None:
                keys.append((self.call_id, args + tuple(kwargs.items())))
            idx = len(name)
            name.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
        return span

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qutritcorr" or n.startswith("qutritcorr.")]
        undo = []
        try:
            for layer, module, attr in TARGETS:
                layer_id = LAYERS.index(layer)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(sys.modules[module], cls_name)
                    orig = cls.__dict__[method]
                    setattr(cls, method, self._wrap(orig, layer_id))
                    undo.append((cls, method, orig))
                    continue
                orig = getattr(sys.modules[module], attr)
                wrapped = self._wrap(orig, layer_id)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
        }

    def layer_metrics(self, normalised, wall: float, rounds: int,
                      round_calls: int) -> dict[str, float]:
        """calls, self_s and share per layer, the build distinct ratio and the
        traced wall time no layer's self time covers. `normalised` maps span
        start and end times to durations on the same clock as `wall`.

        Counts and times are per round of the workload, and the distinct
        ratio is taken over the first round (call ids below `round_calls`),
        so none of them grows with the number of rounds a faster program
        fits into the run."""
        sp = self.spans()
        dur = normalised(sp["start"], sp["end"])
        child = np.bincount(sp["parent"][sp["parent"] >= 0],
                            weights=dur[sp["parent"] >= 0], minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(sp["name"], minlength=len(LAYERS))
        busy = np.bincount(sp["name"], weights=self_s, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = float(calls[i] / rounds)
            out[f"{layer}.self_s"] = float(busy[i] / rounds)
            out[f"{layer}.share"] = float(busy[i] / wall)
        first = [key for call, key in self.build_keys if call < round_calls]
        out["channels.build.distinct_ratio"] = len(set(first)) / len(first) if first else 0.0
        out["trace.unattributed_s"] = float((wall - busy.sum()) / rounds)
        return out

    def write(self, path: str) -> None:
        sp = self.spans()
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,call\n")
            for i in range(len(sp["name"])):
                fh.write(f"{i},{LAYERS[sp['name'][i]]},{sp['start'][i]:.17g},"
                         f"{sp['end'][i]:.17g},{sp['parent'][i]},{sp['call'][i]}\n")
