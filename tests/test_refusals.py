"""The refusal contract in one table: every argument of every public callable,
given a hostile value, either raises a ConfigError that names the argument or
returns a certified result, and never any other exception or a warning."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import qutritcorr as qc

BELL = qc.make_bell_state(3)
HOSTILE = {
    "raw array": np.eye(9) / 9.0,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "bool": True,
    "np.True_": np.True_,
    "None": None,
    "str": "0.5",
    "complex": 0.5 + 0.5j,
    "object array": np.array([object(), object()], dtype=object),
    "empty array": np.array([]),
    "3x3 matrix": np.triu(np.ones((3, 3))),  # finite, neither Hermitian nor unitary
}
UNHASHABLE = ("raw array", "object array", "empty array", "3x3 matrix")

TIMES = qc.SweepRange(0.0, 1.0, 2)
CFG = qc.ExperimentConfig("dephasing", "dephasing", 0.5, 0.5, TIMES, oracle_restarts=1)
GRID = qc.ExperimentConfig("dephasing", "dephasing", TIMES, TIMES, 1.0, oracle_restarts=1)
# Each public callable with cheap valid arguments. Only one argument at a time
# is made hostile, so every call is refused early or runs on cheap inputs.
TABLE = {
    "DensityMatrix": dict(matrix=BELL.matrix, dims=(3, 3)),
    "validate_density_matrix": dict(matrix=BELL.matrix, dims=(3, 3)),
    "hermitian_eigenvalues": dict(matrix=BELL.matrix),
    "make_bell_state": dict(d=3),
    "partial_trace": dict(rho=BELL, keep="A"),
    "partial_transpose": dict(rho=BELL, subsystem="A"),
    "random_density_matrix": dict(d1=3, d2=3, rank=2, rng=0),
    "random_unitary": dict(d=3, rng=0),
    "su_generators": dict(d=3),
    "trace_norm": dict(matrix=BELL.matrix),
    "apply_channel": dict(channel=qc.dephasing_kraus(0.5), matrix=np.eye(3) / 3.0),
    "apply_local_channels": dict(rho=BELL, channel_a=qc.dephasing_kraus(0.5),
                                 channel_b=qc.trit_flip_kraus(0.5)),
    "KrausChannel": dict(dim=3, operators=(np.eye(3),)),
    "shift_matrix": dict(d=3),
    "clock_matrix": dict(d=3),
    "identity_kraus": dict(d=3),
    "dephasing_kraus": dict(gamma=0.5),
    "trit_flip_kraus": dict(gamma=0.5),
    "trit_flip_kraus_unnormalized": dict(gamma=0.5),
    "trit_phase_flip_kraus": dict(gamma=0.5),
    "depolarizing_kraus": dict(gamma=0.5),
    "kraus_for_family": dict(family="dephasing", gamma=0.5),
    "validate_kraus": dict(channel=qc.dephasing_kraus(0.5)),
    "gamma_of": dict(q=0.5, t=1.0),
    "evolve": dict(rho0=BELL, family_a="dephasing", family_b="depolarizing",
                   q_a=0.5, q_b=0.3, t=1.0),
    "GdConvention": dict(prefactor_mode="paper"),
    "bloch_decomposition": dict(rho=BELL),
    "bloch_synthesis": dict(dec=qc.bloch_decomposition(BELL), dims=(3, 3)),
    "gd_lower_bound": dict(rho=BELL, convention=qc.RAW_CONVENTION),
    "isotropic_family": dict(p=0.5),
    "negativity": dict(rho=BELL),
    "analytic_gd_isotropic": dict(p=0.5, convention=qc.RAW_CONVENTION),
    "analytic_negativity_dephasing": dict(q_a=0.5, q_b=0.3, t=1.0),
    "analytic_negativity_depolarizing": dict(q_a=0.5, q_b=0.3, t=1.0),
    "gd_exact": dict(rho=BELL, restarts=1, seed=0, side="A"),
    "project_measurement": dict(rho=BELL, basis=np.eye(3), side="A"),
    "SweepRange": dict(start=0.0, stop=1.0, steps=2),
    "ExperimentConfig": dict(family_a="dephasing", family_b="dephasing", q_a=0.5, q_b=0.5,
                             t=TIMES, gd_convention=qc.PAPER_CONVENTION,
                             oracle_enabled=False, oracle_restarts=1, seed=0),
    "infer_sweep_mode": dict(q_a=0.5, q_b=0.5, t=TIMES),
    "preset_configs": dict(name="fig1", gd_convention=qc.PAPER_CONVENTION, seed=0),
    "run_preset": dict(name="fig1", gd_convention=qc.PAPER_CONVENTION, seed=0),
    "run_sweep": dict(cfg=CFG),
    "time_sweep": dict(cfg=CFG),
    "rate_grid": dict(cfg=GRID),
    "robustness_report": dict(cfg=CFG),
    "run_validation": dict(seed=0, restarts=1, oracle_states=1, unnormalized_trit_flip=False),
}

EXCLUDED = {
    "tensor": "an alias of np.kron, which takes any array",
    "ValidationError": "an exception type",
    "IncompleteKrausError": "an exception type",
    "ConfigError": "an exception type",
    "BlochDecomposition": "a plain record of arrays; bloch_synthesis takes it by type",
    "KrausDiagnostics": "a plain record of validate_kraus's result",
    "OracleResult": "a plain record of gd_exact's result",
    "SweepDataset": "a plain record of run_sweep's result",
    "RobustnessReport": "a plain record of robustness_report's result",
    "CheckResult": "a plain record of run_validation's result",
}
SLOT_EXCLUDED = {
    ("random_density_matrix", "rng"): "an rng or seed, read by numpy",
    ("random_unitary", "rng"): "an rng or seed, read by numpy",
    ("run_validation", "unnormalized_trit_flip"): "a flag read by truth value; each call runs the "
                                                  "whole suite",
}
VALUE_EXCLUDED = {("su_generators", label): "its lru_cache hashes the argument first"
                  for label in UNHASHABLE}


def certified(value) -> bool:
    """Whether a returned value holds only finite numbers, strings, flags and None."""
    if value is None or isinstance(value, (str, bool, np.bool_)):
        return True
    if dataclasses.is_dataclass(value):
        return all(certified(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(certified, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(certified, value))
    arr = np.asarray(value)
    return arr.dtype.kind in "biufc" and bool(np.isfinite(arr).all())


CASES = [pytest.param(name, slot, label, id=f"{name}-{slot}-{label}")
         for name, args in TABLE.items() for slot in args if (name, slot) not in SLOT_EXCLUDED
         for label in HOSTILE if (name, label) not in VALUE_EXCLUDED]


@pytest.mark.parametrize("name, slot, label", CASES)
def test_every_hostile_argument_is_refused_or_gives_a_certified_result(name, slot, label):
    kwargs = {**TABLE[name], slot: HOSTILE[label]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = getattr(qc, name)(**kwargs)
        except ValueError as exc:
            assert isinstance(exc, qc.ConfigError) and exc.field == slot, (
                f"{name}({slot}={label}) refused as {exc!r}")
            return
    assert certified(result), f"{name}({slot}={label}) returned {result!r}"


@pytest.mark.parametrize("name", TABLE)
def test_the_tables_own_arguments_give_a_certified_result(name):
    # so that no hostile case passes only because another argument is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certified(getattr(qc, name)(**TABLE[name]))


def test_every_public_callable_is_in_the_table_or_excluded_with_a_reason():
    public = {name for name in qc.__all__ if callable(getattr(qc, name))}
    assert not set(TABLE) & set(EXCLUDED)
    assert public == set(TABLE) | set(EXCLUDED)
    for name, slot in SLOT_EXCLUDED:
        assert slot in TABLE[name]
    assert all({**EXCLUDED, **SLOT_EXCLUDED, **VALUE_EXCLUDED}.values())


SQUARE_READERS = {  # each reads a 3x3 matrix: a qutrit state, channel input or basis
    "DensityMatrix": lambda m: qc.DensityMatrix(m, (3, 1)),
    "hermitian_eigenvalues": qc.hermitian_eigenvalues, "trace_norm": qc.trace_norm,
    "apply_channel": lambda m: qc.apply_channel(qc.dephasing_kraus(0.5), m),
    "project_measurement": lambda m: qc.project_measurement(BELL, m),
}
# the entry, the prefix of its test id, and what it is refused for
SQUARE_ENTRIES = [(object(), "", "real numbers or be complex, got object"),
                  (np.nan, "nan-", "finite numbers"), (np.inf, "inf-", "finite numbers"),
                  (-np.inf, "-inf-", "finite numbers"), (None, "None-", "finite numbers")]


@pytest.mark.parametrize("call, entry, refusal", [
    pytest.param(call, entry, refusal, id=prefix + name)
    for entry, prefix, refusal in SQUARE_ENTRIES for name, call in SQUARE_READERS.items()])
def test_square_arrays_of_objects_are_refused_by_name(call, entry, refusal):
    # the contract's object array is one-dimensional and so refused by shape,
    # which is checked first; these have the shape the reader wants. None
    # objects cast to NaN; NaN and inf are refused before arithmetic can warn
    matrix = np.full((3, 3), entry, dtype=float if isinstance(entry, float) else object)
    with pytest.raises(ValueError, match=rf"^(matrix|basis) must hold {refusal}$"):
        call(matrix)


MATRIX_READERS = {**SQUARE_READERS, "KrausChannel": lambda m: qc.KrausChannel(3, (m,))}


@pytest.mark.parametrize("shape", [(3,), (0, 0), (0, 3, 3), (2, 3, 4), (2, 2, 3, 3)], ids=str)
@pytest.mark.parametrize("call", MATRIX_READERS.values(), ids=list(MATRIX_READERS))
def test_every_matrix_reader_refuses_a_bad_shape_by_name(call, shape):
    # one 3x3 matrix or, where a stack is read, a non-empty stack with one leading axis;
    # anything else is refused by linalg._numbers before numpy can raise its own error
    with pytest.raises(ValueError, match=r"^(matrix|basis|operators) must be .*, "
                                         rf"got shape {re.escape(str(shape))}$"):
        call(np.zeros(shape))


STACK3 = qc.DensityMatrix(np.stack([BELL.matrix] * 3), (3, 3))


@pytest.mark.parametrize("rho0", [BELL, STACK3], ids=["one state", "stack of 3"])
@pytest.mark.parametrize("batch", [np.array([0.1, 0.2]), np.array([]), np.full((3, 1), 0.5)],
                         ids=["2 rows", "empty", "3x1"])
@pytest.mark.parametrize("slot", ["q_a", "q_b", "t"])
def test_evolve_names_a_batch_that_does_not_fit_the_initial_states(rho0, batch, slot):
    # a rate or time must broadcast with rho0's stack to one non-empty batch axis at most;
    # the first that does not is refused by name, on the refusal path only
    args = {"q_a": 0.5, "q_b": 0.3, "t": 1.0, slot: batch}
    if len(rho0.matrix.shape) == 2 and batch.shape == (2,):
        assert len(qc.evolve(rho0, "dephasing", "depolarizing", **args).matrix) == 2
        return
    with pytest.raises(qc.ConfigError, match=rf"^{slot} must (have a shape that broadcasts with "
                                             r"\(3,\)|give rho0's stack \((3,)?\) one non-empty)"
                       ) as exc:
        qc.evolve(rho0, "dephasing", "depolarizing", **args)
    assert exc.value.field == slot


def test_evolve_names_the_first_rate_that_does_not_fit_a_stack():
    # the call a stack of 3 and 2 rates once sent to numpy's bare broadcast error
    with pytest.raises(qc.ConfigError, match=r"^q_a must have a shape that broadcasts with \(3,\), "
                                             r"got array\(\[0\.1, 0\.2\]\)$") as exc:
        qc.evolve(STACK3, "dephasing", "dephasing", np.array([0.1, 0.2]), 0.5, 1.0)
    assert exc.value.field == "q_a"
    with pytest.raises(qc.ConfigError) as exc:
        qc.evolve(STACK3, "dephasing", "dephasing", 0.5, np.array([0.1, 0.2]), np.ones(2))
    assert exc.value.field == "q_b"
