import numpy as np
import pytest
from hypothesis import settings

from qutritcorr import clock_matrix, project_measurement, shift_matrix

# Every property test draws the same examples on every run, so tier-1
# results do not depend on the run; deadlines are off because a numpy call's
# first run can be slow on a loaded machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def mub_bases():
    """The four qutrit mutually unbiased bases, the eigenbases of Z, X, XZ and XZ^2."""
    x, z = shift_matrix(3), clock_matrix(3)
    return [np.linalg.eig(u)[1] for u in (z, x, x @ z, x @ z @ z)]


@pytest.fixture(scope="session")
def mub_distance(mub_bases):
    """The smallest squared Hilbert-Schmidt distance from a two-qutrit state to
    its version measured on A in a mutually unbiased basis. Any fixed basis
    bounds the discord from above, so gd_exact may exceed this only by rounding."""
    def distance(rho):
        diffs = [rho.matrix - project_measurement(rho, basis).matrix for basis in mub_bases]
        return min(float(np.vdot(diff, diff).real) for diff in diffs)
    return distance
