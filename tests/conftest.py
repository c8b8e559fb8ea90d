import math

import numpy as np
import pytest

from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import error_report
from ldgrd.problems import ProblemSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def uniform_mesh(N: int):
    """Graded mesh degenerated to uniform cells by placing tau exactly at 1/4."""
    eps = (0.25 / math.log(N)) ** 2
    return build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=1.0, N=N))


def uniform_mesh_2d(N: int):
    m = uniform_mesh(N)
    return build_tensor_2d(m, m)


def _zero(*x):
    return 0.0


def zero_problem(eps, b, dim):
    """The problem in dim dimensions with reaction coefficient b whose exact
    solution, fluxes, Laplacian and f are zero."""
    return ProblemSpec(name="zero", eps=eps, beta=1.0, b=b, f=_zero, u_exact=_zero,
                       q_exact=_zero, lap_exact=_zero, p_exact=_zero if dim == 2 else None)


def zero_report(w, b, eps, jump=True):
    """The shipped error report of a discrete solution w against a zero
    exact solution with reaction coefficient b: the norms of w itself."""
    return error_report(w, zero_problem(eps, b, len(w.fluxes)), jump)


def energy_sq(w, b, eps, jump=True):
    """Squared energy norm of a discrete pair or triple w with reaction
    coefficient b."""
    return zero_report(w, b, eps, jump).err_energy ** 2
