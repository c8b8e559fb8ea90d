import math
from dataclasses import replace

import numpy as np
import pytest

from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import error_report
from ldgrd.problems import layer1d, layer2d


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


def zero_report(w, b, eps, jump=True):
    """The shipped error report of a discrete solution w against a zero
    exact solution with reaction coefficient b: the norms of w itself."""
    if w.p is not None:
        zero = replace(layer2d(eps), b=b, u_exact=_zero, p_exact=_zero, q_exact=_zero)
    else:
        zero = replace(layer1d(eps), b=b, u_exact=_zero, q_exact=_zero)
    return error_report(w, zero, jump)


def energy_sq(w, b, eps, jump=True):
    """Squared energy norm of a discrete pair or triple w with reaction
    coefficient b."""
    return zero_report(w, b, eps, jump).err_energy ** 2
