"""Local discontinuous Galerkin solver for singularly perturbed
reaction-diffusion problems on layer-adapted meshes, with energy- and
balanced-norm error measurement and a convergence-study CLI."""

from .assembly1d import LdgSolution, assemble, bilinear_B, solve_1d
from .assembly2d import solve_2d
from .mesh import MeshParams, ShishkinMesh1D, TensorMesh2D, build_shishkin_1d, build_tensor_2d
from .norms import ErrorReport, error_report
from .problems import get_problem, layer1d, layer2d, poly_exact_1d, poly_exact_2d
from .study import ConvergenceRecord, StudyConfig, rate_p, rate_s, run_study

__version__ = "0.1.0"

__all__ = [
    "LdgSolution",
    "MeshParams",
    "ShishkinMesh1D",
    "TensorMesh2D",
    "ErrorReport",
    "ConvergenceRecord",
    "StudyConfig",
    "assemble",
    "bilinear_B",
    "build_shishkin_1d",
    "build_tensor_2d",
    "error_report",
    "get_problem",
    "layer1d",
    "layer2d",
    "poly_exact_1d",
    "poly_exact_2d",
    "rate_p",
    "rate_s",
    "run_study",
    "solve_1d",
    "solve_2d",
]
