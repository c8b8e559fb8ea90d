"""Piecewise-uniform layer-graded meshes on (0, 1) and their 2D tensor products."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshParams",
    "ShishkinMesh1D",
    "TensorMesh2D",
    "build_shishkin_1d",
    "build_tensor_2d",
]


def _quad_points(cell, t: np.ndarray) -> np.ndarray:
    """Points (..., len(t)) of the reference nodes t on the intervals cell = (a, b)."""
    a, b = (np.asarray(e, dtype=float)[..., None] for e in cell)
    return 0.5 * (a + b) + 0.5 * (b - a) * t


@dataclass(frozen=True)
class MeshParams:
    """Parameters of the graded 1D mesh.

    eps is the singular perturbation parameter, beta the layer-strength
    constant (reaction coefficient satisfies b >= beta**2), sigma the
    grading constant (take sigma >= k+1 for degree-k elements) and N the
    cell count, a positive integer multiple of 4.
    """

    eps: float
    beta: float = 1.0
    sigma: float = 2.0
    N: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        for name in ("beta", "sigma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not isinstance(self.N, numbers.Integral):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 4 or self.N % 4 != 0:
            raise ValueError(f"N must be a positive multiple of 4, got {self.N}")
        if self.tau > 0.25:
            # A transition point past 1/4 means the layer regions would
            # swallow the interior; refuse rather than silently degrade to
            # an essentially uniform mesh.
            raise ValueError(
                f"transition point tau={self.tau:.6g} exceeds 1/4; eps={self.eps} "
                f"is too large for sigma={self.sigma}, N={self.N}"
            )

    @property
    def tau(self) -> float:
        """Transition point sigma*sqrt(eps)*ln(N)/beta separating fine and coarse cells."""
        return self.sigma * math.sqrt(self.eps) * math.log(self.N) / self.beta


@dataclass(frozen=True, eq=False)
class ShishkinMesh1D:
    """Graded mesh: N/4 fine cells in [0, tau], N/2 coarse cells in
    [tau, 1-tau], N/4 fine cells in [1-tau, 1]."""

    params: MeshParams
    points: np.ndarray  # (N+1,), 0 = x_0 < x_1 < ... < x_N = 1
    widths: np.ndarray  # (N,), widths[j] = points[j+1] - points[j]

    @property
    def ncells(self) -> int:
        return self.params.N

    @property
    def axes(self) -> tuple[ShishkinMesh1D]:
        return (self,)

    @property
    def shape(self) -> tuple[int]:
        return (self.params.N,)

    @property
    def special_index(self) -> int:
        """Index 3N/4 of the transition point 1 - tau: the flux jump penalty's line."""
        return 3 * self.params.N // 4

    def quad_points(self, t: np.ndarray) -> np.ndarray:
        """Physical points (ncells, len(t)) of reference points t in [-1, 1]."""
        return _quad_points((self.points[:-1], self.points[1:]), t)


def build_shishkin_1d(params: MeshParams) -> ShishkinMesh1D:
    """Construct the graded mesh from its closed-form point formula.

    Points are evaluated branch by branch (not by accumulating widths) so
    that x_{N/4} = tau, x_{N/2} = 1/2 and x_{3N/4} = 1 - tau hold to
    rounding and the mesh is symmetric about 1/2.
    """
    N = params.N
    tau = params.tau
    t = np.arange(N + 1) / N
    points = np.empty(N + 1)
    left = slice(0, N // 4 + 1)
    mid = slice(N // 4 + 1, 3 * N // 4 + 1)
    right = slice(3 * N // 4 + 1, N + 1)
    points[left] = 4.0 * tau * t[left]
    points[mid] = tau + 2.0 * (1.0 - 2.0 * tau) * (t[mid] - 0.25)
    points[right] = 1.0 - 4.0 * tau * (1.0 - t[right])
    points[0] = 0.0
    points[N] = 1.0
    widths = np.diff(points)
    if np.any(widths <= 0.0):
        raise ValueError("mesh points are not strictly increasing")
    points.flags.writeable = False
    widths.flags.writeable = False
    return ShishkinMesh1D(params=params, points=points, widths=widths)


@dataclass(frozen=True, eq=False)
class TensorMesh2D:
    """Tensor product of two 1D meshes; cell (i, j) spans
    [x_i, x_{i+1}] x [y_j, y_{j+1}] with 0-based i, j."""

    mesh_x: ShishkinMesh1D
    mesh_y: ShishkinMesh1D

    @property
    def axes(self) -> tuple[ShishkinMesh1D, ShishkinMesh1D]:
        return self.mesh_x, self.mesh_y

    @property
    def shape(self) -> tuple[int, int]:
        return self.mesh_x.ncells, self.mesh_y.ncells

    @property
    def ncells(self) -> int:
        nx, ny = self.shape
        return nx * ny

    def quad_points(self, tx: np.ndarray, ty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Physical points of the reference grid tx x ty in every cell, as the
        broadcastable pair X (nx, 1, len(tx), 1), Y (1, ny, 1, len(ty))."""
        return (self.mesh_x.quad_points(tx)[:, None, :, None],
                self.mesh_y.quad_points(ty)[None, :, None, :])


def build_tensor_2d(mesh_x: ShishkinMesh1D, mesh_y: ShishkinMesh1D) -> TensorMesh2D:
    return TensorMesh2D(mesh_x=mesh_x, mesh_y=mesh_y)
