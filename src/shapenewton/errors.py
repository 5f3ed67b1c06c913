"""Exception types shared across the solver stack."""


class ShapeNewtonError(Exception):
    """Base class for all errors raised by this package."""


class MeshInvariantError(ShapeNewtonError):
    """A mesh violates one of its structural invariants."""


class InvertedElementError(MeshInvariantError):
    """A deformation produced a triangle with non-positive area."""

    def __init__(self, triangle: int, area: float):
        self.triangle = triangle
        self.area = area
        super().__init__(f"triangle {triangle} inverted (signed area {area:.6e})")


class PointLocationError(ShapeNewtonError):
    """A query point is not finite or lies outside the mesh beyond tolerance."""


class LinearSolverError(ShapeNewtonError):
    """A sparse linear solve failed or missed its residual target."""


class StepFailureError(ShapeNewtonError):
    """No acceptable step within the driver's halving budget, a CG failure,
    or an invalid start curve or reference observation."""


class ConfigError(ShapeNewtonError):
    """Invalid experiment configuration or configuration file."""
