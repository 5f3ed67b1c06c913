"""Shape-Newton solver for interface identification in a two-source Poisson problem."""

__version__ = "0.1.0"

from .driver import (  # noqa: E402
    DataOracle,
    ExperimentConfig,
    SqpTrace,
    TraceRow,
    convergence_study,
    generate_data,
    sqp_solve,
    steepest_descent_solve,
)
from .fem import NodalField  # noqa: E402
from .mesh import TriMesh, build_template, refine_uniform  # noqa: E402
from .qp import CgResult, QpWorkspace, solve_qp_cg  # noqa: E402
from .shape import (  # noqa: E402
    InterfaceField,
    InterfaceGeometry,
    bspline_initial_interface,
    compute_geometry,
    dist_to_solution,
    extend,
    retract,
    shape_gradient,
)

__all__ = [
    "__version__",
    "CgResult",
    "DataOracle",
    "ExperimentConfig",
    "InterfaceField",
    "InterfaceGeometry",
    "NodalField",
    "QpWorkspace",
    "SqpTrace",
    "TraceRow",
    "TriMesh",
    "bspline_initial_interface",
    "build_template",
    "compute_geometry",
    "convergence_study",
    "dist_to_solution",
    "extend",
    "generate_data",
    "refine_uniform",
    "retract",
    "shape_gradient",
    "solve_qp_cg",
    "sqp_solve",
    "steepest_descent_solve",
]
