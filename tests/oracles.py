"""Independent references that the tests check the solver against."""
from shapenewton import fem


def solve_state(mesh, f1: float, f2: float) -> fem.NodalField:
    """The state -lap y = f, f = f1 left of the interface and f2 right, solved
    by a SuperLU factor of the assembled stiffness, not on a lattice."""
    load = fem.assemble_load_piecewise(mesh, f1, f2)
    return fem.NodalField(mesh, fem.DirichletSolver(mesh, fem.assemble_stiffness(mesh))
                          .solve(load))
