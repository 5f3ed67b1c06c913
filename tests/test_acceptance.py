"""End-to-end acceptance: the reproduction experiment and its verification
battery, each asserted at its stated tolerance."""
import dataclasses
import time

import numpy as np
import pytest

from shapenewton import driver, fem, qp, verify

# Reference dist table for the two-iteration experiment: rows are iterations
# 0..2, columns are refinement levels coarse to fine.  Coarse row 2 is the
# reference discretization's floor: two Newton steps bring the coarse level to
# its discrete stationary point.  That floor is O(h^2) and the reference mesh
# is not stated; the default coarse mesh here has a floor about 11x lower.  So
# coarse row 2 is checked against this discretization's own floor, reached by
# continuing the level-1 solve to stationarity, and the reference value is kept
# as an upper bound.
REFERENCE_DISTS = {
    "coarse": (0.0706, 0.0043, 0.00039),
    "fine": (0.0706, 0.0040, 0.000065),
}
ROW_TOLERANCE = 0.50

# This implementation's own numbers at the 7 significant digits that
# trace.csv prints: each level's dists and CG iterations of the default study,
# and a 3-iteration level-2 descent's dists and step lengths.  A change that is
# meant to leave the numbers alone must leave these exactly as they are.
STUDY_DISTS_7G = [
    "0.07052189 0.00360604 3.533964e-05",
    "0.07058047 0.003595742 2.20117e-05",
    "0.07059512 0.003597031 2.283626e-05",
]
STUDY_CG_ITERATIONS = [[10, 9], [10, 8], [10, 8]]
DESCENT_DISTS_7G = "0.07058047 0.0164743 0.01624371 0.01618891"
DESCENT_STEPS = [2.0 ** -4, 2.0 ** -10, 2.0 ** -12, 0.0]

# Newton steps beyond a level-1 iterate that reach the level's discrete
# stationary point; GRAD_TOL may end them sooner.
FLOOR_EXTRA_ITERS = 3


def _level1_floor(config, data, start):
    """Dist of the level-1 stationary point reached by Newton steps from start."""
    more = dataclasses.replace(config, max_sqp_iters=FLOOR_EXTRA_ITERS)
    return driver.sqp_solve(more, data, 1, start=start).dists[-1]


@pytest.mark.parametrize("row", [0, 1, 2])
def test_coarse_table_row_within_half(study_bundle, row):
    target = REFERENCE_DISTS["coarse"][row]
    value = study_bundle.traces[0].dists[row]
    if row == 2:
        # at this level's own floor, and no farther out than the reference's
        floor = _level1_floor(study_bundle.config, study_bundle.data,
                              study_bundle.traces[0].mesh)
        low = (1.0 - ROW_TOLERANCE) * floor
        high = (1.0 + ROW_TOLERANCE) * min(floor, target)
    else:
        low = (1.0 - ROW_TOLERANCE) * target
        high = (1.0 + ROW_TOLERANCE) * target
    assert low <= value <= high, (
        f"iteration {row}: dist {value:.6g} outside [{low:.6g}, {high:.6g}]")


def _at_7g(dists):
    return " ".join(f"{d:.7g}" for d in dists)


def test_study_dist_table_at_seven_digits(study_bundle):
    assert [_at_7g(trace.dists) for trace in study_bundle.traces] == STUDY_DISTS_7G
    assert [[row.cg_iterations for row in trace.rows[:-1]]
            for trace in study_bundle.traces] == STUDY_CG_ITERATIONS


def test_level2_descent_at_seven_digits(study_bundle):
    config = driver.ExperimentConfig(max_sqp_iters=3)
    trace = driver.steepest_descent_solve(config, study_bundle.data, 2)
    assert _at_7g(trace.dists) == DESCENT_DISTS_7G
    assert [row.step_length for row in trace.rows] == DESCENT_STEPS


def test_coarse_floor_scales_as_h_squared():
    # the premise of the row-2 check: the coarse floor is a discretization
    # error, so halving h (doubling n) divides it by four
    floors = []
    for n in (18, 36):
        config = driver.ExperimentConfig(n=n)
        data = driver.generate_data(config)
        trace = driver.sqp_solve(config, data, 1)
        floors.append(_level1_floor(config, data, trace.mesh))
    ratio = floors[0] / floors[1]
    assert abs(ratio - 4.0) <= 0.25 * 4.0, (
        f"floors {floors[0]:.4g}, {floors[1]:.4g}: ratio {ratio:.3g}")


def test_coarse_run_is_fast(study_bundle):
    assert study_bundle.data_seconds + study_bundle.level_seconds[0] < 120.0


def test_fine_level_contraction_ratios_bounded(study_bundle):
    d = study_bundle.traces[-1].dists
    assert d.shape[0] == 3
    r1 = d[1] / d[0] ** 2
    r2 = d[2] / d[1] ** 2
    assert 0.1 <= r2 / r1 <= 10.0, f"ratios {r1:.3g}, {r2:.3g}"


def test_fine_level_reaches_reference_decade(study_bundle):
    # rows 0 and 1 hold at ROW_TOLERANCE; row 2 is held to its decade only,
    # because unlike the coarse level the fine level is still contracting at
    # iteration 2 (2.3e-5 here, against its converged 8.9e-6)
    d = study_bundle.traces[-1].dists
    fine = REFERENCE_DISTS["fine"]
    assert abs(d[0] - fine[0]) <= ROW_TOLERANCE * fine[0]
    assert abs(d[1] - fine[1]) <= ROW_TOLERANCE * fine[1]
    assert d[2] < 10.0 * fine[2]


def test_fine_run_is_fast(study_bundle):
    assert study_bundle.level_seconds[-1] < 1800.0


def test_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    result = verify.gradient_fd_check()
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_fem_manufactured_solution_second_order():
    result = verify.fem_manufactured_convergence()
    assert result.passed, result.detail


def test_straight_interface_is_a_fixed_point():
    result = verify.optimality_fixed_point()
    assert result.passed, result.detail


def test_fixed_point_check_catches_an_adjoint_without_mass(monkeypatch):
    # Planted error: K p = -(y - ybar).  The gradient then no longer falls as
    # O(h^2), so the check must fail.
    def planted(self, state, cg_tol=1e-8):
        self.state = state
        self.cg_tol = cg_tol
        self.solver = fem.DirichletSolver(state.mesh, state.stiffness)
        misfit = state.y.values - state.ybar.values
        self.p = fem.NodalField(mesh=state.mesh, values=self.solver.solve(-misfit))

    monkeypatch.setattr(qp.QpWorkspace, "__init__", planted)
    result = verify.optimality_fixed_point()
    assert not result.passed, result.detail


def test_reduced_hessian_is_symmetric():
    result = verify.hessian_symmetry()
    assert result.passed, result.detail


def test_pure_regularization_matches_direct_solve():
    result = verify.pure_regularization_tridiag()
    assert result.passed, result.detail


def test_pure_regularization_check_runs_unpreconditioned_cg(monkeypatch):
    # The default preconditioner is the direct tridiagonal solve the check
    # compares against; with it CG would finish in one step.
    iterations = []
    solve = qp.solve_qp_cg

    def spy(ws, *args, **kwargs):
        result = solve(ws, *args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(qp, "solve_qp_cg", spy)
    result = verify.pure_regularization_tridiag()
    assert result.passed, result.detail
    assert len(iterations) == 1 and iterations[0] > 1


def test_newton_cg_counts_are_mesh_independent(study_bundle):
    counts = np.array([[row.cg_iterations for row in trace.rows[:-1]]
                       for trace in study_bundle.traces])
    assert counts.max() <= 15
    assert np.ptp(counts, axis=0).max() <= 2


def test_curvature_matches_circle():
    result = verify.curvature_circle_oracle()
    assert result.passed, result.detail


def test_baseline_large_scaling_reduces_dist(study_bundle):
    config = driver.ExperimentConfig(max_sqp_iters=5)
    trace = driver.steepest_descent_solve(config, study_bundle.data)
    dists = trace.dists
    assert dists.shape[0] == 6
    assert dists[-1] < dists[0]


def test_baseline_unit_scaling_barely_moves(study_bundle):
    config = driver.ExperimentConfig(max_sqp_iters=5, baseline_scaling=1.0)
    trace = driver.steepest_descent_solve(config, study_bundle.data)
    dists = trace.dists
    rel = -np.diff(dists) / dists[:-1]
    assert np.all(rel <= 0.01)
