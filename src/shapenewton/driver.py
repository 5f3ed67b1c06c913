"""Experiment drivers: the SQP iteration, a steepest-descent baseline, and a
mesh-refinement study.

A run is configured by :class:`ExperimentConfig` and produces a
:class:`SqpTrace` whose rows record, per iteration, the interface distance to
the straight solution, the objective, the shape-gradient norm, and the step
actually taken.
"""
from __future__ import annotations

import logging
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fem, qp, shape
from .errors import ConfigError, MeshInvariantError, StepFailureError
from .mesh import (
    Lattice,
    TriMesh,
    build_template,
    refine_uniform,
    solve_lattice_poisson,
    validate,
)

log = logging.getLogger(__name__)

# Iteration stops early once the shape gradient is this small in the
# arc-length norm; with self-consistent data the start is already stationary.
GRAD_TOL = 1e-10

# A trial step is rejected when it increases the objective by more than this
# factor; rejection triggers step halving.
ACCEPT_FACTOR = 1.1

# Halvings below the smallest candidate step before a step failure.
_MAX_HALVINGS = 30

# Worker threads that build line-search trials.
_TRIAL_WORKERS = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Problem and solver parameters for one experiment."""

    f1: float = 1000.0
    f2: float = 1.0
    mu: float = 10.0
    n: int = 54
    levels: int = 3
    max_sqp_iters: int = 2
    cg_tol: float = 1e-10
    step_length: float = 1.0
    line_search: bool = True
    baseline_scaling: float = 1e4

    def __post_init__(self):
        for name in ("f1", "f2", "mu", "cg_tol", "step_length", "baseline_scaling"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.f1 == self.f2:
            raise ConfigError("f1 and f2 must differ")
        if self.mu <= 0.0:
            raise ConfigError("mu must be positive")
        if self.n < 2 or self.n % 2 != 0:
            raise ConfigError("n must be an even integer >= 2")
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if self.max_sqp_iters < 0:
            raise ConfigError("max_sqp_iters must be >= 0")
        if self.cg_tol <= 0.0:
            raise ConfigError("cg_tol must be positive")
        if self.step_length <= 0.0:
            raise ConfigError("step_length must be positive")
        if self.baseline_scaling <= 0.0:
            raise ConfigError("baseline_scaling must be positive")


@dataclass(frozen=True)
class TraceRow:
    """State at the start of one iteration plus the step then taken.

    The last row of a trace describes the final iterate; its cg_iterations
    and step_length are zero because no further step is taken.
    """

    level: int
    iteration: int
    dist: float
    objective: float
    grad_norm: float
    cg_iterations: int
    step_length: float


@dataclass(frozen=True)
class SqpTrace:
    """Iteration history of one solver run together with the final mesh;
    rows[-1] is the final iterate's row."""

    level: int
    rows: tuple[TraceRow, ...]
    mesh: TriMesh

    @property
    def dists(self) -> np.ndarray:
        return np.array([r.dist for r in self.rows])


@dataclass(frozen=True)
class IterationSnapshot:
    """Per-iteration fields handed to observers for inspection or export."""

    mesh: TriMesh
    geometry: shape.InterfaceGeometry
    y: fem.NodalField
    p: fem.NodalField
    gradient: shape.InterfaceField


@dataclass(frozen=True)
class DataOracle:
    """Reference observation on its own fine mesh, with that mesh's Lattice.

    sample() interpolates the observation onto another mesh's vertices,
    located by the lattice, so every working level sees the same underlying
    data.
    """

    field: fem.NodalField
    lattice: Lattice

    @classmethod
    def on_lattice(cls, mesh: TriMesh, f1: float, f2: float) -> DataOracle:
        """The state with sources f1, f2 on a uniform lattice mesh, solved by
        mesh.solve_lattice_poisson on the mesh's Lattice."""
        lattice = Lattice(mesh)
        values = solve_lattice_poisson(lattice, fem.assemble_stiffness(mesh),
                                       fem.assemble_load_piecewise(mesh, f1, f2))
        return cls(field=fem.NodalField(mesh, values), lattice=lattice)

    def sample(self, target: TriMesh) -> fem.NodalField:
        values = fem.evaluate_field(self.lattice, self.field, target.vertices)
        return fem.NodalField(mesh=target, values=values)


def _triangles(config: ExperimentConfig, level: int) -> int:
    """Triangles of the level's mesh: 2 n^2 4^(level - 1)."""
    return 2 * config.n ** 2 * 4 ** (level - 1)


def _data_level(config: ExperimentConfig) -> int:
    """generate_data's level: two above the coarse level, and never coarser
    than the finest working level."""
    return 1 + max(2, config.levels - 1)


def check_level(config: ExperimentConfig, level: int,
                oracle_triangles: int | None = None) -> None:
    """Raise ConfigError unless level >= 1 and the level's mesh has at most
    oracle_triangles triangles (default: those of generate_data's mesh).
    Arithmetic on the config alone, so a caller can check before any work."""
    if level < 1:
        raise ConfigError("level must be >= 1")
    if oracle_triangles is None:
        oracle_triangles = _triangles(config, _data_level(config))
    working = _triangles(config, level)
    if working > oracle_triangles:
        raise ConfigError(f"level {level} has {working} triangles, more than the data "
                          f"oracle's {oracle_triangles}; raise levels to at least {level}")


def generate_data(config: ExperimentConfig) -> DataOracle:
    """Solve the state equation on a straight-interface mesh refined two
    levels above the coarse working mesh, and never coarser than the finest
    working level.  That mesh is a uniform lattice, so the solve is
    DataOracle.on_lattice's preconditioned CG, not a SuperLU factor."""
    m = mesh_at_level(config, _data_level(config))
    log.info("data mesh: %d triangles, straight interface", m.n_triangles)
    data = DataOracle.on_lattice(m, config.f1, config.f2)
    # By the maximum principle, sources of one sign give an observation of
    # that sign; sources of mixed signs bound it by neither.
    sign = np.sign(config.f1 + config.f2)
    if config.f1 * config.f2 >= 0.0 and (sign * data.field.values).min() < -1e-9:
        raise StepFailureError("reference observation does not have the sources' sign")
    return data


def mesh_at_level(config: ExperimentConfig, level: int) -> TriMesh:
    """Straight-interface working mesh; level 1 is the template, each further
    level refines uniformly once."""
    if level < 1:
        raise ConfigError("level must be >= 1")
    m = build_template(config.n)
    for _ in range(level - 1):
        m = refine_uniform(m)
    return m


def initial_mesh(straight: TriMesh) -> TriMesh:
    """Working mesh whose interface follows the reference starting curve,
    moved from the straight-interface mesh of its level (mesh_at_level)."""
    pts = shape.bspline_initial_interface(straight.interface_nodes.shape[0])
    # The template interface is the straight line sampled at the same uniform
    # heights, so the curve offsets are plain x-displacements.
    offsets = pts[:, 0] - straight.interface_points[:, 0]
    geometry = shape.compute_geometry(straight)
    field = shape.InterfaceField(mesh=straight, values=offsets)
    try:
        return shape.retract(straight, shape.extend(
            straight, field, geometry, fem.assemble_stiffness(straight)), 1.0)
    except MeshInvariantError as exc:
        raise StepFailureError(f"starting interface: {exc}") from exc


def _take_step(state: qp.MeshState, extension, alphas: list[float],
               data: DataOracle) -> tuple[qp.MeshState, float]:
    """Choose a step length along the step's extension (shape.extend); return
    it with the accepted trial's state, which the next iteration's workspace
    factors.

    The lengths come in batches: first alphas, then min(alphas) * 0.5**k
    for k = 1.._MAX_HALVINGS, one at a time.  Each length is tried once,
    skipping any whose mesh is invalid, and a batch's lowest objective, the
    first in order on a tie, is accepted if within ACCEPT_FACTOR of the
    current one.  This is the solver's only halving loop.  Each trial scales
    the one extension: a step costs at most len(alphas) + _MAX_HALVINGS
    trial meshes.

    A pool of _TRIAL_WORKERS threads builds each trial whole: it moves the
    mesh, samples the data, assembles and solves the state on the level's
    lattice and computes the objective.  A trial factors nothing, so this
    thread only compares objectives.  Only a MeshInvariantError makes a
    trial invalid; any other error propagates.
    """
    mesh = state.mesh
    limit = ACCEPT_FACTOR * state.objective

    def trial(alpha):
        """The state on the mesh moved by alpha, or None if that is invalid."""
        try:
            moved = shape.retract(mesh, extension, alpha)
        except MeshInvariantError:
            return None
        return qp.MeshState(moved, data.sample(moved), state.f1, state.f2, state.mu,
                            state.lattice)

    shortest = min(alphas)
    batches = [alphas] + [[shortest * 0.5 ** k] for k in range(1, _MAX_HALVINGS + 1)]
    with ThreadPoolExecutor(max_workers=_TRIAL_WORKERS) as pool:
        for batch in batches:
            best = None
            for alpha, candidate in zip(batch, pool.map(trial, batch)):
                if candidate is not None and (best is None
                                              or candidate.objective < best[0].objective):
                    best = (candidate, alpha)
            if best is not None and best[0].objective <= limit:
                return best
    raise StepFailureError(f"no acceptable step length in {len(alphas)} candidates "
                           f"and {_MAX_HALVINGS} halvings")


def _iterate(config: ExperimentConfig, data: DataOracle | None, level: int,
             step_fn, alphas: list[float], observer=None,
             start: TriMesh | None = None) -> SqpTrace:
    """Shared iteration loop; step_fn produces (w, cg_iterations) from the
    workspace alone, reading its gradient as ws.gradient, and each step
    tries the lengths alphas.  A working mesh finer than the data (default:
    generate_data) is an error, and so is a start mesh that fails validate
    or whose arrays, but for its vertices, are not those of the level's
    straight mesh (mesh_at_level).
    The level's Lattice is read once from the straight mesh and serves
    every state of the run; the first state, built on this thread before
    any trial worker starts, reads its CSR pattern.

    Each iteration that may step hands a worker the step as a Future: the
    worker's extension (shape.extend) factors its two Laplacians while this
    thread factors the workspace and solves for the step; the workspace's
    with block ends there, before the line search.  Stopping without a
    step, or failing, cancels the Future, which releases the worker at once.
    """
    if data is None:
        data = generate_data(config)
    check_level(config, level, data.field.mesh.n_triangles)
    straight = mesh_at_level(config, level)
    if start is not None:
        for name in ("triangles", "subdomain", "outer_boundary_nodes", "interface_nodes"):
            if not np.array_equal(getattr(start, name), getattr(straight, name)):
                raise ConfigError(f"the start mesh is not a level-{level} mesh of "
                                  f"n = {config.n}: its {name} differ")
        validate(start)
    first = initial_mesh(straight) if start is None else start
    state = qp.MeshState(first, data.sample(first), config.f1, config.f2, config.mu,
                         Lattice(straight))
    rows = []
    with ThreadPoolExecutor(max_workers=1) as extender:
        for it in range(config.max_sqp_iters + 1):
            cur = state.mesh
            last = it == config.max_sqp_iters
            step = Future()
            extension = None if last else extender.submit(
                shape.extend, cur, step.result, state.geometry, state.stiffness)
            try:
                with qp.QpWorkspace(state, cg_tol=config.cg_tol) as ws:
                    grad_norm = shape.s_norm(state.geometry, ws.gradient.values)
                    value = state.objective
                    dist = shape.dist_to_solution(cur)
                    snapshot = IterationSnapshot(cur, state.geometry, state.y, ws.p,
                                                 ws.gradient)

                    last = last or grad_norm <= GRAD_TOL
                    cg_iters, alpha_used = 0, 0.0
                    if not last:
                        w, cg_iters = step_fn(ws)
                        step.set_result(w)
                if not last:
                    state, alpha_used = _take_step(state, extension.result(), alphas,
                                                   data)
            except StepFailureError as exc:
                raise StepFailureError(f"level {level} iteration {it}: {exc}") from exc
            finally:
                # A step not set by now will not come: cancelling releases the
                # extension job, whose outcome is then not needed.
                step.cancel()
            row = TraceRow(level, it, dist, value, grad_norm, cg_iters, alpha_used)
            rows.append(row)
            if observer is not None:
                observer(row, snapshot)
            log.info("level %d it %d: dist %.6g J %.6g |g| %.3g %s", level, it, dist,
                     value, grad_norm,
                     "(stop)" if last else f"cg {cg_iters} alpha {alpha_used:g}")
            if last:
                return SqpTrace(level=level, rows=tuple(rows), mesh=cur)


def sqp_solve(config: ExperimentConfig, data: DataOracle | None = None,
              level: int = 1, observer=None,
              start: TriMesh | None = None) -> SqpTrace:
    """Run the SQP iteration on one refinement level.

    Each iteration solves the quadratic subproblem by conjugate gradients and
    steps along the resulting normal displacement.  With line_search enabled
    the step length is chosen among {1, 1.25, 1.5} times the configured
    length by objective value; otherwise the configured length is used
    directly.  Every trial length scales the step's one elastic extension,
    solved by Laplacian-preconditioned CG on the state's own stiffness, one
    subdomain on a worker thread and the other on its helper, beside this
    thread's workspace factor and Newton CG (see _iterate); each factor is
    a mesh.DirichletSystem, released by scope on the thread that made it.
    When no candidate is acceptable, the step is halved from the smallest
    one at most _MAX_HALVINGS times before the run fails with
    StepFailureError.  The candidates and the halvings run through one
    loop, and a pool of worker threads builds each trial whole, its
    matrices scattered and its state solved on the level's lattice without
    a factor (see _take_step).  The run starts from the reference curve
    unless an explicit start mesh of the level is given.  CG that meets
    negative curvature, or stops above cg_tol, raises StepFailureError.
    """
    scales = (1.0, 1.25, 1.5) if config.line_search else (1.0,)
    alphas = [scale * config.step_length for scale in scales]

    def step_fn(ws):
        result = qp.solve_qp_cg(ws)
        if result.negative_curvature:
            raise StepFailureError(
                f"CG met negative curvature after {result.iterations} iterations")
        if not result.converged:
            raise StepFailureError(
                f"CG stopped after {result.iterations} iterations at relative "
                f"residual {result.residual_norm / result.residual_history[0]:.3e}, "
                f"above cg_tol {ws.cg_tol:.1e}")
        return result.w, result.iterations

    return _iterate(config, data, level, step_fn, alphas, observer, start)


def steepest_descent_solve(config: ExperimentConfig, data: DataOracle | None = None,
                           level: int = 1, observer=None,
                           start: TriMesh | None = None) -> SqpTrace:
    """Run scaled steepest descent on one refinement level.

    The step is the negative shape gradient normalized by the squared source
    jump and multiplied by baseline_scaling; acceptance and halving match the
    SQP driver.
    """
    jump_sq = (config.f1 - config.f2) ** 2

    def step_fn(ws):
        values = config.baseline_scaling * (-ws.gradient.values) / jump_sq
        return shape.InterfaceField(mesh=ws.state.mesh, values=values), 0

    return _iterate(config, data, level, step_fn, [config.step_length], observer,
                    start)


def convergence_study(config: ExperimentConfig, observer=None) -> list[SqpTrace]:
    """Run the SQP iteration on every refinement level against one shared
    data oracle and return the traces, coarsest first."""
    data = generate_data(config)
    return [sqp_solve(config, data, level, observer)
            for level in range(1, config.levels + 1)]
