"""Experiment drivers: the SQP iteration, a steepest-descent baseline, and a
mesh-refinement study.

A run is configured by :class:`ExperimentConfig` and produces a
:class:`SqpTrace` whose rows record, per iteration, the interface distance to
the straight solution, the objective, the shape-gradient norm, and the step
actually taken.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fem, qp, shape
from .errors import ConfigError, MeshInvariantError, StepFailureError
from .mesh import Locator, TriMesh, build_template, refine_uniform, solve_lattice_poisson

log = logging.getLogger(__name__)

# Iteration stops early once the shape gradient is this small in the
# arc-length norm; with self-consistent data the start is already stationary.
GRAD_TOL = 1e-10

# A trial step is rejected when it increases the objective by more than this
# factor; rejection triggers step halving.
ACCEPT_FACTOR = 1.1

# Halvings below the smallest candidate step before a step failure.
_MAX_HALVINGS = 30


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
    """Iteration history of one solver run together with the final mesh."""

    level: int
    rows: tuple[TraceRow, ...]
    mesh: TriMesh

    @property
    def dists(self) -> np.ndarray:
        return np.array([r.dist for r in self.rows])

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.rows])

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


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
    """Reference observation on its own fine mesh, with that mesh's locator.

    sample() interpolates the observation onto another mesh's vertices, so
    every working level sees the same underlying data.
    """

    field: fem.NodalField
    locator: Locator

    @classmethod
    def on_lattice(cls, mesh: TriMesh, f1: float, f2: float) -> DataOracle:
        """The state with sources f1, f2 on a uniform lattice mesh, solved by
        mesh.solve_lattice_poisson, with the mesh's locator."""
        values = solve_lattice_poisson(mesh, fem.assemble_stiffness(mesh),
                                       fem.assemble_load_piecewise(mesh, f1, f2))
        return cls(field=fem.NodalField(mesh, values), locator=Locator(mesh))

    def sample(self, target: TriMesh) -> fem.NodalField:
        values = fem.evaluate_field(self.locator, self.field, target.vertices)
        return fem.NodalField(mesh=target, values=values)


def generate_data(config: ExperimentConfig) -> DataOracle:
    """Solve the state equation on a straight-interface mesh refined two
    levels above the coarse working mesh, and never coarser than the finest
    working level.  That mesh is a uniform lattice, so the solve is
    DataOracle.on_lattice's preconditioned CG, not a SuperLU factor."""
    m = mesh_at_level(config, 1 + max(2, config.levels - 1))
    log.info("data mesh: %d triangles, straight interface", m.n_triangles)
    data = DataOracle.on_lattice(m, config.f1, config.f2)
    if data.field.values.min() < -1e-9:
        raise StepFailureError("reference observation is not nonnegative")
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


def initial_mesh(config: ExperimentConfig, level: int) -> TriMesh:
    """Working mesh whose interface follows the reference starting curve."""
    m = mesh_at_level(config, level)
    pts = shape.bspline_initial_interface(m.interface_nodes.shape[0])
    # The template interface is the straight line sampled at the same uniform
    # heights, so the curve offsets are plain x-displacements.
    offsets = pts[:, 0] - m.interface_points[:, 0]
    geometry = shape.compute_geometry(m)
    field = shape.InterfaceField(mesh=m, values=offsets)
    try:
        return shape.retract(
            m, shape.extend(m, field, geometry, fem.assemble_stiffness(m)), 1.0)
    except MeshInvariantError as exc:
        raise StepFailureError(f"starting interface: {exc}") from exc


def _assemble(mesh: TriMesh, ybar: fem.NodalField,
              config: ExperimentConfig) -> qp.MeshAssembly:
    """Geometry and matrices on a mesh with its sampled data."""
    return qp.MeshAssembly(mesh, ybar, config.f1, config.f2, config.mu)


def _evaluate(mesh: TriMesh, ybar: fem.NodalField,
              config: ExperimentConfig) -> qp.MeshState:
    """Objective on a mesh with its sampled data, with the state and
    factorization behind it."""
    return qp.MeshState(_assemble(mesh, ybar, config))


def _take_step(state: qp.MeshState, w: shape.InterfaceField, alphas: list[float],
               data: DataOracle, config: ExperimentConfig) -> tuple[qp.MeshState, float]:
    """Choose a step length along w; return it with the accepted trial's
    state, which the next iteration's workspace reuses.

    The lengths come in batches: first alphas, then min(alphas) * 0.5**k
    for k = 1.._MAX_HALVINGS, one at a time.  Each length is tried once,
    skipping any whose mesh is invalid, and a batch's lowest objective, the
    first in order on a tie, is accepted if within ACCEPT_FACTOR of the
    current one.  This is the solver's only halving loop.  The step w is
    extended to the volume once, on the stiffness the state already holds,
    and each trial scales that extension: a step costs one elastic solve and
    at most len(alphas) + _MAX_HALVINGS trial meshes.

    One worker thread moves, samples and assembles each trial ahead of this
    thread, which factors each trial's stiffness and solves its state in
    order.  The factorizations stay on this thread because scipy's SuperLU
    frees a factor only on the thread that made it.  A trial (about 0.1 s at
    level 3) costs less than a factor and a state solve (about 0.13 s), so
    one worker keeps this thread busy; on a 2-CPU machine it matched a pool
    sized by the CPU count and beat three workers.  Only a
    MeshInvariantError makes a trial invalid; any other error propagates.
    """
    mesh = state.mesh
    limit = ACCEPT_FACTOR * state.objective
    extension = shape.extend(mesh, w, state.geometry, state.stiffness)

    def trial(alpha):
        """The mesh moved by alpha, assembled with its sampled data, or None
        if invalid."""
        try:
            moved = shape.retract(mesh, extension, alpha)
        except MeshInvariantError:
            return None
        return _assemble(moved, data.sample(moved), config)

    shortest = min(alphas)
    batches = [alphas] + [[shortest * 0.5 ** k] for k in range(1, _MAX_HALVINGS + 1)]
    with ThreadPoolExecutor(max_workers=1) as pool:
        for batch in batches:
            # Free the last batch's rejected best, with its factor, and its
            # last assembly before this batch factors.
            best = candidate = assembly = None
            for alpha, assembly in zip(batch, pool.map(trial, batch)):
                # Drop a losing candidate, and its factor, before the next
                # one factors: only the best and the one being built stay
                # alive.
                candidate = None
                candidate = None if assembly is None else qp.MeshState(assembly)
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
    workspace and the gradient, and each step tries the lengths alphas.  A
    working mesh finer than the data (default: generate_data) is an error."""
    if data is None:
        data = generate_data(config)
    # Level L has 2 n^2 4^(L-1) triangles: check before initial_mesh builds it.
    working = 2 * config.n ** 2 * 4 ** (level - 1) if start is None else start.n_triangles
    oracle = data.field.mesh.n_triangles
    if working > oracle:
        raise ConfigError(f"level {level} has {working} triangles, more than the data "
                          f"oracle's {oracle}; raise levels to at least {level}")
    first = initial_mesh(config, level) if start is None else start
    state = _evaluate(first, data.sample(first), config)
    rows = []
    for it in range(config.max_sqp_iters + 1):
        cur = state.mesh
        ws = qp.QpWorkspace(state, cg_tol=config.cg_tol)
        g = shape.shape_gradient(cur, state.geometry, ws.p, config.f1, config.f2,
                                 config.mu)
        grad_norm = shape.s_norm(state.geometry, g.values)
        value = state.objective
        dist = shape.dist_to_solution(cur)
        snapshot = IterationSnapshot(cur, state.geometry, state.y, ws.p, g)

        last = it == config.max_sqp_iters or grad_norm <= GRAD_TOL
        cg_iters, alpha_used = 0, 0.0
        if not last:
            try:
                w, cg_iters = step_fn(ws, g)
                state, alpha_used = _take_step(state, w, alphas, data, config)
            except StepFailureError as exc:
                raise StepFailureError(f"level {level} iteration {it}: {exc}") from exc
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
    solved by Laplacian-preconditioned CG on the state's own stiffness.
    When no candidate is acceptable, the step is halved from the smallest
    one at most _MAX_HALVINGS times before the run fails with
    StepFailureError.  The candidates and the halvings run through one loop
    whose one worker thread moves, samples and assembles each trial ahead of
    the factorizations (see _take_step).  The run starts from the reference
    curve unless an explicit start mesh is given.
    CG that meets negative curvature, or stops above cg_tol, raises
    StepFailureError.
    """
    scales = (1.0, 1.25, 1.5) if config.line_search else (1.0,)
    alphas = [scale * config.step_length for scale in scales]

    def step_fn(ws, g):
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

    def step_fn(ws, g):
        values = config.baseline_scaling * (-g.values) / jump_sq
        return shape.InterfaceField(mesh=ws.state.mesh, values=values), 0

    return _iterate(config, data, level, step_fn, [config.step_length], observer,
                    start)


def convergence_study(config: ExperimentConfig, observer=None) -> list[SqpTrace]:
    """Run the SQP iteration on every refinement level against one shared
    data oracle and return the traces, coarsest first."""
    data = generate_data(config)
    return [sqp_solve(config, data, level, observer)
            for level in range(1, config.levels + 1)]
