"""Experiment driver: configuration, data generation, and the solver loops."""
import dataclasses
import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from oracles import solve_state
from shapenewton import driver, fem, mesh, qp, shape
from shapenewton.errors import (
    ConfigError,
    InvertedElementError,
    LinearSolverError,
    MeshInvariantError,
    PointLocationError,
    StepFailureError,
)
from shapenewton.mesh import (
    Lattice,
    TriMesh,
    apply_deformation,
    build_template,
    solve_elastic_deformation,
)


# Fixed ids: removing a case renames no other.
@pytest.mark.parametrize("kwargs", [
    pytest.param({"f1": 5.0, "f2": 5.0}, id="kwargs0"),
    pytest.param({"mu": 0.0}, id="kwargs1"),
    pytest.param({"mu": -1.0}, id="kwargs2"),
    pytest.param({"n": 7}, id="kwargs3"),
    pytest.param({"n": 0}, id="kwargs4"),
    pytest.param({"levels": 0}, id="kwargs5"),
    pytest.param({"max_sqp_iters": -1}, id="kwargs6"),
    pytest.param({"baseline_scaling": -2.0}, id="kwargs7"),
    pytest.param({"f1": float("nan")}, id="kwargs8"),
    pytest.param({"f2": float("inf")}, id="kwargs9"),
    pytest.param({"mu": float("nan")}, id="kwargs10"),
    pytest.param({"mu": float("inf")}, id="kwargs11"),
    pytest.param({"baseline_scaling": float("nan")}, id="kwargs12"),
])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigError):
        driver.ExperimentConfig(**kwargs)


def test_config_defaults():
    c = driver.ExperimentConfig()
    assert (c.f1, c.f2, c.mu) == (1000.0, 1.0, 10.0)
    assert (c.n, c.levels, c.max_sqp_iters) == (54, 3, 2)
    assert c.baseline_scaling == 1e4
    assert [field.name for field in dataclasses.fields(c)] == [
        "f1", "f2", "mu", "n", "levels", "max_sqp_iters", "baseline_scaling"]


def test_data_oracle_straight_fine_and_nonnegative():
    config = driver.ExperimentConfig(n=16)
    data = driver.generate_data(config)
    # two uniform refinements quadruple the triangle count twice
    assert data.field.mesh.n_triangles == 16 * 2 * 16 ** 2
    assert shape.dist_to_solution(data.field.mesh) == 0.0
    assert data.field.values.min() >= -1e-9


def test_data_oracle_of_the_wrong_sign_is_refused(monkeypatch):
    # Positive sources give a nonnegative observation; a negated solve is
    # caught before any level runs.
    solve = driver.solve_lattice_poisson
    monkeypatch.setattr(driver, "solve_lattice_poisson",
                        lambda *args: -solve(*args))
    with pytest.raises(StepFailureError, match="sources' sign"):
        driver.generate_data(driver.ExperimentConfig(n=8, levels=1))


def test_data_oracle_is_as_fine_as_the_finest_level():
    config = driver.ExperimentConfig(n=4, levels=4)
    data = driver.generate_data(config)
    assert data.field.mesh.n_triangles >= driver.mesh_at_level(config, 4).n_triangles


def test_a_start_mesh_finer_than_the_data_is_a_config_error():
    config = driver.ExperimentConfig(n=8, levels=1)
    data = driver.generate_data(config)
    start = driver.mesh_at_level(config, 4)
    assert start.n_triangles > data.field.mesh.n_triangles
    with pytest.raises(ConfigError, match="raise levels"):
        driver.sqp_solve(config, data, level=4, start=start)
    # A start mesh of another level has another lattice.
    with pytest.raises(ConfigError, match="not a level-1 mesh"):
        driver.sqp_solve(config, data, start=driver.mesh_at_level(config, 2))


def test_a_start_mesh_is_checked_in_full():
    # Its labels, boundary and interface must be the level's, and its
    # vertices finite and triangles positively oriented, before anything is
    # solved on it.
    config = driver.ExperimentConfig(n=8, max_sqp_iters=1)
    data = driver.generate_data(config)
    m = driver.mesh_at_level(config, 1)
    arrays = {"subdomain": np.ones_like(m.subdomain),
              "outer_boundary_nodes": m.outer_boundary_nodes[1:],
              "interface_nodes": m.interface_nodes[::-1]}
    for name, changed in arrays.items():
        start = dataclasses.replace(m, **{name: changed})
        with pytest.raises(ConfigError, match=f"not a level-1 mesh of n = 8: its {name}"):
            driver.sqp_solve(config, data, start=start)
    vertices = m.vertices.copy()
    vertices[10] += 0.3
    with pytest.raises(InvertedElementError):
        driver.sqp_solve(config, data, start=dataclasses.replace(m, vertices=vertices))
    # A NaN vertex orients no triangle either way: it must not reach sampling.
    vertices = m.vertices.copy()
    vertices[10] = np.nan
    start = dataclasses.replace(m, vertices=vertices)
    with pytest.raises(MeshInvariantError, match="vertex 10 .* is not finite"):
        mesh.validate(start)
    with pytest.raises(MeshInvariantError, match="vertex 10 .* is not finite"):
        driver.sqp_solve(config, data, start=start)


def test_data_oracle_self_sample_is_exact():
    config = driver.ExperimentConfig(n=16)
    data = driver.generate_data(config)
    resampled = data.sample(data.field.mesh)
    np.testing.assert_array_equal(resampled.values, data.field.values)


def test_initial_mesh_places_reference_curve():
    config = driver.ExperimentConfig(n=16)
    m = driver.initial_mesh(driver.mesh_at_level(config, 1))
    expected = shape.bspline_initial_interface(m.interface_nodes.shape[0])
    np.testing.assert_allclose(m.interface_points, expected, atol=1e-13)


def test_initial_mesh_rejects_an_inverting_start_curve(monkeypatch):
    def wild_curve(m):
        x = np.full(m, 5.0)
        x[[0, -1]] = 0.5
        return np.column_stack([x, np.arange(m) / (m - 1)])

    monkeypatch.setattr(driver.shape, "bspline_initial_interface", wild_curve)
    with pytest.raises(StepFailureError, match="starting interface"):
        driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(n=8), 1))


def test_initial_mesh_levels_refine():
    config = driver.ExperimentConfig(n=16)
    m1 = driver.initial_mesh(driver.mesh_at_level(config, 1))
    m2 = driver.initial_mesh(driver.mesh_at_level(config, 2))
    assert m2.n_triangles == 4 * m1.n_triangles
    assert m2.interface_nodes.shape[0] == 2 * m1.interface_nodes.shape[0] - 1
    with pytest.raises(ConfigError):
        driver.mesh_at_level(config, 0)


def test_generate_data_factors_nothing(monkeypatch):
    factors, splu = [], spla.splu

    def counted(*args, **kwargs):
        factors.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    assert factors == []
    want = solve_state(data.field.mesh, config.f1, config.f2).values
    assert len(factors) == 1  # the counter sees the factored path
    np.testing.assert_allclose(data.field.values, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def returns_promptly(fn, seconds=60.0):
    """fn() run on a watchdog's daemon thread: its value, or its error raised
    here.  Fails if fn has not returned within seconds, as it would hang if
    an extension job were left waiting for a step that never comes."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test thread
            outcome["error"] = exc

    watched = threading.Thread(target=run, daemon=True)
    watched.start()
    watched.join(seconds)
    assert not watched.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def watch_extensions(monkeypatch):
    """Log how each elastic extension ends: "done", or its error's name."""
    ends, solve = [], shape.solve_elastic_deformation

    def watched(*args):
        try:
            result = solve(*args)
        except BaseException as exc:
            ends.append(type(exc).__name__)
            raise
        ends.append("done")
        return result

    monkeypatch.setattr(shape, "solve_elastic_deformation", watched)
    return ends


def test_stationary_start_stops_immediately(monkeypatch):
    # data generated on the working mesh itself makes the straight interface
    # a discrete fixed point, so the gradient test ends the run at once
    config = driver.ExperimentConfig()
    m = build_template(config.n)
    data = driver.DataOracle(field=solve_state(m, config.f1, config.f2),
                             lattice=Lattice(m))
    ends = watch_extensions(monkeypatch)
    trace = returns_promptly(lambda: driver.sqp_solve(config, data, start=m))
    # Iteration 0 could have stepped, so its extension job was started; the
    # stop released it before it read a step.
    assert ends == ["CancelledError"]
    assert len(trace.rows) == 1
    row = trace.rows[-1]
    assert (row.iteration, row.cg_iterations, row.step_length) == (0, 0, 0.0)
    assert row.grad_norm <= driver.GRAD_TOL
    assert row.dist == 0.0


def test_zero_iterations_records_start_only():
    config = driver.ExperimentConfig(n=16, max_sqp_iters=0)
    trace = driver.sqp_solve(config, driver.generate_data(config))
    assert len(trace.rows) == 1
    assert trace.rows[-1].cg_iterations == 0
    assert trace.rows[-1].dist > 0.05


def test_coarse_two_iteration_sequence(study_bundle):
    traces = study_bundle.traces
    trace = traces[0]
    assert [t.level for t in traces] == [1, 2, 3]
    assert trace.dists.shape == (len(trace.rows),) == (3,)
    np.testing.assert_allclose(
        trace.dists, [0.0705219, 0.00360604, 3.53396e-05], rtol=1e-5)
    assert [r.step_length for r in trace.rows] == [1.5, 1.0, 0.0]
    assert trace.rows[0].cg_iterations > 0
    grad_norms = [r.grad_norm for r in trace.rows]
    assert grad_norms[0] > grad_norms[1] > grad_norms[2]


def test_objective_never_increases(study_bundle):
    traces = study_bundle.traces
    for trace in traces:
        values = [row.objective for row in trace.rows]
        assert np.all(np.diff(values) <= 0.0)


def test_runs_are_deterministic(study_bundle):
    config = study_bundle.config
    traces = study_bundle.traces
    again = driver.sqp_solve(config, driver.generate_data(config))
    assert again.rows == traces[0].rows


def test_baseline_descends_with_large_scaling(study_bundle):
    data = study_bundle.data
    base_config = driver.ExperimentConfig(max_sqp_iters=5)
    trace = driver.steepest_descent_solve(base_config, data)
    dists = trace.dists
    assert dists[-1] < dists[0]
    assert all(r.cg_iterations == 0 for r in trace.rows)


def test_baseline_crawls_with_unit_scaling(study_bundle):
    data = study_bundle.data
    base_config = driver.ExperimentConfig(max_sqp_iters=5, baseline_scaling=1.0)
    trace = driver.steepest_descent_solve(base_config, data)
    dists = trace.dists
    rel = -np.diff(dists) / dists[:-1]
    assert np.all(rel > 0.0)
    assert np.all(rel <= 0.01)


def test_study_levels_agree_at_start(study_bundle):
    traces = study_bundle.traces
    starts = np.array([t.dists[0] for t in traces])
    assert np.ptp(starts) / starts.min() < 0.005


def test_study_distances_decrease(study_bundle):
    traces = study_bundle.traces
    for trace in traces:
        assert np.all(np.diff(trace.dists) < 0.0)
    assert traces[-1].dists[2] < traces[0].dists[2]


def test_study_finest_level_contraction(study_bundle):
    traces = study_bundle.traces
    d = traces[-1].dists
    r1 = d[1] / d[0] ** 2
    r2 = d[2] / d[1] ** 2
    assert r2 <= 10.0 * r1


def test_observer_sees_every_row_with_fields():
    config = driver.ExperimentConfig(n=16, max_sqp_iters=1)
    seen = []

    def observer(row, snapshot):
        assert snapshot.y.mesh is snapshot.mesh
        assert snapshot.gradient.mesh is snapshot.mesh
        seen.append(row)

    trace = driver.sqp_solve(config, driver.generate_data(config),
                             observer=observer)
    assert tuple(seen) == trace.rows


def step_setup(amplitude):
    """State on a straight 8-mesh and a sine design field of the given size."""
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    m = build_template(config.n)
    state = qp.MeshState(data.sample(m), config.f1, config.f2, config.mu,
                         mesh.Lattice(m))
    heights = m.interface_points[:, 1]
    values = amplitude * np.sin(np.pi * heights)
    values[[0, -1]] = 0.0
    w = shape.InterfaceField(mesh=m, values=values)
    return state, w, data, config


def extension_of(state, w):
    return shape.extend(state.mesh, w, state.stiffness)


def take_step(state, extension, alphas, data):
    """driver._take_step on a pool of _TRIAL_WORKERS threads, as a level
    runs it."""
    with ThreadPoolExecutor(max_workers=driver._TRIAL_WORKERS) as pool:
        return driver._take_step(state, extension, alphas, data, pool)


def count_calls(monkeypatch, name):
    """Count the calls shape makes to one of the mesh functions it binds."""
    calls = []
    fn = getattr(shape, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(shape, name, counted)
    return calls


def test_take_step_halves_an_inverting_step(monkeypatch):
    state, w, data, config = step_setup(0.9)
    m = state.mesh
    extension = extension_of(state, w)
    with pytest.raises(InvertedElementError):
        shape.retract(extension, 1.0)
    trials = count_calls(monkeypatch, "apply_deformation")
    accepted, alpha = take_step(state, extension, [1.0], data)
    halvings = round(-np.log2(alpha))
    assert alpha == 0.5 ** halvings and halvings >= 1
    assert len(trials) == 1 + halvings  # each length is tried once
    assert accepted.objective <= driver.ACCEPT_FACTOR * state.objective
    # Oracle: the elastic extension solved afresh at the accepted length.
    # Scaling by a power of two is exact, so the meshes agree to the bit.
    disp = alpha * w.values[:, None] * state.geometry.normals
    expected = apply_deformation(solve_elastic_deformation(m, disp, state.stiffness))
    np.testing.assert_array_equal(accepted.mesh.vertices, expected.vertices)


def test_take_step_fails_after_its_budget(monkeypatch):
    # inverts at every length down to 2^-30 of the smallest candidate
    state, w, data, config = step_setup(1e12)
    alphas = [1.0, 1.25, 1.5]
    extension = extension_of(state, w)
    trials = count_calls(monkeypatch, "apply_deformation")
    with pytest.raises(StepFailureError, match="no acceptable step length"):
        take_step(state, extension, alphas, data)
    assert len(trials) == len(alphas) + driver._MAX_HALVINGS


def newton_step_setup():
    """State on the curved 8-mesh start and its Newton step."""
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    straight = driver.mesh_at_level(config, 1)
    m = driver.initial_mesh(straight)
    state = qp.MeshState(data.sample(m), config.f1, config.f2, config.mu,
                         mesh.Lattice(straight))
    w = qp.solve_qp_cg(qp.QpWorkspace(state)).w
    return state, w, data, config


def record_threads(monkeypatch, owner, name, log):
    """Log, per call of owner.name, whether it ran on the main thread."""
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        log.append(threading.current_thread() is threading.main_thread())
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


def serial_oracle(state, extension, alphas, data):
    """Each candidate evaluated in order, the first lowest one picked."""
    best = None
    for a in alphas:
        try:
            moved = shape.retract(extension, a)
        except MeshInvariantError:
            continue
        candidate = qp.MeshState(data.sample(moved), state.f1, state.f2,
                                 state.mu, state.lattice)
        if best is None or candidate.objective < best[0].objective:
            best = (candidate, a)
    return best


def assert_picks_the_oracle(accepted, alpha, best, state):
    assert best[0].objective <= driver.ACCEPT_FACTOR * state.objective
    assert alpha == best[1]
    assert accepted.objective == best[0].objective
    np.testing.assert_array_equal(accepted.mesh.vertices, best[0].mesh.vertices)


def test_concurrent_candidates_match_a_serial_oracle(monkeypatch):
    state, w, data, config = newton_step_setup()
    extension = extension_of(state, w)
    alphas = [1.0, 1.25, 1.5]
    sampled_on_main, assembled_on_main, solved_on_main, factors = [], [], [], []
    record_threads(monkeypatch, driver.DataOracle, "sample", sampled_on_main)
    record_threads(monkeypatch, mesh.Lattice, "scatter", assembled_on_main)
    record_threads(monkeypatch, qp, "solve_lattice_poisson", solved_on_main)
    record_threads(monkeypatch, spla, "splu", factors)
    accepted, alpha = take_step(state, extension, alphas, data)
    # Every candidate is moved, sampled, assembled (its mass and stiffness
    # scattered through the level's lattice) and solved on the pool, its
    # state on the lattice: the line search factors nothing.
    assert sampled_on_main == [False] * len(alphas)
    assert assembled_on_main == [False] * 2 * len(alphas)
    assert solved_on_main == [False] * len(alphas)
    assert factors == []
    monkeypatch.undo()
    best = serial_oracle(state, extension, alphas, data)
    assert best[1] == 1.5
    assert_picks_the_oracle(accepted, alpha, best, state)


def test_every_trial_is_built_on_the_trial_pool(monkeypatch):
    # The candidates and the halvings share one pool: every sample of a step
    # runs on one of its workers, and never on the calling thread.
    state, w, data, config = step_setup(0.4)
    sample, threads = driver.DataOracle.sample, []

    def recorded(oracle, target):
        threads.append(threading.current_thread())
        return sample(oracle, target)

    monkeypatch.setattr(driver.DataOracle, "sample", recorded)
    alphas = [1.0, 1.25, 1.5]
    _, alpha = take_step(state, extension_of(state, w), alphas, data)
    assert alpha < min(alphas)  # the step was halved
    assert len(threads) > len(alphas)
    assert 1 <= len(set(threads)) <= driver._TRIAL_WORKERS
    assert threading.main_thread() not in threads


def test_one_pool_size_one_answer(monkeypatch, study_bundle):
    # The trial pool's size decides which thread builds a trial, never what
    # the run computes: with one worker or two, the rows of a Newton study,
    # of a descent and a halving step agree to the bit.
    config, data = study_bundle.config, study_bundle.data
    descent = dataclasses.replace(config, max_sqp_iters=3)
    state, w, step_data, _ = step_setup(0.4)
    extension = extension_of(state, w)

    def answer(workers):
        monkeypatch.setattr(driver, "_TRIAL_WORKERS", workers)
        traces = [driver.sqp_solve(config, data, level) for level in (1, 2)]
        traces.append(driver.steepest_descent_solve(descent, data, 1))
        accepted, alpha = take_step(state, extension, [1.0, 1.25, 1.5], step_data)
        assert alpha < 1.0  # the step was halved
        return ([repr(row) for trace in traces for row in trace.rows],
                repr((alpha, accepted.objective)), accepted.mesh.vertices)

    one, two = answer(1), answer(2)
    assert one[:2] == two[:2]
    np.testing.assert_array_equal(one[2], two[2])


def test_a_level_runs_one_pool(monkeypatch):
    # One pool per level runs every step's extension and builds every
    # trial; the only other executor is each extension's own helper.
    made = {"driver": 0, "mesh": 0}
    for name, module in (("driver", driver), ("mesh", mesh)):
        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, name=name, **kwargs):
                made[name] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, "ThreadPoolExecutor", Counted)
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    extensions = count_calls(monkeypatch, "solve_elastic_deformation")
    trace = driver.sqp_solve(config, data, 1)
    assert sum(row.step_length > 0.0 for row in trace.rows) == 2
    assert len(extensions) == 3  # the start's and one per step
    assert made == {"driver": 1, "mesh": len(extensions)}


def test_a_step_assembles_one_stiffness_per_candidate(monkeypatch):
    # The step is extended on the stiffness its state already holds, so the
    # extension assembles nothing and a step only the candidates' matrices:
    # one stiffness and one mass each, scattered through the level's lattice.
    state, w, data, config = newton_step_setup()
    scatter, assemble, assembled = mesh.Lattice.scatter, mesh.assemble_stiffness, []

    def counted_scatter(lattice, m, elements):
        assembled.append((m, scatter(lattice, m, elements)))
        return assembled[-1][1]

    def counted_assemble(m):
        assembled.append((m, assemble(m)))
        return assembled[-1][1]

    monkeypatch.setattr(mesh.Lattice, "scatter", counted_scatter)
    monkeypatch.setattr(fem, "assemble_stiffness", counted_assemble)
    monkeypatch.setattr(mesh, "assemble_stiffness", counted_assemble)
    extension = shape.extend(state.mesh, w, state.stiffness)
    assert assembled == []
    accepted, _ = take_step(state, extension, [1.0, 1.25, 1.5], data)
    meshes = [id(m) for m, _ in assembled]
    assert len(meshes) == 6 and all(meshes.count(m) == 2 for m in meshes)
    assert any(matrix is accepted.stiffness for _, matrix in assembled)


@pytest.mark.parametrize("stage", ["sample", "assemble", "state"])
def test_an_error_in_one_candidate_propagates(monkeypatch, stage):
    # Only MeshInvariantError marks a trial invalid.  Any other failure in a
    # candidate, in its sampling, its assembly or its state's lattice solve,
    # must leave _take_step, not be skipped.
    state, w, data, config = newton_step_setup()
    retract, sample = shape.retract, driver.DataOracle.sample
    scatter, solve = mesh.Lattice.scatter, qp.solve_lattice_poisson
    moved_by_step, assembled = {}, []

    def recorded_retract(extension, step):
        moved_by_step[step] = retract(extension, step)
        return moved_by_step[step]

    def faulty_sample(oracle, target):
        if stage == "sample" and target is moved_by_step.get(1.25):
            raise PointLocationError("planted failure at step 1.25")
        return sample(oracle, target)

    def faulty_scatter(lattice, m, elements):
        if stage == "assemble" and m is moved_by_step.get(1.25):
            raise ValueError("planted failure at step 1.25")
        assembled.append((m, scatter(lattice, m, elements)))
        return assembled[-1][1]

    def faulty_solve(lattice, stiffness, load):
        if stage == "state" and any(k is stiffness and m is moved_by_step.get(1.25)
                                    for m, k in assembled):
            raise LinearSolverError("planted failure at step 1.25")
        return solve(lattice, stiffness, load)

    monkeypatch.setattr(shape, "retract", recorded_retract)
    monkeypatch.setattr(driver.DataOracle, "sample", faulty_sample)
    monkeypatch.setattr(mesh.Lattice, "scatter", faulty_scatter)
    monkeypatch.setattr(qp, "solve_lattice_poisson", faulty_solve)
    with pytest.raises((PointLocationError, ValueError, LinearSolverError),
                       match="planted failure at step 1.25"):
        take_step(state, extension_of(state, w), [1.0, 1.25, 1.5], data)


def test_no_factor_crosses_threads(monkeypatch):
    # scipy's SuperLU frees a factor only on the thread that made it: each
    # Dirichlet system must be released on the thread that built it, helper
    # threads included.  Only workspaces and extensions factor, an extension
    # once per subdomain; no state does, trials included.
    built, released, states, state_factors = [], [], threading.local(), []
    init, splu, state_init = mesh.DirichletSystem.__init__, spla.splu, qp.MeshState.__init__

    def recorded_init(self, *args):
        init(self, *args)
        maker = threading.current_thread()
        built.append(maker)
        weakref.finalize(self, lambda: released.append((maker, threading.current_thread())))

    def watched_splu(*args, **kwargs):
        if getattr(states, "depth", 0):
            state_factors.append(threading.current_thread())
        return splu(*args, **kwargs)

    def watched_state(self, *args):
        states.depth = getattr(states, "depth", 0) + 1
        try:
            state_init(self, *args)
        finally:
            states.depth -= 1

    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    monkeypatch.setattr(mesh.DirichletSystem, "__init__", recorded_init)
    monkeypatch.setattr(spla, "splu", watched_splu)
    monkeypatch.setattr(qp.MeshState, "__init__", watched_state)
    extensions = count_calls(monkeypatch, "solve_elastic_deformation")
    traces = [driver.sqp_solve(config, data, 1),
              driver.steepest_descent_solve(config, data, 1)]
    gc.collect()
    steps = sum(row.step_length > 0.0 for trace in traces for row in trace.rows)
    assert steps == 4
    # Per run: the start's extension, one per step, and a workspace per row
    # that steps; the final row's adjoint is solved on the lattice.  An
    # extension's right half runs on its helper thread, and a step's left
    # half on a worker of the level's pool.
    assert len(extensions) == len(traces) + steps
    assert len(built) == 2 * len(extensions) + steps
    assert sum(maker is not threading.main_thread() for maker in built) \
        == len(extensions) + steps
    assert sorted(map(id, built)) == sorted(id(maker) for maker, _ in released)
    assert all(maker is freer for maker, freer in released)
    assert state_factors == []


def test_the_workspace_factor_is_released_before_the_line_search(monkeypatch):
    # The workspace's with block ends once the step is computed, so no
    # factor made on the calling thread is alive while the trials are built.
    # A SuperLU factor takes no weak references: each is tracked through a
    # proxy that is its only holder.
    alive, counts, splu, original = weakref.WeakSet(), [], spla.splu, driver._take_step

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs)

    def recorded_splu(*args, **kwargs):
        factor = Factor(splu(*args, **kwargs))
        if threading.current_thread() is threading.main_thread():
            alive.add(factor)
        return factor

    def counted_step(*args):
        counts.append(len(alive))
        return original(*args)

    monkeypatch.setattr(spla, "splu", recorded_splu)
    monkeypatch.setattr(driver, "_take_step", counted_step)
    config = driver.ExperimentConfig(n=8)
    driver.sqp_solve(config, driver.generate_data(config))
    assert counts == [0] * config.max_sqp_iters


@pytest.mark.parametrize("iterations, factors", [(2, 2), (0, 0)])
def test_a_step_not_taken_factors_nothing(monkeypatch, iterations, factors):
    # Only an iteration that steps factors its workspace; the final iterate
    # solves its adjoint on the level's lattice.
    built, init = [], fem.DirichletSolver.__init__

    def counted(self, *args):
        built.append(type(self))
        init(self, *args)

    config = driver.ExperimentConfig(n=8, levels=1, max_sqp_iters=iterations)
    data = driver.generate_data(config)
    monkeypatch.setattr(fem.DirichletSolver, "__init__", counted)
    trace = driver.sqp_solve(config, data, 1)
    assert len(trace.rows) == iterations + 1
    assert built == [qp.QpWorkspace] * factors


def final_state(config, data, trace):
    """The MeshState of a trace's final mesh, built as the run built it."""
    straight = driver.mesh_at_level(config, trace.level)
    return qp.MeshState(data.sample(trace.mesh), config.f1, config.f2,
                        config.mu, Lattice(straight))


def test_the_final_gradient_norm_matches_a_factored_workspace(study_bundle):
    # The lattice adjoint stops at a relative residual of 1e-12; on the
    # default study's meshes its gradient norm is the factored one's to a
    # few ulp (on an n = 8 mesh the two differ by about 2e-13).
    for trace in study_bundle.traces:
        state = final_state(study_bundle.config, study_bundle.data, trace)
        with qp.QpWorkspace(state) as ws:
            want = shape.s_norm(state.geometry, ws.gradient.values)
        assert trace.rows[-1].grad_norm == pytest.approx(want, rel=1e-14, abs=0)


def test_a_perturbed_lattice_adjoint_fails_loudly(monkeypatch):
    config = driver.ExperimentConfig(n=8, levels=1, max_sqp_iters=0)
    data = driver.generate_data(config)
    state = final_state(config, data, driver.sqp_solve(config, data, 1))
    qp.Adjoint(state)  # the unperturbed adjoint passes its check
    solve, free = qp.solve_lattice_poisson, state.lattice.free

    def perturbed(*args):
        x = solve(*args)
        x[free[free.size // 2]] += 1e-6
        return x

    monkeypatch.setattr(qp, "solve_lattice_poisson", perturbed)
    with pytest.raises(LinearSolverError,
                       match="workspace adjoint violates the discrete adjoint equation"):
        qp.Adjoint(state)


def test_the_data_oracle_builds_no_pattern(monkeypatch):
    # A pattern belongs to a level's working meshes: the oracle's lattice
    # solve scatters by COO, and each level solve reads its lattice's
    # pattern once, however many states it scatters.
    prop = mesh.Lattice.__dict__["pattern"]
    built, read = [], prop.func

    def recorded(lattice):
        built.append(lattice.mesh.n_triangles)
        return read(lattice)

    monkeypatch.setattr(prop, "func", recorded)
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    assert built == []
    driver.sqp_solve(config, data, 1)
    assert built == [driver.mesh_at_level(config, 1).n_triangles]


def test_each_workspace_computes_its_gradient_once(monkeypatch):
    # The iteration's norm and the Newton right-hand side read one gradient.
    calls, gradient = [], shape.shape_gradient

    def counted(*args):
        calls.append(args[0])
        return gradient(*args)

    monkeypatch.setattr(shape, "shape_gradient", counted)
    trace = driver.sqp_solve(driver.ExperimentConfig(n=8, levels=1))
    assert len(calls) == len(trace.rows) == 3


def test_solvers_attach_nothing_to_meshes():
    # Caches live in explicit objects, never as attributes on a frozen mesh.
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    meshes = [data.field.mesh]

    def observer(row, snapshot):
        meshes.append(snapshot.mesh)

    for solve in (driver.sqp_solve, driver.steepest_descent_solve):
        meshes.append(solve(config, data, observer=observer).mesh)
    assert len(meshes) == 1 + 2 * (config.max_sqp_iters + 2)
    fields = {f.name for f in dataclasses.fields(TriMesh)}
    for m in meshes:
        assert set(vars(m)) == fields


def test_step_failure_names_the_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise StepFailureError("no acceptable step length found")

    monkeypatch.setattr(driver, "_take_step", refuse)
    config = driver.ExperimentConfig(n=8, max_sqp_iters=1)
    with pytest.raises(StepFailureError, match="iteration 0:"):
        driver.sqp_solve(config, driver.generate_data(config))


@pytest.mark.parametrize("negative, residual, reason", [
    (True, 0.5, "negative curvature"),
    (False, 1e-3, "above cg_tol"),
])
def test_cg_failure_names_level_and_iteration(monkeypatch, negative, residual, reason):
    def failed_cg(ws, *args, **kwargs):
        zero = shape.InterfaceField(mesh=ws.state.mesh,
                                    values=np.zeros(ws.state.geometry.n_nodes))
        return qp.CgResult(w=zero, iterations=2, residual_norm=residual,
                           negative_curvature=negative, converged=False,
                           residual_history=[1.0, 0.5, residual])

    monkeypatch.setattr(driver.qp, "solve_qp_cg", failed_cg)
    config = driver.ExperimentConfig(n=8, max_sqp_iters=1)
    data = driver.generate_data(config)
    ends = watch_extensions(monkeypatch)
    with pytest.raises(StepFailureError, match=f"level 1 iteration 0: .*{reason}"):
        returns_promptly(lambda: driver.sqp_solve(config, data))
    # The start's extension, then the step's, which the failure released.
    assert ends == ["done", "CancelledError"]
