"""The benchmark's tracing wrappers still bind every public call they time,
and every layer the benchmark requires records calls on small solves."""
import importlib.util
import os
from pathlib import Path

import pytest

import shapenewton as sn
import shapenewton.export  # noqa: F401  (install_tracing wraps its writers)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def run(monkeypatch):
    """bench/run.py loaded as a module, with the environment it pins
    restored."""
    saved = dict(os.environ)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        # bench/run.py pins the BLAS thread count in os.environ on import
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module


def test_bench_tracing_binds_every_layer(run):
    rec = run.Recorder()
    try:
        assert run.install_tracing(rec, sn) == []
    finally:
        rec.close()
    assert not hasattr(sn.qp.solve_qp_cg, "__wrapped__")  # patches undone


def newton(out_dir):
    config = sn.ExperimentConfig(n=8)
    sn.sqp_solve(config, sn.generate_data(config), 1)


def descent(out_dir):
    """A descent writing what the bench's does: a VTK snapshot and an
    interface CSV per iteration, then trace.csv."""
    export = sn.export

    def observer(row, snapshot):
        tag = f"{row.iteration:03d}"
        export.write_vtk(out_dir / f"iter_{tag}.vtk", snapshot.mesh,
                         {"y": snapshot.y, "p": snapshot.p},
                         title=f"iteration {row.iteration}")
        export.write_interface_csv(out_dir / f"interface_{tag}.csv",
                                   snapshot.geometry, snapshot.gradient.values)

    config = sn.ExperimentConfig(n=8, max_sqp_iters=2)
    trace = sn.steepest_descent_solve(config, sn.generate_data(config), 1,
                                      observer=observer)
    export.write_trace_csv(out_dir / "trace.csv", trace.rows)


@pytest.mark.parametrize("workload, solve", [("newton-study", newton),
                                             ("descent-baseline", descent)])
def test_every_required_layer_records_on_a_small_solve(run, workload, solve, tmp_path):
    # A layer that records no calls fails the bench run; this finds it in
    # Tier-1, on an n = 8 level-1 solve of each workload.
    rec = run.Recorder()
    try:
        assert run.install_tracing(rec, sn) == []
        solve(tmp_path)
    finally:
        rec.close()
    assert run.silent_layers(rec, workload) == []
