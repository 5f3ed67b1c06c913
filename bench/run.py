"""shapenewton benchmark: the paper's Newton study beside the steepest-descent
baseline, driven through the public library API.

Run from the root of a source checkout:

    python3 bench/run.py --workload newton-study --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with nothing patched.  --trace 1
runs the workload once untraced and once with spans recorded around the
public call at each module boundary, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread, fixed before numpy can be imported, so that timings do
# not depend on the default size of the BLAS thread pool.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import END, ERROR, NAME, NOTE, PARENT, START, Recorder  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOADS = ("newton-study", "descent-baseline")

# descent-baseline runs as `shapenewton baseline --level 2` with eight
# iterations: long enough to reach the stalled small-step regime.
DESCENT_LEVEL = 2
DESCENT_ITERS = 8

# Set-up is timed once in this process and again in fresh interpreters.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import shapenewton
shapenewton.generate_data(shapenewton.ExperimentConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def workload_config(workload: str) -> dict:
    return {"max_sqp_iters": DESCENT_ITERS} if workload == "descent-baseline" else {}


class Op:
    """One level solve: dists at trace.csv precision or a failure reason,
    and its wall time."""

    def __init__(self, name, seconds=0.0, trace=None, reason=None):
        self.name = name
        self.seconds = seconds
        self.dists = [f"{d:.7g}" for d in trace.dists] if trace is not None else None
        self.accepted = (sum(1 for row in trace.rows if row.step_length > 0.0)
                         if trace is not None else 0)
        self.dist_final = float(trace.dists[-1]) if trace is not None else float("nan")
        self.reason = reason


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def solve_newton_level(sn, config, data, call, out_dir, level) -> Op:
    """One level of the default convergence study."""
    name = f"level{level}"
    t0 = time.perf_counter()
    try:
        trace = call(f"driver.{name}", sn.sqp_solve, config, data, level)
    except sn.errors.ShapeNewtonError as exc:
        return Op(name, reason=f"{type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - t0, trace)


def solve_descent(sn, config, data, call, out_dir, level) -> Op:
    """Scaled steepest descent writing what `shapenewton baseline` writes:
    per iteration a VTK snapshot and an interface CSV, then trace.csv."""
    export = sn.export
    name = f"level{level}"

    def observer(row, snapshot):
        tag = f"{row.iteration:03d}"
        export.write_vtk(out_dir / f"iter_{tag}.vtk", snapshot.mesh,
                         {"y": snapshot.y, "p": snapshot.p},
                         title=f"iteration {row.iteration}")
        export.write_interface_csv(out_dir / f"interface_{tag}.csv",
                                   snapshot.geometry, snapshot.gradient.values)

    t0 = time.perf_counter()
    try:
        trace = call(f"driver.{name}", sn.steepest_descent_solve, config, data,
                     level, observer=observer)
        export.write_trace_csv(out_dir / "trace.csv", trace.rows)
    except sn.errors.ShapeNewtonError as exc:
        return Op(name, reason=f"{type(exc).__name__}: {exc}")
    op = Op(name, time.perf_counter() - t0, trace)
    with open(out_dir / "trace.csv") as handle:
        written = [line.split(",")[2] for line in handle.read().splitlines()[1:]]
    vtk_files = len(list(out_dir.glob("iter_*.vtk")))
    if written != op.dists:
        op.reason = f"trace.csv dists {written} differ from the trace {op.dists}"
    elif vtk_files != len(trace.rows):
        op.reason = f"{vtk_files} VTK files for {len(trace.rows)} iterations"
    return op


def workload_ops(workload: str, config) -> list:
    """The operations of one pass, finest level last."""
    if workload == "descent-baseline":
        return [functools.partial(solve_descent, level=DESCENT_LEVEL)]
    return [functools.partial(solve_newton_level, level=level)
            for level in range(1, config.levels + 1)]


def run_op(op_fn, sn, config, data, call) -> Op:
    """Run one operation with a fresh artifact directory, removed after."""
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        gc.collect()
        return op_fn(sn, config, data, call, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_op(op: Op, reference: dict) -> str | None:
    """Failure reason: an error, or dists that differ from the reference at
    the 7 significant digits trace.csv prints."""
    if op.reason is not None:
        return f"{op.name}: {op.reason}"
    if op.dists != reference[op.name]:
        return f"{op.name}: dists {op.dists} != reference {reference[op.name]}"
    return None


def setup_probe(workload: str) -> float:
    """Import plus data oracle in a fresh interpreter, timed inside it."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(workload_config(workload))],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_record(sn) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": " ".join(f"{k}={v}" for k, v in sorted(BLAS_ENV.items())),
        "shapenewton": sn.__version__,
    }


# --- traced run ------------------------------------------------------------

# Layers whose wrappers must record at least one call on each workload.
EXPECTED_LAYERS = {
    "common": ["qp.workspace", "fem.factor", "fem.splu", "fem.solve",
               "fem.assemble", "mesh.elastic", "mesh.elastic_factor",
               "mesh.deform", "mesh.validate", "mesh.build", "mesh.locate",
               "shape.retract", "driver.initial_mesh", "driver.sample"],
    "newton-study": ["qp.cg", "qp.hessian_apply"],
    "descent-baseline": ["export.vtk", "export.csv"],
}


def _cg_note(args, kwargs, result):
    ws = args[0]
    unconverged = (not result.negative_curvature
                   and result.residual_norm > ws.cg_tol * result.residual_history[0])
    return {"iters": result.iterations,
            "neg_curvature": int(result.negative_curvature),
            "unconverged": int(unconverged)}


def _splu_note(args, kwargs, result):
    return {"lu_nnz": int(result.nnz)}


def _splu_name(rec):
    return "mesh.elastic_factor" if rec.current_name() == "mesh.elastic" else "fem.splu"


def _points_note(args, kwargs, result):
    return {"points": int(len(args[1]))}


def _sample_note(args, kwargs, result):
    return {"points": int(args[1].n_vertices)}


def _bytes_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def install_tracing(rec: Recorder, sn) -> list[str]:
    """Wrap the public calls at each module boundary; returns the names that
    could not be bound anywhere."""
    import scipy.sparse.linalg as spla

    mesh, fem, shape, qp, driver, export = (sn.mesh, sn.fem, sn.shape, sn.qp,
                                            sn.driver, sn.export)
    functions = [
        (qp.solve_qp_cg, "qp.cg", _cg_note),
        (qp.reduced_hessian_apply, "qp.hessian_apply", None),
        (fem.assemble_stiffness, "fem.assemble", None),
        (fem.assemble_mass, "fem.assemble", None),
        (fem.assemble_load_piecewise, "fem.assemble", None),
        (mesh.solve_elastic_deformation, "mesh.elastic", None),
        (mesh.apply_deformation, "mesh.deform", None),
        (mesh.validate, "mesh.validate", None),
        (mesh.build_template, "mesh.build", None),
        (mesh.refine_uniform, "mesh.build", None),
        (mesh.locate_points, "mesh.locate", _points_note),
        (shape.retract, "shape.retract", None),
        (driver.initial_mesh, "driver.initial_mesh", None),
        (export.write_vtk, "export.vtk", _bytes_note),
        (export.write_interface_csv, "export.csv", _bytes_note),
        (export.write_trace_csv, "export.csv", _bytes_note),
    ]
    unbound = []
    for fn, name, note in functions:
        if rec.patch_function(fn, name, "shapenewton", note) == 0:
            unbound.append(f"{name} ({fn.__name__})")
    if rec.patch_function(spla.splu, "splu", "shapenewton", _splu_note,
                          name_fn=_splu_name, extra_modules=[spla]) == 0:
        unbound.append("splu")
    rec.patch_method(qp.QpWorkspace, "__init__", "qp.workspace")
    rec.patch_method(fem.DirichletSolver, "__init__", "fem.factor")
    rec.patch_method(fem.DirichletSolver, "solve", "fem.solve")
    rec.patch_method(driver.DataOracle, "sample", "driver.sample", _sample_note)
    return unbound


def _totals(rec: Recorder):
    """Per span name: calls, inclusive seconds, self seconds, summed notes."""
    self_s = rec.self_times()
    totals: dict[str, dict] = {}
    for sid, span in enumerate(rec.spans):
        t = totals.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "errors": {}, "note": {}})
        t["calls"] += 1
        t["s"] += span[END] - span[START]
        t["self_s"] += self_s[sid]
        if span[ERROR] is not None:
            t["errors"][span[ERROR]] = t["errors"].get(span[ERROR], 0) + 1
        for key, value in (span[NOTE] or {}).items():
            t["note"][key] = t["note"].get(key, 0) + value
    return totals


def counters_by_root(rec: Recorder) -> dict:
    """Hardware-independent counts under each top-level span (data oracle
    and each level solve)."""
    out: dict[str, dict] = {}
    for sid, span in enumerate(rec.spans):
        root = rec.spans[rec.root_of(sid)][NAME]
        if not root.startswith("driver."):
            continue
        root = root.removeprefix("driver.")
        c = out.setdefault(root, {"splu": 0, "dirichlet_solves": 0,
                                  "elastic_solves": 0, "triangular_solves": 0,
                                  "cg_iters": [], "hessian_applies": 0,
                                  "retract_calls": 0, "sampled_points": 0,
                                  "vtk_files": 0})
        name = span[NAME]
        if name in ("fem.splu", "mesh.elastic_factor"):
            c["splu"] += 1
        elif name == "fem.solve":
            c["dirichlet_solves"] += 1
            c["triangular_solves"] += 1
        elif name == "mesh.elastic":
            c["elastic_solves"] += 1
            c["triangular_solves"] += 1
        elif name == "qp.cg" and span[NOTE] is not None:
            c["cg_iters"].append(span[NOTE]["iters"])
        elif name == "qp.hessian_apply":
            c["hessian_applies"] += 1
        elif name == "shape.retract":
            c["retract_calls"] += 1
        elif name == "driver.sample" and span[NOTE] is not None:
            c["sampled_points"] += span[NOTE]["points"]
        elif name == "export.vtk":
            c["vtk_files"] += 1
    return out


def layer_metrics(rec: Recorder, traced: list[Op], untraced: list[Op],
                  cpu_s: float) -> dict:
    t = _totals(rec)

    def get(name, key="calls"):
        entry = t.get(name)
        if entry is None:
            return 0
        return entry[key] if key in ("calls", "s", "self_s") else entry["note"].get(key, 0)

    halvings = 0
    trials = 0
    kids = rec.children()
    for sid, span in enumerate(rec.spans):
        if span[NAME] != "shape.retract":
            continue
        elastic = sum(1 for k in kids[sid] if rec.spans[k][NAME] == "mesh.elastic")
        halvings += max(elastic - 1, 0)
        if span[PARENT] < 0 or rec.spans[span[PARENT]][NAME] != "driver.initial_mesh":
            trials += 1
    untraced_s = sum(op.seconds for op in untraced)
    overhead = sum(op.seconds for op in traced) - untraced_s
    accepted = sum(op.accepted for op in traced)
    m = {
        "qp.cg.calls": get("qp.cg"),
        "qp.cg.iters": get("qp.cg", "iters"),
        "qp.cg.s": get("qp.cg", "s"),
        "qp.cg.self_s": get("qp.cg", "self_s"),
        "qp.cg.neg_curvature": get("qp.cg", "neg_curvature"),
        "qp.cg.unconverged": get("qp.cg", "unconverged"),
        "qp.hessian_apply.count": get("qp.hessian_apply"),
        "qp.hessian_apply.s": get("qp.hessian_apply", "s"),
        "qp.hessian_apply.self_s": get("qp.hessian_apply", "self_s"),
        "qp.workspace.count": get("qp.workspace"),
        "qp.workspace.s": get("qp.workspace", "s"),
        "qp.workspace.self_s": get("qp.workspace", "self_s"),
        "fem.factor.count": get("fem.factor"),
        "fem.factor.s": get("fem.factor", "s"),
        "fem.factor.self_s": get("fem.factor", "self_s"),
        "fem.factor.splu_s": get("fem.splu", "s"),
        "fem.factor.lu_nnz": get("fem.splu", "lu_nnz"),
        "fem.solve.count": get("fem.solve"),
        "fem.solve.s": get("fem.solve", "s"),
        "fem.assemble.count": get("fem.assemble"),
        "fem.assemble.s": get("fem.assemble", "s"),
        "mesh.elastic.calls": get("mesh.elastic"),
        "mesh.elastic.s": get("mesh.elastic", "s"),
        "mesh.elastic.self_s": get("mesh.elastic", "self_s"),
        "mesh.elastic_factor.count": get("mesh.elastic_factor"),
        "mesh.elastic_factor.s": get("mesh.elastic_factor", "s"),
        "mesh.elastic_factor.lu_nnz": get("mesh.elastic_factor", "lu_nnz"),
        "mesh.deform.calls": get("mesh.deform"),
        "mesh.deform.s": get("mesh.deform", "s"),
        "mesh.deform.self_s": get("mesh.deform", "self_s"),
        "mesh.deform.inverted": t.get("mesh.deform", {}).get("errors", {}).get(
            "InvertedElementError", 0),
        "mesh.validate.calls": get("mesh.validate"),
        "mesh.validate.s": get("mesh.validate", "s"),
        "mesh.build.s": get("mesh.build", "s"),
        "mesh.build.self_s": get("mesh.build", "self_s"),
        "mesh.locate.calls": get("mesh.locate"),
        "mesh.locate.points": get("mesh.locate", "points"),
        "mesh.locate.s": get("mesh.locate", "s"),
        "shape.retract.calls": get("shape.retract"),
        "shape.retract.s": get("shape.retract", "s"),
        "shape.retract.self_s": get("shape.retract", "self_s"),
        "shape.retract.halvings": halvings,
        "shape.retract.failures": t.get("shape.retract", {}).get("errors", {}).get(
            "StepFailureError", 0),
        "driver.data.s": get("driver.data", "s"),
        "driver.level1.s": get("driver.level1", "s"),
        "driver.level2.s": get("driver.level2", "s"),
        "driver.level3.s": get("driver.level3", "s"),
        "driver.sample.calls": get("driver.sample"),
        "driver.sample.points": get("driver.sample", "points"),
        "driver.sample.s": get("driver.sample", "s"),
        "driver.sample.self_s": get("driver.sample", "self_s"),
        "driver.trials": trials,
        "driver.accepted": accepted,
        "driver.accept_ratio": accepted / trials if trials else 0.0,
        "driver.dist_final": traced[-1].dist_final,
        "export.vtk.calls": get("export.vtk"),
        "export.vtk.s": get("export.vtk", "s"),
        "export.csv.calls": get("export.csv"),
        "export.csv.s": get("export.csv", "s"),
        "export.bytes": get("export.vtk", "bytes") + get("export.csv", "bytes"),
        "proc.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "proc.cpu_s": cpu_s,
        "trace.spans": len(rec.spans),
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / untraced_s,
        "trace.wrapper_cost_s": rec.cost_per_span() * len(rec.spans),
    }
    return m


def silent_layers(rec: Recorder, workload: str) -> list[str]:
    seen = {span[NAME] for span in rec.spans}
    expected = EXPECTED_LAYERS["common"] + EXPECTED_LAYERS[workload]
    return [name for name in expected if name not in seen]


def counter_diffs(counters: dict, baseline: dict) -> list[str]:
    diffs = []
    for root in sorted(set(counters) | set(baseline)):
        got, want = counters.get(root, {}), baseline.get(root, {})
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                diffs.append(f"{root}.{key}: {got.get(key)} (baseline {want.get(key)})")
    return diffs


# --- main ------------------------------------------------------------------

def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_declared() -> tuple[dict, dict]:
    """Metric names and units from BENCHMARK.json, the single list of what
    each mode reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the checkout root")
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def emit(metrics: dict, declared: dict) -> dict:
    if set(metrics) != set(declared):
        fail("computed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(metrics))}, "
             f"undeclared {sorted(set(metrics) - set(declared))}")
    out = {}
    for name, unit in declared.items():
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        print(f"{name:28s} {value:>16.6g} {unit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every input is deterministic")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat the workload until this much time has passed "
                             "(at least one pass); ignored with --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    end_to_end, per_layer = load_declared()
    if not (SRC / "shapenewton" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'shapenewton'}")
    baseline = json.loads((BENCH / "baseline.json").read_text())
    reference = baseline["dists"][args.workload]

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import shapenewton as sn
    config = sn.ExperimentConfig(**workload_config(args.workload))
    data = sn.generate_data(config)
    first_setup_s = time.perf_counter() - t0
    import shapenewton.errors  # noqa: F401
    import shapenewton.export  # noqa: F401
    if Path(sn.__file__).resolve().parent != (SRC / "shapenewton").resolve():
        fail(f"imported shapenewton from {sn.__file__}, not from {SRC}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine_record(sn), sort_keys=True))
    ops = workload_ops(args.workload, config)
    done: list[Op] = []
    failures: list[str] = []

    if args.trace == 0:
        setup = [first_setup_s] + [setup_probe(args.workload)
                                   for _ in range(SETUP_SAMPLES - 1)]
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            if passes:
                data = sn.generate_data(config)
            passes.append([run_op(fn, sn, config, data, plain_call) for fn in ops])
            done += passes[-1]
        clean = [p for p in passes if all(check_op(op, reference) is None for op in p)]
        clean = clean or passes
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(sum(op.seconds for op in p) for p in clean),
            "finest_s": statistics.median(p[-1].seconds for p in clean),
        }
        print("solve_s per pass " + " ".join(
            f"{sum(op.seconds for op in p):.3f}" for p in passes))
        print("set-up samples " + " ".join(f"{x:.3f}" for x in setup))
        result = emit(metrics, end_to_end)
    else:
        # Each operation runs untraced and traced back to back, so that drift
        # in machine speed hits both sides of the overhead alike.
        rec = Recorder()
        unbound: set[str] = set()

        def under_tracing(run):
            unbound.update(install_tracing(rec, sn))
            try:
                return run()
            finally:
                rec.close()

        def traced_call(name, fn, *a, **k):
            rec.run_id = f"{args.workload}:{name.removeprefix('driver.')}"
            return rec.call(name, fn, a, k)

        origin = time.perf_counter()
        rec.run_id = f"{args.workload}:data"
        traced_data = under_tracing(
            lambda: rec.call("driver.data", sn.generate_data, (config,)))
        # Odd seeds run the untraced side first and even seeds the traced, so
        # an effect of order cancels in the median over consecutive seeds.
        untraced_first = args.seed % 2 == 1
        print("order " + ("untraced, traced" if untraced_first else "traced, untraced"))
        untraced, traced = [], []
        cpu_s = 0.0
        for fn in ops:
            if untraced_first:
                untraced.append(run_op(fn, sn, config, data, plain_call))
            cpu0 = time.process_time()
            traced.append(under_tracing(
                lambda: run_op(fn, sn, config, traced_data, traced_call)))
            cpu_s += time.process_time() - cpu0
            if not untraced_first:
                untraced.append(run_op(fn, sn, config, data, plain_call))
        done = untraced + traced
        if [op.dists for op in traced] != [op.dists for op in untraced]:
            failures.append("traced and untraced dists differ")
        failures += [f"tracing could not bind {name}" for name in sorted(unbound)]
        failures += [f"layer {name} recorded no calls"
                     for name in silent_layers(rec, args.workload)]
        rec.dump(str(WORK / f"spans-{args.workload}.jsonl"), origin)

        counters = counters_by_root(rec)
        diffs = counter_diffs(counters, baseline["counters"][args.workload])
        print("counters " + json.dumps(counters, sort_keys=True))
        for line in diffs:
            print(f"counter differs from bench/baseline.json: {line}")
        metrics = layer_metrics(rec, traced, untraced, cpu_s)
        metrics["trace.counter_diffs"] = len(diffs)
        untraced_s = sum(op.seconds for op in untraced)
        print(f"tracing overhead {metrics['trace.overhead_pct']:.2f}% of the untraced "
              f"solve time {untraced_s:.3f} s; wrapper cost "
              f"{100.0 * metrics['trace.wrapper_cost_s'] / untraced_s:.3f}% "
              "(target under 2%)")
        result = emit(metrics, per_layer)

    op_failures = [r for r in (check_op(op, reference) for op in done) if r is not None]
    for line in op_failures + failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not (op_failures or failures),
                      "attempted": len(done), "failed": len(op_failures),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
