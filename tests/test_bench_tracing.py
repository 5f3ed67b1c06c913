"""The benchmark's tracing wrappers still bind every public call they time."""
import importlib.util
import os
from pathlib import Path

import shapenewton as sn
import shapenewton.export  # noqa: F401  (install_tracing wraps its writers)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracing_binds_every_layer(monkeypatch):
    saved = dict(os.environ)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        # bench/run.py pins the BLAS thread count in os.environ on import
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    rec = run.Recorder()
    try:
        assert run.install_tracing(rec, sn) == []
    finally:
        rec.close()
    assert not hasattr(sn.qp.solve_qp_cg, "__wrapped__")  # patches undone
