"""Command-line interface: solve, study, baseline, and verify subcommands.

The CLI is a thin shell over the driver module.  Configuration comes from a
flat UTF-8 key=value file whose keys match ExperimentConfig exactly; baseline's
--scaling overrides the file's baseline_scaling.  Exit codes: 0 success,
1 configuration or usage error, 2 solver or verification failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, driver, export, verify
from .errors import ConfigError, ShapeNewtonError

# Explicit name: running this file via "python -m" would otherwise register
# the logger as __main__, outside the package hierarchy and the run log.
log = logging.getLogger("shapenewton.cli")

# A key's value parses by its field's type: every field is a float or an int
# (a bool field would need its own parser, as bool("false") is True).
_CONFIG_TYPES = typing.get_type_hints(driver.ExperimentConfig)

# What a run writes into its directory; --force deletes these first.
_RUN_FILES = ("manifest.json", "run.log", "trace.csv", "iter_*.vtk", "interface_*.csv")


def load_config_file(path) -> dict:
    """Parse a flat key=value configuration file.

    Unknown or repeated keys, unparsable values and bytes that are not
    UTF-8 are hard errors so that typos cannot silently change an experiment.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats "
                              f"line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = _CONFIG_TYPES[key](text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def resolve_config(args) -> driver.ExperimentConfig:
    """Defaults, then config file, then baseline's --scaling."""
    values = {} if args.config is None else load_config_file(args.config)
    if getattr(args, "scaling", None) is not None:
        values["baseline_scaling"] = args.scaling
    return driver.ExperimentConfig(**values)


def prepare_output_dir(out, force: bool, config: driver.ExperimentConfig) -> Path:
    """Create the output directory and write the run manifest before any
    solver work starts.  A directory reused by force first loses the files
    of the run before it (_RUN_FILES); any other file stays."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out or on its path, or no permission
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if any(out.iterdir()) and not force:
        raise ConfigError(
            f"output directory {out} already has contents; pass --force to reuse")
    for pattern in _RUN_FILES:
        for path in out.glob(pattern):
            path.unlink()
    manifest = {
        "config": dataclasses.asdict(config),
        "output_dir": str(out.resolve()),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out


@contextlib.contextmanager
def _run_log(out: Path):
    """Attach a plain one-line-per-event log file for the duration of a run."""
    handler = logging.FileHandler(out / "run.log")
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler.setLevel(logging.INFO)
    logger = logging.getLogger("shapenewton")
    previous_level = logger.level
    if previous_level == logging.NOTSET or previous_level > logging.INFO:
        logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)
        handler.close()


_TRACE_HEADER = f"{'iter':>4}  {'dist':>12}  {'J':>12}  {'grad_norm':>12}  " \
                f"{'cg_iters':>8}  {'alpha':>9}"


def _trace_table(rows) -> str:
    lines = [_TRACE_HEADER]
    for r in rows:
        lines.append(f"{r.iteration:>4}  {r.dist:>12.7g}  {r.objective:>12.7g}  "
                     f"{r.grad_norm:>12.7g}  {r.cg_iterations:>8}  "
                     f"{r.step_length:>9.7g}")
    return "\n".join(lines)


def _run(args, solve):
    """Resolve the config, check the level, prepare the run directory, and
    with its run log attached call solve(config, write_snapshot) and write
    the returned traces to trace.csv; return the config and the traces.  The
    level is checked before the run directory is made, so a level the
    config cannot run leaves nothing behind."""
    config = resolve_config(args)
    if hasattr(args, "level"):
        driver.check_level(config, args.level)
    out = prepare_output_dir(args.out, args.force, config)

    def write_snapshot(row, snapshot):
        tag = f"{row.iteration:03d}"
        export.write_vtk(out / f"iter_{tag}.vtk", snapshot.mesh,
                         {"y": snapshot.y, "p": snapshot.p},
                         title=f"iteration {row.iteration}")
        export.write_interface_csv(out / f"interface_{tag}.csv",
                                   snapshot.geometry, snapshot.gradient.values)
        log.info("wrote iter_%s.vtk and interface_%s.csv", tag, tag)

    with _run_log(out):
        log.info("%s: level %s, config %s", args.command,
                 getattr(args, "level", f"1 to {config.levels}"), config)
        traces = solve(config, write_snapshot)
        export.write_trace_csv(out / "trace.csv",
                               [row for trace in traces for row in trace.rows])
        log.info("wrote trace.csv")
    return config, traces


def cmd_solve(args) -> int:
    _, (trace,) = _run(args, lambda config, observer: [driver.sqp_solve(
        config, level=args.level, observer=observer)])
    print(f"level {trace.level}")
    print(_trace_table(trace.rows))
    return 0


def cmd_baseline(args) -> int:
    config, (trace,) = _run(args, lambda config, observer: [
        driver.steepest_descent_solve(config, level=args.level, observer=observer)])
    print(f"level {trace.level} (steepest descent, scaling {config.baseline_scaling:.7g})")
    print(_trace_table(trace.rows))
    # A start on the solution (dist 0) makes no relative progress to judge.
    before, after = trace.dists[:-1], trace.dists[1:]
    judged = before > 0.0
    drops = (before[judged] - after[judged]) / before[judged]
    if drops.size and drops.max() <= 0.01:
        print("warning: insufficient progress "
              f"(best per-iteration decrease {100 * drops.max():.7g}%)")
    return 0


def cmd_study(args) -> int:
    # The study writes no per-iteration snapshots.
    _, traces = _run(args, lambda config, observer: driver.convergence_study(config))
    lines = [f"{'iter':>4}" + "".join(f"  {'level ' + str(t.level):>12}" for t in traces)]
    for i in range(max(len(t.rows) for t in traces)):
        cells = [f"{t.rows[i].dist:>12.7g}" if i < len(t.rows) else f"{'-':>12}"
                 for t in traces]
        lines.append("  ".join([f"{i:>4}"] + cells))
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapenewton",
        description="Interface identification for a two-source Poisson "
                    "problem by a shape Newton method.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="reuse an output directory, replacing its run's files")

    p_solve = sub.add_parser("solve", help="run the SQP iteration on one level")
    add_common(p_solve)
    p_solve.add_argument("--level", type=int, default=1,
                         help="refinement level (1 = coarsest)")
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="run every refinement level")
    add_common(p_study)
    p_study.set_defaults(func=cmd_study)

    p_base = sub.add_parser("baseline",
                            help="run scaled steepest descent on one level")
    add_common(p_base)
    p_base.add_argument("--level", type=int, default=1,
                        help="refinement level (1 = coarsest)")
    p_base.add_argument("--scaling", type=float, help="gradient scaling")
    p_base.set_defaults(func=cmd_baseline)

    p_verify = sub.add_parser("verify", help="run the verification checks")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ShapeNewtonError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
