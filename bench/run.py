"""Benchmark of the multida CLI on three workloads: train, predict and CV.

    python3 bench/run.py --workload train-k4-wide --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, untraced
    python3 bench/run.py --smoke                     # toy sizes, both modes

Run from the repository root.  Untraced (``--trace 0``), each workload
runs its ``multida`` command as a subprocess in a closed loop (one client,
one command at a time) for ``--seconds`` of command time and reports the
end-to-end metrics.  Traced (``--trace 1``), it alternates untraced
commands with commands run in-process under span recording, and reports
the per-layer metrics.  Every command's output is checked.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with machine
and provenance data, goes to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
STARTUP_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "file_bytes": "bytes",
    "cells_per_s": "cells/s",
}
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "data_io.load_dataset_s": "s",
    "data_io.load_dataset_cells_per_s": "cells/s",
    "data_io.save_model_s": "s",
    "data_io.load_model_s": "s",
    "data_io.load_matrix_s": "s",
    "data_io.save_dataset_s": "s",
    "data_io.bytes_read": "bytes",
    "data_io.bytes_written": "bytes",
    "estimator.fit_s": "s",
    "estimator.fit_self_s": "s",
    "estimator.fit_calls": "count",
    "estimator.accumulate_stats_s": "s",
    "estimator.fit_mles_s": "s",
    "estimator.lrt_s": "s",
    "estimator.gamma_weights_s": "s",
    "estimator.predict_s": "s",
    "estimator.predict_calls": "count",
    "estimator.predict_rows": "count",
    "estimator.predict_cells_slots": "count",
    "estimator.stats_cells": "count",
    "estimator.selected_features_s": "s",
    "partitions.build_partition_set_s": "s",
    "partitions.n_slots": "count",
    "simlab.generate_s": "s",
    "simlab.cross_validate_self_s": "s",
    "trace.overhead_s": "s",
}
# counts derived from shapes rather than measured
COMPUTED = ("estimator.predict_cells_slots", "estimator.stats_cells", "partitions.n_slots")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_child(argv: list[str], work: Path) -> Child:
    """Run one process to completion through ``launch.py``, which times it
    and reads its peak RSS with ``wait4``.  On interruption the launcher's
    process group, which holds the command too, is killed."""
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = work / "child.json"
    proc = subprocess.Popen([sys.executable, "-I", "-S", str(BENCH / "launch.py"), str(result),
                             str(work / "commands.log"), "--", *argv],
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"launcher exited {code} for {argv}")
    return Child(**json.loads(result.read_text()))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


class Ops:
    """Counts commands attempted and failed.  An output is correct when
    the command exited 0 and its files pass the workload's checks; outputs
    identical to one that passed are not checked again."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._good: set[str] = set()

    def record(self, child: Child) -> None:
        self.attempted += 1
        problems = [f"exit code {child.code}"] if child.code != 0 else []
        if not problems:
            digest = _digest(self.workload.outputs)
            if digest in self._good:
                return
            try:
                problems = self.workload.check()
            except Exception:
                problems = ["check raised:\n" + traceback.format_exc()]
            if not problems:
                self._good.add(digest)
                return
        self.failed += 1
        for p in problems:
            print(f"{self.workload.name}: {p}", file=sys.stderr)
        self.problems.extend(problems)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_figures(traces: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*traces)
    return {k: statistics.median(t.get(k, 0.0) for t in traces) for k in keys}


def per_layer(setup_traces, command_traces, startup, untraced, traced) -> dict[str, float]:
    """Per-layer figures of one set-up plus one command (medians over the
    repetitions in the run)."""
    setup = _median_figures([spans.figures(t) for t in setup_traces])
    command = _median_figures([spans.figures(t) for t in command_traces])
    both = {k: setup.get(k, 0.0) + command.get(k, 0.0) for k in set(setup) | set(command)}
    for k in spans.MAXIMA:
        both[k] = max(setup.get(k, 0.0), command.get(k, 0.0))
    out = {name: float(both.get(name, 0.0)) for name in PER_LAYER}
    load_s = both.get("data_io.load_dataset_s", 0.0)
    out["data_io.load_dataset_cells_per_s"] = (
        both["data_io.load_dataset_cells"] / load_s if load_s else 0.0)
    out["cli.startup_s"] = statistics.median(startup)
    # each traced command ran right after an untraced one: pair them
    out["trace.overhead_s"] = statistics.median(
        t.wall_s - u.wall_s for u, t in zip(untraced, traced))
    return out


def fit_table(traces) -> list[dict]:
    """Median stage times per fit, grouped by (K, variance, n, p): the rows
    of the ROADMAP baseline table."""
    groups: dict[tuple, list[dict]] = {}
    for trace in traces:
        for row in spans.fit_rows(trace):
            key = tuple(row[k] for k in ("K", "variance", "n", "p", "M", "z_M"))
            groups.setdefault(key, []).append(row)
    table = []
    for (k, variance, n, p, m, z_m), rows in sorted(groups.items()):
        entry = {"K": k, "variance": variance, "n": n, "p": p, "M": m, "z_M": z_m,
                 "fits": len(rows)}
        for col in ("stats", "mles", "lrt", "gamma", "fit"):
            entry[f"{col}_s"] = statistics.median(r[col] for r in rows)
        table.append(entry)
    return table


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def _blas() -> str | None:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "cli_threads": 1,
        "commit": _commit(),
        "src_sha256": _tree_digest(),
        "seed": seed,
    }


def run_workload(cls, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run and check one workload; returns its record."""
    work = BENCH / "work" / f"{cls.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(cls(seed, work, smoke), work, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w, work: Path, seed, seconds, trace, smoke) -> dict:
    run_start = time.perf_counter()
    cli = [sys.executable, "-m", "multida.cli"]
    run_child(cli + ["--version"], work)  # warm-up: byte-compiles the package once
    setup_s, setup_traces = [], []
    for i in range(SETUP_REPS):
        if trace:
            tracer = spans.Tracer(f"setup-{i}")
            with spans.patched(tracer):
                setup_s.append(_timed(w.setup))
            setup_traces.append(tracer.spans)
        else:
            setup_s.append(_timed(w.setup))
    startup = [run_child(cli + ["--version"], work).wall_s
               for _ in range(STARTUP_REPS if trace else 0)]

    ops = Ops(w)
    untraced: list[Child] = []
    traced: list[Child] = []
    command_traces = []
    busy = 0.0
    while busy < seconds or not untraced:
        child = run_child(cli + w.argv(), work)
        ops.record(child)
        untraced.append(child)
        busy += child.wall_s
        if trace:
            span_file = work / "spans.json"
            child = run_child([sys.executable, str(BENCH / "trace_cli.py"), str(span_file),
                               "--", *w.argv()], work)
            ops.record(child)
            traced.append(child)
            busy += child.wall_s
            if child.code == 0:
                label = f"command-{len(command_traces)}"
                command_traces.append([spans.Span(**{**s, "trace": label})
                                       for s in json.loads(span_file.read_text())])

    # Mean over the run's closed loop (command time / commands).  On a
    # shared machine the speed drifts in stretches longer than a command;
    # measured across seeds, the mean spread less than the median or the
    # minimum of the same runs.
    wall = statistics.fmean(c.wall_s for c in untraced)
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "provenance": provenance(seed),
        "samples": {"setups": len(setup_s), "commands": len(untraced),
                    "traced_commands": len(traced), "busy_s": busy,
                    "setup_s": setup_s, "wall_s": [c.wall_s for c in untraced],
                    "cpu_s": [c.cpu_s for c in untraced],
                    "traced_wall_s": [c.wall_s for c in traced]},
        "attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
    }
    if trace and command_traces:
        values = per_layer(setup_traces, command_traces, startup, untraced, traced)
        record["metrics"] = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        record["computed_counts"] = list(COMPUTED)
        record["fit_table"] = fit_table(setup_traces + command_traces)
        span_path = OUT / f"{w.name}-seed{seed}.spans.json"
        span_path.write_text(json.dumps(
            [asdict(s) for t in setup_traces + command_traces for s in t]))
        record["spans_file"] = str(span_path.relative_to(ROOT))
    elif not trace:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(c.rss_mb for c in untraced),
            "file_bytes": float(w.file_bytes()),
            "cells_per_s": w.cells / wall,
        }
        record["metrics"] = {k: {"value": values[k], "unit": END_TO_END[k]}
                             for k in END_TO_END}
        named = w.named(wall)
        named["ops_failed_frac"] = (ops.failed / ops.attempted, "1")
        named["wall_median_s"] = (statistics.median(c.wall_s for c in untraced), "s")
        record["workload_metrics"] = {k: {"value": v, "unit": u}
                                      for k, (v, u) in named.items()}
    else:
        record["metrics"] = {}
    record["samples"]["run_s"] = time.perf_counter() - run_start
    return record


def _print_record(record: dict, path: Path) -> None:
    s = record["samples"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{s['commands']} commands ({s['traced_commands']} traced) in "
          f"{s['busy_s']:.1f} s ({s['run_s']:.1f} s in all), {s['setups']} set-ups, "
          f"{record['failed']}/{record['attempted']} failed")
    for group in ("metrics", "workload_metrics"):
        for name, m in record.get(group, {}).items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for row in record.get("fit_table", []):
        print("  fit K={K} {variance} n={n} p={p} M={M} z_M={z_M} ({fits} fits): "
              "stats {stats_s:.4f} mles {mles_s:.4f} lrt {lrt_s:.4f} "
              "gamma {gamma_s:.4f} fit {fit_s:.4f} s".format(**row))
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(f"record: {path.relative_to(ROOT)}")


def _result(record: dict) -> dict:
    return {"correct": record["failed"] == 0 and bool(record["metrics"]),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["metrics"]}


def run_and_report(cls, seed, seconds, trace, smoke) -> dict:
    record = run_workload(cls, seed, seconds, trace, smoke)
    suffix = "-smoke" if smoke else ""
    path = OUT / f"{cls.name}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps(record, indent=1))
    _print_record(record, path)
    return record


def smoke(workloads) -> int:
    """Run every workload at toy size, untraced and traced, and check that
    each metric BENCHMARK.json names is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(workloads):
        problems.append("BENCHMARK.json names a workload bench/workloads.py lacks")
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for cls in workloads.values():
            record = run_and_report(cls, 1, 1.0, trace, smoke=True)
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if got != want:
                problems.append(f"{cls.name} trace={int(trace)}: metrics {got} != {want}")
            if not _result(record)["correct"]:
                problems.append(f"{cls.name} trace={int(trace)}: {record['problems']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes; every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "multida" / "__init__.py").is_file():
        print(f"error: no multida source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # stop the command being timed, not just this process, on SIGTERM
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # numpy reads the BLAS thread count once, when it is first imported
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(WORKLOADS)
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)} or all")
    results = {cls.name: _result(run_and_report(cls, args.seed, args.seconds,
                                                bool(args.trace), smoke=False))
               for cls in chosen}
    print(json.dumps(results[chosen[0].name] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
