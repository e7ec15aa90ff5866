"""qkdfl benchmark: one workload per run, closed loop, correctness-checked.

    python3 perfbench/run.py --workload channel_k20 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...   # every workload, one process each

Run from the repository root.  A single caller in this process starts the
next op only when the previous one has finished, for `--seconds` seconds
(and at least one whole cycle of ops, which the checks need).  The program
sees only inputs generated from `--seed`.

`--trace 0` installs no wrappers and prints the end-to-end metrics.  Their
timings are wall times scaled to a reference machine speed by a probe timed
around the ops (see probe.py); the wall-clock figures are printed too.
`--trace 1` runs a third of the time untraced, then wraps the public qkdfl
functions (see layers.py), sets up again and runs the rest traced, and
prints the per-layer metrics.  Either way the report lines come first and
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A results file with the
provenance, samples and check results goes to perfbench/results/; the
traced run also writes its spans there.

Exit codes: 0 all checks passed, 1 a correctness check failed (the result
line says so), 2 the package, a config or an argument is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

DEFAULT_SEED = 20260811
# One BLAS thread for every workload and commit: steadier on a shared
# machine, and never above nproc.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("channel_k20", "radar_k10", "secagg_k20_1m", "qkd_sweep")
# The traced run spends this share of --seconds untraced, for the overhead.
UNTRACED_SHARE = 1 / 3
# A traced run's counts are compared with an earlier run's when these match.
CODE_DIGESTS = ("src_qkdfl_sha256", "perfbench_sha256")
# Longest gap between speed probes (see probe.py).
PROBE_INTERVAL_S = 1.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 samples beyond it.

    Nearest rank over the sorted samples; with 10 or fewer samples no such
    percentile exists and the result is (nan, nan).
    """
    n = len(samples)
    if n <= 10:
        return math.nan, math.nan
    rank = n - 10  # 1-based rank of the tail sample; ten samples lie above it
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def measure(wl, state, seconds: float, min_ops: int, probe, tracer=None) -> dict:
    """Closed loop over ops until `seconds` have passed and `min_ops` ran.

    The speed probe runs before the first op, then after an op whenever
    PROBE_INTERVAL_S has passed since the last probe, and after the last op;
    each op's wall time is scaled by the probes on either side of it.
    """
    wall, scaled, pending, probes, errors, failed, i = [], [], [], [], [], 0, 0
    last = probe()
    last_t = start = time.perf_counter()

    def running() -> bool:
        return i < min_ops or time.perf_counter() - start < seconds

    while running():
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op = i
            try:
                result = wl.op(state)
            finally:
                if tracer is not None:
                    tracer.op = None
            latency = time.perf_counter() - t0
            problems = wl.check(state, result)
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"op {i}: {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            errors.extend(problems)
        else:
            pending.append(latency)
        i += 1
        if not running() or time.perf_counter() - last_t >= PROBE_INTERVAL_S:
            now = probe()
            probes.append(now)
            factor = probe.ref_s / ((last + now) / 2)
            wall += pending
            scaled += [w * factor for w in pending]
            pending, last, last_t = [], now, time.perf_counter()
    return {"attempted": i, "failed": failed, "errors": errors, "wall": wall,
            "scaled": scaled, "probes": probes}


def timed_setups(wl, seed: int, probe):
    """Set up `wl.setup_repeats` times; (last state, wall times, scaled times)."""
    wall, scaled, state = [], [], None
    last = probe()
    for _ in range(wl.setup_repeats):
        state = None  # free the previous inputs before building the next
        t0 = time.perf_counter()
        state = wl.setup(ROOT, seed)
        wall.append(time.perf_counter() - t0)
        now = probe()
        scaled.append(wall[-1] * probe.ref_s / ((last + now) / 2))
        last = now
    return state, wall, scaled


def _digest(directory: Path) -> str:
    """SHA-256 over the names and contents of the directory's .py files."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "qkdfl").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "src_qkdfl_lines": lines,
        "src_qkdfl_sha256": _digest(ROOT / "src" / "qkdfl"),
        "perfbench_sha256": _digest(HERE),
        **git_revision(),
    }


def git_revision() -> dict:
    """HEAD and a dirty flag, when the repository root is a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if top.returncode != 0 or Path(top.stdout.split()[0]).resolve() != ROOT:
            return {"git_revision": None, "git_dirty": None}
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return {"git_revision": None, "git_dirty": None}
    return {"git_revision": top.stdout.split()[1], "git_dirty": bool(status.stdout.strip())}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _ops_per_s(run: dict, key: str) -> float:
    return len(run[key]) / sum(run[key]) if run[key] else 0.0


def end_to_end(wl, seed: int, seconds: float, probe) -> dict:
    state, setup_wall, setup_scaled = timed_setups(wl, seed, probe)
    run = measure(wl, state, seconds, wl.cycle(state), probe)
    scaled_ms = [1e3 * s for s in run["scaled"]]
    wall_ms = [1e3 * s for s in run["wall"]]
    n = len(scaled_ms)
    tail_pct, tail_ms = tail(scaled_ms)
    summary, final_errors = wl.finish(state)
    run["errors"] += final_errors
    ref = f"scaled to the reference speed, n={n}"
    metrics = {
        "setup_s": (_median(setup_scaled), "s",
                    f"median of {len(setup_scaled)} set-ups, scaled to the reference speed"),
        "op_p50_ms": (_median(scaled_ms), "ms", ref),
        "ops_per_s": (_ops_per_s(run, "scaled"), "1/s", ref),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "whole process"),
    }
    # Printed and recorded, not gated in BENCHMARK.json (see perfbench/README.md).
    also = {
        "op_tail_ms": (tail_ms, "ms", f"p{tail_pct:.1f}, " + ref if n > 10
                       else f"undefined with n={n} <= 10"),
        "failed_ops_ratio": (run["failed"] / run["attempted"], "ratio",
                             f"{run['failed']} of {run['attempted']} ops"),
        "setup_wall_s": (_median(setup_wall), "s", "wall clock"),
        "op_p50_wall_ms": (_median(wall_ms), "ms", "wall clock"),
        "ops_per_wall_s": (_ops_per_s(run, "wall"), "1/s", "wall clock"),
        "probe_ms": (1e3 * _median(run["probes"]), "ms",
                     f"median of {len(run['probes'])} probes, reference {1e3 * probe.ref_s:g} ms"),
    }
    for key in ("final_nmse", "final_miou"):
        if key in summary:
            also[key] = (summary[key], "-",
                         f"after the cell's last round, {summary['cells']} cells")
    return {"run": run, "metrics": metrics, "also": also, "summary": summary,
            "setup_wall_s": setup_wall, "latencies_wall_ms": wall_ms,
            "latencies_scaled_ms": scaled_ms}


def traced(wl, seed: int, seconds: float, probe, previous: dict | None) -> dict:
    import layers

    state = wl.setup(ROOT, seed)
    base = measure(wl, state, seconds * UNTRACED_SHARE, 1, probe)
    tracer = layers.Tracer(getattr(state, "qber_threshold", None))
    tracer.install()
    try:
        tracer.op = layers.SETUP
        state = wl.setup(ROOT, seed)
        tracer.op = None
        cycle = wl.cycle(state)
        run = measure(wl, state, seconds * (1 - UNTRACED_SHARE), cycle, probe, tracer)
        # Replay the cycle's first op: its computed counts must repeat exactly.
        wl.restart(state)
        tracer.op = "replay"
        result = wl.op(state)
        tracer.op = None
        replay_errors = wl.check(state, result)
    finally:
        tracer.op = None
        tracer.uninstall()
    summary, final_errors = wl.finish(state)

    errors = base["errors"] + run["errors"] + replay_errors + final_errors
    summary_spans = layers.summarize(tracer)
    ops, setup, _ = summary_spans
    errors += [f"silent layer: span {name} recorded no calls"
               for name in layers.silent_spans(wl.name, ops, setup)]
    if dict(tracer.counts["replay"]) != dict(tracer.counts[0]):
        errors.append("computed counts of a replayed op differ from its first run")
    cycle_counts = {}
    for op in range(cycle):
        for key, value in tracer.counts[op].items():
            cycle_counts[key] = cycle_counts.get(key, 0) + value
    cycle_counts = {key: value / cycle for key, value in sorted(cycle_counts.items())}
    if previous and previous.get("cycle_counts") != cycle_counts:
        errors.append("computed counts differ from the previous traced run of this code and seed")

    base_rate = _ops_per_s(base, "scaled")
    overhead = _ops_per_s(run, "scaled") / base_rate if base_rate else 0.0
    n_ops = run["attempted"]
    per_layer = layers.per_layer_metrics(tracer, summary_spans, n_ops, cycle_counts, overhead)
    metrics = {name: (value, unit, "") for name, (value, unit) in per_layer.items()}
    op_s = sum(run["wall"])
    spans = {name: {"calls_per_op": calls / n_ops, "total_ms": 1e3 * total / n_ops,
                    "self_ms": 1e3 * self_s / n_ops}
             for name, (calls, total, self_s) in sorted(ops.items()) if calls}
    shares = {}
    for name, (calls, _, self_s) in ops.items():
        if not calls:
            continue
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + self_s / op_s
    round_ms = 1e3 * ops["federated.run_round"][1] / n_ops
    also = {}
    if round_ms:
        phase_ms = sum(metrics[name][0] for name in layers.PHASES)
        also["federated.phase_sum_ms"] = (
            phase_ms, "ms",
            f"traced round {round_ms:.1f} ms wall; untraced round "
            f"{1e3 * statistics.mean(base['wall']):.1f} ms wall")
    attempted = base["attempted"] + run["attempted"] + 1
    failed = base["failed"] + run["failed"] + bool(replay_errors)
    return {"run": {"attempted": attempted, "failed": failed, "errors": errors},
            "metrics": metrics, "also": also, "summary": summary,
            "cycle_counts": cycle_counts, "tracer": tracer, "spans": spans,
            "layer_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1]))}


def run_all(args) -> int:
    """Each workload in its own process, one after another; worst exit code wins."""
    codes, results = [], {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        codes.append(child.returncode)
        if child.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": len(results) == len(WORKLOAD_NAMES)
        and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return max(codes)


def _number(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args)
    package = ROOT / "src" / "qkdfl"
    if not (package / "__init__.py").is_file():
        print(f"error: no qkdfl package at {package}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import qkdfl

    if Path(qkdfl.__file__).resolve().parent != package:
        print(f"error: imported qkdfl from {qkdfl.__file__}, not {package}", file=sys.stderr)
        return 2
    from probe import SpeedProbe
    from qkdfl.errors import ConfigError
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    probe = SpeedProbe(wl.probe_parts)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    out_path = RESULTS / f"{stem}-trace{args.trace}.json"
    t0 = time.perf_counter()
    prov = provenance(args.seed, args)
    try:
        if args.trace:
            previous = None
            if out_path.is_file():
                old = json.loads(out_path.read_text())
                if all(old["provenance"].get(k) == prov[k] for k in CODE_DIGESTS):
                    previous = old
            result = traced(wl, args.seed, args.seconds, probe, previous)
        else:
            result = end_to_end(wl, args.seed, args.seconds, probe)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = result["run"]
    correct = not run["errors"] and run["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller  ({'correct' if correct else 'INCORRECT'})")
    for name, (value, unit, note) in {**result["metrics"], **result["also"]}.items():
        print(f"  {name:34s} {value:>16.6g} {unit:8s} {note}")
    for err in run["errors"][:20]:
        print(f"  check failed: {err}")

    record = {
        "provenance": prov,
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "errors": run["errors"],
        "metrics": {k: {"value": _number(v), "unit": u, "note": n}
                    for k, (v, u, n) in {**result["metrics"], **result["also"]}.items()},
        "summary": result["summary"],
    }
    if "layer_shares" in result:
        print("  self-time share of traced op time by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in result["layer_shares"].items()))
    for key in ("setup_wall_s", "latencies_wall_ms", "latencies_scaled_ms", "cycle_counts",
                "spans", "layer_shares"):
        if key in result:
            record[key] = result[key]
    if args.trace:
        result["tracer"].write(RESULTS / f"{stem}.spans.jsonl.gz", t0)
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": _number(v), "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
