"""Sweep benchmark for conewidth.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sweep is a fresh Python process (``perfbench/child.py``) that runs
``conewidth sweep`` through ``conewidth.cli.main``.  Sweeps of one workload
repeat back to back, sweep i with ``master_seed=1000*N+i``, until the next
one would end after S seconds (at least three, four when traced).  Every
sweep's outputs are checked; the run reports medians over its sweeps.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced sweeps and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines go first; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}`` in which
an operation is one trial.  See ``perfbench/README.md`` for the workloads
and the metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import now  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".perfbench_out")
RUN_LIMIT_S = 170.0  # every sweep of a run must end by then

LOGISTIC_OVERRIDES = (
    "family=logistic", "ensemble=rademacher", "p=100", "s=3", "theta_magnitude=1.0",
    "n_grid=60,120,240", "mu_mode=theoretical", "rsc_directions=400",
)


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: tuple[str, ...]
    workers: int
    constraint_mode: str


# Sizes keep each workload's property while a sweep takes a few seconds; the
# reasons are in README.md.  logistic-matched is not in BENCHMARK.json: its
# run-to-run spread across seeds is too wide to gate on, so it is run
# by hand, with more seeds, to show that gaussian-only changes bypass it.
MISMATCHED_OVERRIDES = ("n_grid=128,256,512,1024,2048,4096", "trials=1", "mc_samples=250")
WORKLOADS = {
    "matched-serial": Workload("configs/matched.cfg", ("trials=5",), 1, "matched"),
    "mismatched-serial": Workload("configs/mismatched.cfg", MISMATCHED_OVERRIDES, 1, "mismatched"),
    "mismatched-2proc": Workload("configs/mismatched.cfg", MISMATCHED_OVERRIDES, 2, "mismatched"),
    "logistic-matched": Workload("configs/matched.cfg", (*LOGISTIC_OVERRIDES, "trials=3"), 1, "matched"),
}

# The CSV contract as the README documents it; copied, not imported, so that
# a change to the program cannot move the expectation with it.
TRIAL_COLUMNS = (
    "n", "trial", "seed", "error_l2", "error_l1", "bound_matched", "bound_mismatched", "t_star",
    "width_mean", "width_stderr", "mu_hat", "mu_theoretical", "sigma_max", "solver_iters",
    "final_gap", "discarded",
)
AGGREGATE_COLUMNS = (
    "n", "mean_error", "stderr", "bound", "bound_closed_form", "naive_bound", "refined_bound",
    "width_mean", "width_stderr", "t_star", "mu_used", "sigma_max_mean", "discard_rate",
    "mean_gap", "mean_error_unconditioned", "trials_used",
)
SLOPE_FOOTERS = ("# slope_error ", "# slope_bound ")

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "trials_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# The result line carries only metrics steady enough to gate on.  trials_per_s
# divides a handful of heavy-tailed trials by the difference of two times, and
# its spread between seeds exceeds the largest allowed bound (README.md).
PRINTED_ONLY = ("trials_per_s",)


class CheckFailed(Exception):
    pass


@dataclass
class Sweep:
    index: int
    seed: int
    traced: bool
    result: dict
    cpu_s: float
    peak_rss_mb: float
    started: float
    csv: Path

    @property
    def sweep_s(self) -> float:
        return self.result["done"] - self.started

    @property
    def setup_s(self) -> float:
        return self.result["setup_done"] - self.started

    @property
    def attempted(self) -> int:
        return self.result["trials_attempted"]

    @property
    def failed(self) -> int:
        return len(self.result["failed_trials"])


def sweep_seed(seed: int, index: int, paired: bool) -> int:
    """master_seed of a run's index-th sweep.  Sweeps of a run draw distinct
    instances, so a run averages over more of them than one sweep holds;
    traced runs give each traced sweep and the untraced one after it the
    same instances, so that their ratio is the tracing overhead alone."""
    return seed * 1000 + (index // 2 if paired else index)


def run_sweep_process(workload: Workload, seed: int, index: int, traced: bool, workers: int,
                      rundir: Path, deadline: float) -> Sweep:
    """One sweep in a fresh process; raises CheckFailed if it does not exit 0."""
    csv = rundir / f"sweep-{index}.csv"
    result_path = rundir / f"sweep-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    env.pop("CONEWIDTH_THREADS", None)
    if workers > 1:
        env["CONEWIDTH_THREADS"] = str(workers)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if traced else "0",
           workload.config, str(csv), *workload.overrides, f"master_seed={seed}"]
    with open(rundir / f"sweep-{index}.log", "wb") as log:
        started = now()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
    # wait4 gives the rusage of this sweep alone, its reaped pool workers included
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if now() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise CheckFailed(f"sweep {index} killed: it would have ended after the {RUN_LIMIT_S:.0f} s run limit")
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = (rundir / f"sweep-{index}.log").read_text(errors="replace").strip().splitlines()[-5:]
        raise CheckFailed(f"sweep {index} exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(result_path.read_text())
    if result["exit_code"] != 0:
        raise CheckFailed(f"sweep {index}: conewidth sweep returned {result['exit_code']}")
    if result["setup_done"] is None:
        raise CheckFailed(f"sweep {index}: experiment.prepare_sweep never returned in the main process")
    if traced:
        result["worker_traces"] = [json.loads(Path(p).read_text())
                                   for p in sorted(glob.glob(f"{result_path}.worker-*.json"))]
        if workers > 1 and not result["worker_traces"]:
            raise CheckFailed(f"sweep {index}: no spans arrived from the pool workers (not forked?)")
    return Sweep(index, seed, traced, result, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, started, csv)


def _finite(raw: str) -> bool:
    try:
        return math.isfinite(float(raw))
    except ValueError:
        return False


def check_outputs(sweep: Sweep, workload: Workload) -> tuple[int, int]:
    """Check one sweep's two CSVs; returns (grid points where the bound held, grid points)."""
    agg_lines = sweep.csv.read_text(encoding="utf-8").splitlines()
    trial_lines = Path(f"{sweep.csv}.trials.csv").read_text(encoding="utf-8").splitlines()
    if tuple(trial_lines[0].split(",")) != TRIAL_COLUMNS:
        raise CheckFailed(f"trials CSV header differs from the documented columns: {trial_lines[0]}")
    if tuple(agg_lines[0].split(",")) != AGGREGATE_COLUMNS:
        raise CheckFailed(f"aggregate CSV header differs from the documented columns: {agg_lines[0]}")

    bound_col = "bound_matched" if workload.constraint_mode == "matched" else "bound_mismatched"
    trial_rows = [dict(zip(TRIAL_COLUMNS, line.split(","))) for line in trial_lines[1:]]
    if len(trial_rows) != sweep.attempted - sweep.failed:
        raise CheckFailed(f"trials CSV has {len(trial_rows)} rows for "
                          f"{sweep.attempted - sweep.failed} completed trials")
    for row in trial_rows:
        for col in ("error_l2", "error_l1", bound_col, "final_gap"):
            if not _finite(row[col]):
                raise CheckFailed(f"trial n={row['n']} trial={row['trial']}: {col}={row[col]} is not finite")

    body = [line for line in agg_lines[1:] if not line.startswith("#")]
    footers = [line for line in agg_lines[1:] if line.startswith("#")]
    for prefix in SLOPE_FOOTERS:
        if not any(line.startswith(prefix) for line in footers):
            raise CheckFailed(f"aggregate CSV lacks the '{prefix.strip()}' footer")
    if not body:
        raise CheckFailed("aggregate CSV has no rows")
    held = 0
    for line in body:
        row = dict(zip(AGGREGATE_COLUMNS, line.split(",")))
        for col in ("mean_error", "bound", "mean_gap"):
            if not _finite(row[col]):
                raise CheckFailed(f"aggregate n={row['n']}: {col}={row[col]} is not finite")
        held += float(row["mean_error"]) <= float(row["bound"])
    needed = math.ceil(0.95 * len(body))
    if held < needed:
        raise CheckFailed(f"bound held at {held}/{len(body)} grid points; at least {needed} required")
    return held, len(body)


def csv_bytes(sweep: Sweep) -> tuple[bytes, bytes]:
    return sweep.csv.read_bytes(), Path(f"{sweep.csv}.trials.csv").read_bytes()


def quantile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0 for an empty sample (the layer did not run)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100) - 1, 0)]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it; None
    below 20 samples, where that percentile is not a tail."""
    n = len(values)
    q = (100 * (n - 10)) // n if n > 10 else 0
    return (q, quantile(values, q)) if q >= 50 else None


def end_to_end_samples(sweeps: list[Sweep]) -> dict[str, list[float]]:
    samples = {name: [] for name in END_TO_END_UNITS}
    for s in sweeps:
        samples["sweep_s"].append(s.sweep_s)
        samples["setup_s"].append(s.setup_s)
        samples["trials_per_s"].append((s.attempted - s.failed) / (s.sweep_s - s.setup_s))
        samples["cpu_s"].append(s.cpu_s)
        samples["peak_rss_mb"].append(s.peak_rss_mb)
    return samples


# -- per-layer metrics from traced sweeps ----------------------------------

LAYER_UNITS = {
    "solver.solve_s": "s", "solver.solve_ms.p50": "ms", "solver.solve_ms.p90": "ms",
    "solver.iters.p50": "count", "solver.iters.p90": "count", "solver.iters.max": "count",
    "solver.evals_per_iter": "ratio", "solver.certified_frac": "ratio", "solver.proj_s": "s",
    "glm.loss_calls": "count", "glm.gradient_calls": "count", "glm.oracle_s": "s",
    "glm.matvec_gflop": "GFLOP", "glm.datagen_s": "s",
    "geometry.width_cone_s": "s", "geometry.width_global_s": "s", "geometry.width_localized_s": "s",
    "geometry.l1_proj_rows": "count", "geometry.proj_grad_s": "s",
    "bounds.rsc_s": "s", "bounds.rsc_ms.p50": "ms", "bounds.optimize_t_s": "s", "bounds.bound_s": "s",
    "experiment.prepare_s": "s", "experiment.worker_prepare_s": "s",
    "experiment.trial_ms.p50": "ms", "experiment.trial_ms.p90": "ms",
    "experiment.pool_idle_frac": "ratio", "experiment.trials_failed": "count",
    "rng.streams": "count", "rng.stream_s": "s",
    "cli.load_config_s": "s", "cli.csv_s": "s",
    "trace.overhead": "ratio",
}


def _spans(trace: dict, name: str) -> list[list]:
    return [s for s in trace["spans"] if s[0] == name]


def _total(traces: list[dict], name: str) -> float:
    return sum(s[2] - s[1] for t in traces for s in _spans(t, name))


def _counter(traces: list[dict], name: str, field_index: int) -> float:
    return sum(t["counters"].get(name, [0, 0.0, 0])[field_index] for t in traces)


def _pool_idle_frac(workers: list[dict]) -> float:
    """1 - busy / (workers x pool window); the window runs from the first
    worker start to the last task end, and set-up counts as busy."""
    busy_spans = [s for t in workers for s in t["spans"]
                  if s[0] in ("experiment.worker_init", "experiment.worker_task")]
    if not busy_spans:
        return 0.0
    window = max(s[2] for s in busy_spans) - min(s[1] for s in busy_spans)
    busy = sum(s[2] - s[1] for s in busy_spans)
    return 1.0 - busy / (len(workers) * window)


def sweep_layer_totals(sweep: Sweep) -> dict[str, float]:
    """Per-sweep sums of one traced sweep, main process and workers together."""
    main = sweep.result["trace"]
    workers = sweep.result["worker_traces"]
    every = [main, *workers]
    solves = [s[4] for t in every for s in _spans(t, "solver.solve")]
    iters = sum(a["iters"] for a in solves)
    csv_s = _total([main], "cli.cmd_sweep") - _total([main], "cli.run_sweep")
    return {
        "solver.solve_s": _total(every, "solver.solve"),
        "solver.evals_per_iter": sum(a["loss_calls"] for a in solves) / iters if iters else 0.0,
        "solver.certified_frac": sum(a["certified"] for a in solves) / len(solves) if solves else 0.0,
        "solver.proj_s": _counter(every, "solver.proj", 1),
        "glm.loss_calls": _counter(every, "glm.loss", 0),
        "glm.gradient_calls": _counter(every, "glm.gradient", 0),
        "glm.oracle_s": _counter(every, "glm.loss", 1) + _counter(every, "glm.gradient", 1),
        "glm.matvec_gflop": (_counter(every, "glm.loss", 2) + _counter(every, "glm.gradient", 2)) / 1e9,
        "glm.datagen_s": _total(every, "glm.datagen"),
        "geometry.width_cone_s": _total(every, "geometry.width_cone"),
        "geometry.width_global_s": _total(every, "geometry.width_global"),
        "geometry.width_localized_s": _total(every, "geometry.width_localized"),
        "geometry.l1_proj_rows": _counter(every, "geometry.l1_proj_rows", 2),
        "geometry.proj_grad_s": _total(every, "geometry.proj_grad"),
        "bounds.rsc_s": _total(every, "bounds.rsc"),
        "bounds.optimize_t_s": _total(every, "bounds.optimize_t"),
        "bounds.bound_s": _total(every, "bounds.bound"),
        "experiment.prepare_s": _total([main], "experiment.prepare_sweep"),
        "experiment.worker_prepare_s": _total(workers, "experiment.prepare_sweep"),
        "experiment.pool_idle_frac": _pool_idle_frac(workers),
        "experiment.trials_failed": sweep.failed,
        "rng.streams": _counter(every, "rng.stream", 0),
        "rng.stream_s": _counter(every, "rng.stream", 1),
        "cli.load_config_s": _total([main], "cli.load_config"),
        "cli.csv_s": csv_s,
    }


def layer_metrics(sweeps: list[Sweep]) -> tuple[dict[str, float], dict[str, int]]:
    """Medians of per-sweep sums, percentiles of pooled per-call samples, and
    the sample count behind each.  Sweeps alternate traced, untraced."""
    traced = [s for s in sweeps if s.traced]
    totals = [sweep_layer_totals(s) for s in traced]
    metrics = {name: statistics.median(t[name] for t in totals) for name in totals[0]}
    counts = {name: len(totals) for name in totals[0]}
    pooled = {"solve_ms": [], "iters": [], "trial_ms": [], "rsc_ms": []}
    for s in traced:
        for t in (s.result["trace"], *s.result["worker_traces"]):
            for span in t["spans"]:
                ms = 1000.0 * (span[2] - span[1])
                if span[0] == "solver.solve":
                    pooled["solve_ms"].append(ms)
                    pooled["iters"].append(span[4]["iters"])
                elif span[0] == "experiment.trial":
                    pooled["trial_ms"].append(ms)
                elif span[0] == "bounds.rsc":
                    pooled["rsc_ms"].append(ms)
    for name, layer, qs in (("solve_ms", "solver", (50, 90)), ("iters", "solver", (50, 90, 100)),
                            ("trial_ms", "experiment", (50, 90)), ("rsc_ms", "bounds", (50,))):
        for q in qs:
            key = f"{layer}.{name}." + ("max" if q == 100 else f"p{q}")
            metrics[key] = quantile(pooled[name], q)
            counts[key] = len(pooled[name])
    pairs = [(t, u) for t, u in zip(sweeps[0::2], sweeps[1::2]) if t.seed == u.seed]
    metrics["trace.overhead"] = statistics.median(t.sweep_s / u.sweep_s for t, u in pairs)
    counts["trace.overhead"] = len(pairs)
    return {name: metrics[name] for name in LAYER_UNITS}, counts


# -- entry point -----------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def print_samples(name: str, unit: str, values: list[float]) -> None:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "no tail percentile (needs >= 20 samples)"
    print(f"  {name:<28} {unit:<6} n={len(values):<5} median={statistics.median(values):<12.6g} {tail_text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/conewidth/cli.py", workload.config) if not Path(p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # one BLAS thread in every process of the run, pool workers included
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    start = now()
    deadline = start + RUN_LIMIT_S
    rundir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    sweeps: list[Sweep] = []
    problems: list[str] = []
    held = points = 0
    min_sweeps = 4 if args.trace else 3
    # a run with a pool also runs one serial sweep at the end
    reserve = 1 if workload.workers > 1 else 0
    try:
        while True:
            index = len(sweeps)
            traced = args.trace == 1 and index % 2 == 0
            sweep = run_sweep_process(workload, sweep_seed(args.seed, index, args.trace == 1), index, traced,
                                      workload.workers, rundir, deadline)
            sweeps.append(sweep)
            sweep_held, sweep_points = check_outputs(sweep, workload)
            held, points = held + sweep_held, points + sweep_points
            elapsed = now() - start
            if len(sweeps) >= min_sweeps and elapsed + (1 + reserve) * sweep.sweep_s > args.seconds:
                break
        if workload.workers > 1:
            first = sweeps[0]
            serial = run_sweep_process(workload, first.seed, len(sweeps), False, 1, rundir, deadline)
            if csv_bytes(serial) != csv_bytes(first):
                raise CheckFailed(f"serial and {workload.workers}-worker sweeps at master_seed={first.seed} "
                                  "wrote different CSVs")
            determinism = f"serial vs {workload.workers}-worker CSVs byte-identical"
        else:
            determinism = "serial run only"
    except CheckFailed as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  sweeps {len(sweeps)}  "
          f"wall {now() - start:.1f} s")
    if sweeps:
        facts = dict(sweeps[0].result["machine"], seed=args.seed, workers=workload.workers,
                     config=workload.config, overrides=list(workload.overrides),
                     master_seeds=sorted({s.seed for s in sweeps}))
        print("machine " + json.dumps(facts, sort_keys=True))
    if problems or not sweeps:
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1

    print(f"checks: exit 0, documented columns, finite errors/bounds/gaps, "
          f"bound_held {held}/{points} grid points (>= 95% in every sweep), {determinism}")
    for s in sweeps:
        for n, trial, message in s.result["failed_trials"]:
            print(f"  failed trial master_seed={s.seed} n={n} trial={trial}: {message}")

    for s in sweeps:
        print(f"  sweep {s.index}: master_seed={s.seed} traced={int(s.traced)} sweep_s={s.sweep_s:.4f} "
              f"setup_s={s.setup_s:.4f} cpu_s={s.cpu_s:.4f} trials={s.attempted}")
    if args.trace:
        metrics, counts = layer_metrics(sweeps)
        units = LAYER_UNITS
        print("per-layer (median of per-sweep sums; pNN over pooled calls):")
        for name, value in metrics.items():
            print(f"  {name:<28} {units[name]:<6} n={counts[name]:<5} value={value:.6g}")
    else:
        samples = end_to_end_samples(sweeps)
        units = END_TO_END_UNITS
        print("end-to-end:")
        for name, values in samples.items():
            print_samples(name, units[name], values)
        metrics = {name: statistics.median(values) for name, values in samples.items() if name not in PRINTED_ONLY}
        print(f"  {'trial_fail_rate':<28} {'ratio':<6} n={attempted:<5} "
              f"value={failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
