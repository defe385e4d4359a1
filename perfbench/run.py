#!/usr/bin/env python3
"""Mission-simulator benchmark for bapp.

Runs one workload (a built-in scenario with its strategy overridden) from
outside the package: trials go through `bapp.sim.run_trial` in a loop in
this one process, and each trial's results go through the four
`bapp.experiment` writers into a temporary directory inside the checkout.
Every trial is checked against invariants, and against a pinned SHA-256 of
its written rows at the pinned seed.

    python3 perfbench/run.py --workload proof-sig --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os

# One BLAS thread: the benchmark measures the simulator, not thread scheduling.
# Set before numpy is imported, here and in the set-up processes, which inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")

# workload -> (built-in scenario, strategy)
WORKLOADS = {
    "proof-sig": ("proof-10x10", "bapp-sig"),
    "team-relocate": ("energy-15x7", "bapp-tid"),
    "random-team": ("scalability-20x20-n15", "random"),
}
PINNED_SEED = 20240501
# Distinct trial indices per workload. A run that has time for more trials
# cycles through them again, so every trial at the pinned seed is checked
# against a digest. Sized at several times what a 30 s run reaches today.
TRIALS = {"proof-sig": 24, "team-relocate": 48, "random-team": 192}
SETUP_RUNS = 5

OUTPUTS = (
    ("deployments.csv", "write_deployments_csv"),
    ("summary.json", "write_summary_json"),
    ("bases.csv", "write_bases_csv"),
    ("paths.csv", "write_paths_csv"),
)
DIGESTED = ("deployments.csv", "bases.csv", "paths.csv")

END_TO_END_UNITS = {"setup_s": "s", "deployments_per_s": "1/s", "trial_s_p50": "s",
                    "peak_rss_mb": "MB"}


def import_bapp():
    """Import bapp from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "bapp", "__init__.py")):
        sys.exit(f"perfbench: no bapp sources under {SRC}")
    sys.path.insert(0, SRC)
    import bapp
    return bapp


def set_up(bapp, workload: str, seed: int):
    """Load the workload's scenario, override strategy and seed, warm caches."""
    from bapp.strategies import StrategyKind

    scenario, strategy = WORKLOADS[workload]
    config, _ = bapp.scenario.load_scenario(scenario)
    config = replace(config, strategy=StrategyKind(strategy), master_seed=seed)
    # fills the planner's per-grid successor table, which every trial reuses
    bapp.planner.neighbors(config.start_cell, config.dims)
    return config


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first trial being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def run_one(bapp, config, trial: int, out_dir: str):
    """One timed trial plus its four result files: (metrics, trial_s, write_s)."""
    start = time.perf_counter()
    metrics = bapp.sim.run_trial(config, trial)
    mid = time.perf_counter()
    results = [bapp.experiment.ExperimentResult(config=config, trials=[metrics])]
    for name, writer in OUTPUTS:
        getattr(bapp.experiment, writer)(os.path.join(out_dir, name), results)
    end = time.perf_counter()
    return metrics, mid - start, end - mid


def trial_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in DIGESTED:
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def check_trial(config, metrics, out_dir: str, pinned) -> list:
    """Problems with one trial's records and written files; empty when correct."""
    problems = []
    dims, horizon, budget = config.dims, config.horizon, config.deployment_budget
    losses = 0
    for rec in metrics.records:
        where = f"round {rec.round_index} sector {rec.sector}"
        try:
            rec.trajectory.validate(dims)
        except ValueError as exc:
            problems.append(f"{where}: invalid trajectory: {exc}")
        if len(rec.trajectory.cells) != horizon:
            problems.append(f"{where}: path length {len(rec.trajectory.cells)} != horizon {horizon}")
        if not (math.isfinite(rec.entropy_bits) and 0.0 <= rec.entropy_bits <= 1.0):
            problems.append(f"{where}: entropy_bits {rec.entropy_bits!r} outside [0, 1]")
        losses += rec.theta == 1
        if rec.cum_losses != losses:
            problems.append(f"{where}: cum_losses {rec.cum_losses} != {losses} losses so far")
        if rec.round_index > budget:
            problems.append(f"{where}: round beyond budget {budget}")
    if metrics.rounds_executed > budget or len(metrics.base_track) > budget:
        problems.append(f"{metrics.rounds_executed} rounds executed, budget {budget}")
    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    if summary[config.strategy.value]["trials"] != 1:
        problems.append("summary.json does not describe the trial")
    if pinned is not None and trial_digest(out_dir) != pinned:
        problems.append("output rows differ from the pinned digest")
    return problems


def load_pins(workload: str, seed: int):
    """Pinned digest per trial index, or Nones when the seed is not the pinned one."""
    if seed != PINNED_SEED:
        return [None] * TRIALS[workload]
    with open(DIGESTS) as f:
        pins = json.load(f)["digests"][workload]
    if len(pins) != TRIALS[workload]:
        raise RuntimeError(f"{DIGESTS} holds {len(pins)} digests for {workload}, "
                           f"expected {TRIALS[workload]}")
    return pins


class Done(NamedTuple):
    """What is kept of a correct trial; its records are dropped, so memory stays per trial."""

    deployments: int
    rounds: int
    trial_s: float
    write_s: float


class Runner:
    """Runs and checks trials of one workload, counting what was attempted and failed."""

    def __init__(self, bapp, config, workload: str, seed: int, out_dir: str):
        self.bapp, self.config, self.out_dir = bapp, config, out_dir
        self.pins = load_pins(workload, seed)
        self.attempted = 0
        self.failed = 0

    def attempt(self, trial: int):
        """Run and check one trial: a Done, or None if it failed."""
        self.attempted += 1
        try:
            metrics, trial_s, write_s = run_one(self.bapp, self.config, trial, self.out_dir)
            problems = check_trial(self.config, metrics, self.out_dir,
                                   self.pins[trial % len(self.pins)])
        except Exception as exc:  # a trial that raises is counted, and the run goes on
            problems = [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"perfbench: trial {trial}: {p}", file=sys.stderr)
            return None
        return Done(len(metrics.records), metrics.rounds_executed, trial_s, write_s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    Trials run back to back until the next one would end after `seconds`.
    The set-up runs are spread evenly over the same interval, so that they
    and the trials see the same machine conditions.
    """
    n_trials = len(runner.pins)
    setups, done, took = [], [], []
    begin = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - begin
        if len(setups) < SETUP_RUNS and elapsed >= len(setups) * seconds / SETUP_RUNS:
            setups.append(time_setup(workload, seed))
            continue
        if took and elapsed + statistics.median(took) > seconds:
            break
        start = time.perf_counter()
        result = runner.attempt(k % n_trials)
        took.append(time.perf_counter() - start)
        k += 1
        if result is not None:
            done.append(result)
    while len(setups) < SETUP_RUNS:
        setups.append(time_setup(workload, seed))

    return {
        "setup_s": statistics.median(setups),
        "deployments_per_s": deployments_per_s(done),
        "trial_s_p50": statistics.median(d.trial_s for d in done) if done else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def deployments_per_s(done: list) -> float:
    """Deployments over the time spent in run_trial and the writers."""
    busy = sum(d.trial_s + d.write_s for d in done)
    return sum(d.deployments for d in done) / busy if busy else 0.0


def measure_traced(runner: Runner, tracer, seconds: float) -> dict:
    """Per-layer metrics: each trial runs untraced, then traced.

    The untraced/traced pairs give the tracing overhead on the same trials.
    The first trial is traced twice, and every call count must repeat
    exactly; the count ratios are taken from its first traced run.
    """
    from tracer import TRACED, aggregate, children_of, durations

    n_trials = len(runner.pins)

    def traced_attempt(trial):
        tracer.trial = trial
        lo = len(tracer.spans)
        tracer.install()
        try:
            result = runner.attempt(trial)
        finally:
            tracer.uninstall()
        return lo, len(tracer.spans), result

    plain, traced, took = [], [], []
    first = again = None
    begin = time.perf_counter()
    k = 0
    while not took or time.perf_counter() - begin + statistics.median(took) <= seconds:
        start = time.perf_counter()
        trial = k % n_trials
        untraced = runner.attempt(trial)
        window = traced_attempt(trial)
        took.append(time.perf_counter() - start)
        if first is None:
            first, again = window, traced_attempt(trial)
        if untraced is not None and window[2] is not None:
            plain.append(untraced)
            traced.append(window[2])
        k += 1

    spans = tracer.spans
    out = {}
    for name, entry in aggregate(spans).items():
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.total_s"] = (entry["total_s"], "s")
        out[f"{name}.self_s"] = (entry["self_s"], "s")
    latency_ms = sorted(d * 1e3 for d in durations(spans, "strategies.select_deployment"))
    out["strategies.select_deployment.p50_ms"] = (_quantile(latency_ms, 0.50), "ms")
    out["strategies.select_deployment.p99_ms"] = (_quantile(latency_ms, 0.99), "ms")

    lo, hi, result = first
    counts = {n: e["calls"] for n, e in aggregate(spans, lo, hi).items()}
    again_counts = {n: e["calls"] for n, e in aggregate(spans, again[0], again[1]).items()}
    if counts != again_counts:
        runner.failed += 1
        diff = sorted(n for n in TRACED if counts[n] != again_counts[n])
        print(f"perfbench: call counts of a repeated trial differ: {diff}", file=sys.stderr)
    rounds = result.rounds if result else 0
    deployments = result.deployments if result else 0
    relocations = counts["coordination.select_base_site"]
    ratios = {
        "strategies.plans_per_deployment":
            (counts["planner.plan_path"], counts["strategies.select_deployment"]),
        "planner.gain_evals_per_plan":
            (counts["planner.per_cell_gain"], counts["planner.plan_path"]),
        "planner.gain_evals_per_round": (counts["planner.per_cell_gain"], rounds),
        "coordination.partitions_per_relocation":
            (children_of(spans, lo, hi, "coordination.select_base_site",
                         "coordination.radial_partition"), relocations),
        "belief.entropy_evals_per_deployment": (counts["belief.global_entropy"], deployments),
    }
    for name, (num, den) in ratios.items():
        out[name] = (num / den if den else 0.0, "ratio")

    untraced, with_trace = deployments_per_s(plain), deployments_per_s(traced)
    out["trace.untraced_deployments_per_s"] = (untraced, "1/s")
    out["trace.traced_deployments_per_s"] = (with_trace, "1/s")
    out["trace.overhead_deployments_per_s"] = (with_trace - untraced, "1/s")
    return out


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    bapp = import_bapp()
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()  # set-up is traced too, for scenario.load_scenario
    config = set_up(bapp, args.workload, args.seed)
    if tracer is not None:
        tracer.uninstall()

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(bapp, config, args.workload, args.seed, out_dir)
        if tracer is None:
            values = measure(runner, args.workload, args.seed, args.seconds)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        else:
            metrics = measure_traced(runner, tracer, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    import numpy
    env = {
        "workload": args.workload,
        "scenario": WORKLOADS[args.workload][0],
        "strategy": WORKLOADS[args.workload][1],
        "seed": args.seed,
        "trace": args.trace,
        "trials_attempted": runner.attempted,
        "trials_failed": runner.failed,
        "distinct_trials": len(runner.pins),
        "digests_checked": args.seed == PINNED_SEED,
        "setup_runs": 0 if args.trace else SETUP_RUNS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }
    if tracer is not None:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"{args.workload}.spans.csv")
        tracer.write_spans(spans_path)
        env["spans"] = os.path.relpath(spans_path, ROOT)

    notes = {} if args.trace else {
        "setup_s": f"(median of {SETUP_RUNS} fresh processes)",
        "trial_s_p50": f"(median of {runner.attempted - runner.failed} trials)",
    }
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit} {notes.get(name, '')}".rstrip())
    if not args.trace:
        print(f"{'failed_frac':<44} {runner.failed / runner.attempted:>14.6g} "
              f"({runner.failed}/{runner.attempted} trials)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print("== all workloads")
    for workload, res in results.items():
        frac = res["failed"] / res["attempted"]
        print(f"{workload:<14} failed_frac {frac:.6g} ({res['failed']}/{res['attempted']} trials)")
        for name, m in res["metrics"].items():
            print(f"{workload:<14} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="master seed of every trial; digests are pinned at the default")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times set-up in a fresh process)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        set_up(import_bapp(), args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
