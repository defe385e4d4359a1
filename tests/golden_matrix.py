#!/usr/bin/env python3
"""Golden output matrix: what every built-in scenario x strategy writes, pinned.

    python3 tests/golden_matrix.py

rewrites tests/golden_matrix.json and tests/golden_full.json. Each
(scenario, strategy) pair runs trials 0-1 at the scenario's own seed, and
one SHA-256 covers the four files bapp writes for it: deployments.csv,
summary.json, bases.csv and paths.csv. In golden_matrix.json the round
budget is cut to ROUNDS (or to the pair's entry in RAISED); that file also
pins the stdout and exit code of `bapp oracle-check` and the CSVs of a
default `bapp theory-sweep`. golden_full.json runs every pair at the
scenario's own budget. tests/test_golden_matrix.py recomputes every hash,
the full-budget ones under the `slow` marker. Re-pinning is a behaviour
change: a refactor that claims to keep the output bytes must pass against
the files as they were.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # so the script runs from any directory

from bapp import cli, experiment  # noqa: E402
from bapp.scenario import builtin_scenarios, load_scenario  # noqa: E402
from bapp.strategies import StrategyKind  # noqa: E402

PINS = Path(__file__).resolve().parent / "golden_matrix.json"
FULL_PINS = Path(__file__).resolve().parent / "golden_full.json"
TRIALS = 2
ROUNDS = 6
# Every bapp-tid pair runs two rounds past its trigger's phase switch
# (scenario.py derives it from the full budget: 30% of it), so the matrix
# covers phase II. energy-15x7 bapp-tid runs longer: it first re-plans a
# sector alone (a miss: its class or alpha changed after the round was
# planned) in round 16 of both trials.
RAISED = {
    "energy-15x7/bapp-tid": 16,
    "energy-3x35/bapp-tid": 11,
    "energy-5x21/bapp-tid": 11,
    "energy-7x15/bapp-tid": 11,
    "proof-10x10/bapp-tid": 77,
    "scalability-20x20-n15/bapp-tid": 20,
    "scalability-20x20-n3/bapp-tid": 62,
    "scalability-20x20-n5/bapp-tid": 47,
    "scalability-20x20-n7/bapp-tid": 38,
}
OUTPUTS = (
    ("deployments.csv", experiment.write_deployments_csv),
    ("summary.json", experiment.write_summary_json),
    ("bases.csv", experiment.write_bases_csv),
    ("paths.csv", experiment.write_paths_csv),
)


def pairs() -> list[str]:
    """Every 'scenario/strategy' pair, scenarios and strategies in their listed order."""
    return [f"{name}/{kind.value}" for name in builtin_scenarios() for kind in StrategyKind]


def full_budget(pair: str) -> int:
    """The round budget of the pair's scenario."""
    return load_scenario(pair.split("/")[0])[0].deployment_budget


def _files_digest(out_dir: str, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update(Path(out_dir, name).read_bytes())
    return digest.hexdigest()


def pair_digest(pair: str, rounds: int, out_dir: str) -> str:
    """SHA-256 of the four files written for trials 0-1 of one pair at `rounds` rounds."""
    name, strategy = pair.split("/")
    config, _ = load_scenario(name)
    config = replace(config, strategy=StrategyKind(strategy), deployment_budget=rounds)
    result = experiment.run_experiment(config, TRIALS)
    for file_name, write in OUTPUTS:
        write(os.path.join(out_dir, file_name), [result])
    return _files_digest(out_dir, [file_name for file_name, _ in OUTPUTS])


def oracle_check_digest() -> dict:
    """Exit code and stdout SHA-256 of `bapp oracle-check` at its defaults."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["oracle-check"])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def theory_sweep_digest(out_dir: str) -> str:
    """SHA-256 of the CSVs a default `bapp theory-sweep` writes."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["theory-sweep", "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"theory-sweep exited {code}")
    return _files_digest(out_dir, sorted(os.listdir(out_dir)))


def pin_pairs(rounds_of, out_dir: str) -> dict:
    """{"trials", "pairs"} with every pair's digest at rounds_of(pair) rounds."""
    pins = {"trials": TRIALS, "pairs": {}}
    for pair in pairs():
        rounds = rounds_of(pair)
        pins["pairs"][pair] = {"rounds": rounds, "sha256": pair_digest(pair, rounds, out_dir)}
        print(pair, rounds, pins["pairs"][pair]["sha256"], flush=True)
    return pins


def _write(path: Path, pins: dict) -> None:
    with open(path, "w") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")


def main() -> int:
    out_dir = tempfile.mkdtemp(prefix="bapp-golden-")
    try:
        pins = pin_pairs(lambda pair: RAISED.get(pair, ROUNDS), out_dir)
        pins["oracle_check"] = oracle_check_digest()
        sweep_dir = os.path.join(out_dir, "theory")
        pins["theory_sweep_sha256"] = theory_sweep_digest(sweep_dir)
        full = pin_pairs(full_budget, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    _write(PINS, pins)
    _write(FULL_PINS, full)
    return 0


if __name__ == "__main__":
    sys.exit(main())
