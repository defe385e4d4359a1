#!/usr/bin/env python3
"""Recompute the pinned per-trial output digests in perfbench/digests.json.

    python3 perfbench/pin.py

Runs trials 0..N-1 of every workload at the pinned seed, checks their
invariants and records the SHA-256 of each trial's deployments.csv,
bases.csv and paths.csv. Re-pin only for a change that is meant to alter
output bytes; a change that claims to keep them must pass against the old
digests.
"""

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    bapp = run.import_bapp()
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    digests = {}
    try:
        for workload, n_trials in run.TRIALS.items():
            config = run.set_up(bapp, workload, run.PINNED_SEED)
            digests[workload] = []
            for trial in range(n_trials):
                metrics, _, _ = run.run_one(bapp, config, trial, out_dir)
                problems = run.check_trial(config, metrics, out_dir, None)
                if problems:
                    sys.exit(f"{workload} trial {trial}: {problems[0]}")
                digests[workload].append(run.trial_digest(out_dir))
                print(workload, trial, digests[workload][-1], flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(run.DIGESTS, "w") as f:
        json.dump({"seed": run.PINNED_SEED, "digests": digests}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
