"""Pinned golden outputs: a refactor must leave every written byte the same.

Runs trial 0 of each benchmark workload at the pinned seed through the
benchmark's own set-up, trial and check code (perfbench/run.py), and
compares its deployments/bases/paths rows with perfbench/digests.json.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins the BLAS thread count in os.environ when imported; keep that
    # local, and write no bytecode cache into perfbench/
    with mock.patch.dict(os.environ), mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("run")


@pytest.mark.parametrize("workload", ["proof-sig", "team-relocate", "random-team"])
def test_trial_zero_matches_pinned_digest(bench, tmp_path, workload):
    import bapp

    config = bench.set_up(bapp, workload, bench.PINNED_SEED)
    pins = bench.load_pins(workload, bench.PINNED_SEED)
    metrics, _, _ = bench.run_one(bapp, config, 0, str(tmp_path))
    assert bench.check_trial(config, metrics, str(tmp_path), pins[0]) == []


def test_workloads_cover_the_pinned_digests(bench):
    assert sorted(bench.WORKLOADS) == ["proof-sig", "random-team", "team-relocate"]


def test_traced_names_resolve():
    tracer = _load("tracer")
    for name in tracer.TRACED:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"bapp.{module}"), func, None)), name
