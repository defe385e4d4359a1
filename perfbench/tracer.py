"""Outside-in span tracing of bapp functions, without touching bapp's code.

bapp's modules bind each other's functions at import time (`from .planner
import plan_path`), so replacing `bapp.planner.plan_path` alone would miss
the call from `bapp.strategies`. `Tracer.install` therefore replaces a
function in every loaded bapp module whose namespace holds it, and
`Tracer.uninstall` puts every original back.

Each call records a span (function, start, end, parent span, trial index)
in memory; `write_spans` saves them when the run ends and `aggregate` turns
them into calls, total and self time per function, where self time is the
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Every function the benchmark reports per layer, as <module>.<function>.
TRACED = (
    "scenario.load_scenario",
    "sim.run_trial",
    "sim.generate_world",
    "sim.seed_stream",
    "sim.execute_deployment",
    "strategies.select_deployment",
    "strategies.sig_select_path",
    "planner.plan_path",
    "planner.score_path",
    "planner.per_cell_gain",
    "planner.random_walk",
    "info_measures.mi_behavioral",
    "info_measures.binary_entropy",
    "belief.update_on_success",
    "belief.update_on_failure",
    "belief.global_entropy",
    "belief.cell_failure_prob",
    "coordination.select_base_site",
    "coordination.regional_entropy",
    "coordination.radial_partition",
    "experiment.write_deployments_csv",
    "experiment.write_summary_json",
    "experiment.write_bases_csv",
    "experiment.write_paths_csv",
)


class Tracer:
    """Span recorder for the functions in TRACED."""

    def __init__(self):
        # span: (function index, start, end, parent span index or -1, trial)
        self.spans: list = []
        self.trial = -1
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bapp" or name.startswith("bapp."))]
        for idx, qualname in enumerate(TRACED):
            mod_name, func_name = qualname.split(".")
            original = getattr(importlib.import_module(f"bapp.{mod_name}"), func_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, tracer.trial)

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent,trial\n")
            for i, (idx, start, end, parent, trial) in enumerate(self.spans):
                f.write(f"{i},{TRACED[idx]},{start!r},{end!r},{parent},{trial}\n")


def aggregate(spans: list, lo: int = 0, hi: int | None = None) -> dict:
    """calls, total_s and self_s per traced function over spans[lo:hi]."""
    hi = len(spans) if hi is None else hi
    child_s = [0.0] * (hi - lo)
    for idx, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child_s[parent - lo] += end - start
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
    for k, (idx, start, end, _, _) in enumerate(spans[lo:hi]):
        entry = stats[TRACED[idx]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[k]
    return stats


def children_of(spans: list, lo: int, hi: int, parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans in spans[lo:hi] whose parent is a `parent_name` span."""
    p, c = TRACED.index(parent_name), TRACED.index(child_name)
    return sum(1 for idx, _, _, parent, _ in spans[lo:hi]
               if idx == c and parent >= 0 and spans[parent][0] == p)


def durations(spans: list, name: str) -> list:
    idx = TRACED.index(name)
    return [end - start for i, start, end, _, _ in spans if i == idx]
