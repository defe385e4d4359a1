"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Criteria 6-8 run the shipped desk-scale scenarios end to end (25 paired-seed
Monte Carlo trials each) and take a few minutes; run with `-s` to watch the
PASS lines stream.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from bapp.belief import BeliefMap, GridDims, update_on_failure, update_on_success
from bapp.experiment import run_experiment, theory_sweep, write_deployments_csv, write_theory_csvs
from bapp.info_measures import (BehaviorParams, BinaryChannel, MiForm, behavioral_entropy,
                                delta_mi, find_informative_alpha, mi_behavioral, mi_bgs,
                                prelec_weight, shannon_entropy)
from bapp.oracles import exhaustive_plan, outcome_probability, posterior_by_enumeration
from bapp.planner import PlanConfig, neighbors, plan_path
from bapp.scenario import load_scenario
from bapp.strategies import StrategyKind

RESULT_CACHE = {}


def run_scenario(name, strategy=None, lethality=None, trials=None):
    """Run (and memoize) a shipped scenario with optional overrides."""
    key = (name, strategy, lethality)
    if key not in RESULT_CACHE:
        config, n_trials = load_scenario(name)
        if strategy is not None:
            config = replace(config, strategy=StrategyKind(strategy))
        if lethality is not None:
            config = replace(config, lethality=lethality)
        RESULT_CACHE[key] = run_experiment(config, trials or n_trials)
    return RESULT_CACHE[key]


def test_criterion_1_prelec_fixed_point():
    worst = 0.0
    for alpha in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0):
        for m in (2, 4, 16, 256, 1024):
            params = BehaviorParams(alpha=alpha, support_size=m)
            worst = max(worst, abs(prelec_weight(1.0 / m, params) - 1.0 / m))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 1 prelec fixed point: PASS (max |w(1/M)-1/M| = {worst:.2e})")


def test_criterion_2_alpha_one_reduction():
    rng = np.random.default_rng(20240502)
    worst_h = worst_i = 0.0
    for _ in range(1000):
        p, lam, gam = rng.uniform(0.005, 0.995, 3)
        ch = BinaryChannel(float(lam), float(gam))
        worst_h = max(worst_h, abs(behavioral_entropy([p, 1 - p], 1.0) - shannon_entropy([p, 1 - p])))
        ref = mi_bgs(float(p), ch)
        for form in (MiForm.POSTERIOR, MiForm.CHANNEL):
            worst_i = max(worst_i, abs(mi_behavioral(float(p), ch, 1.0, form) - ref))
    assert worst_h < 1e-9
    assert worst_i < 1e-9
    print(f"\nACCEPTANCE 2 alpha=1 reduction: PASS (entropy gap {worst_h:.2e}, MI gap {worst_i:.2e})")


def test_criterion_3_informative_alpha_exists():
    alpha_grid = np.round(np.arange(0.1, 5.0001, 0.05), 10)
    assert any(abs(a - 1.0) < 1e-12 for a in alpha_grid)
    checked = 0
    for gam in np.round(np.arange(0.01, 0.3001, 0.01), 10):
        for lam in np.round(np.arange(0.70, 0.9901, 0.01), 10):
            ch = BinaryChannel(float(lam), float(gam))
            for p in np.round(np.arange(0.05, 0.9501, 0.05), 10):
                res = find_informative_alpha(float(p), ch, alpha_grid)
                assert res.informative, (p, lam, gam)
                checked += 1
    assert checked == 30 * 30 * 19
    # the low-prior / strong-sensor case shows a real gain below alpha = 1
    gains = [delta_mi(0.2, 0.9, 0.1, a).total for a in alpha_grid if a < 1.0]
    assert max(gains) > 0.05
    print(f"\nACCEPTANCE 3 informative alpha exists: PASS "
          f"({checked} sensor/prior points; max sub-1 gain {max(gains):.4f} nats)")


def _all_path_cell_sets():
    """Distinct visited-cell sets of every 9-connected path of length <= 4 on 3x3."""
    dims = GridDims(3, 3)
    sets = set()
    frontier = [(start, (start,)) for start in range(9)]
    for _ in range(4):
        nxt = []
        for cur, cells in frontier:
            sets.add(frozenset(cells))
            if len(cells) < 4:
                for nb in neighbors(cur, dims):
                    nxt.append((nb, cells + (nb,)))
        frontier = [fc for fc in nxt]
    for cur, cells in frontier:
        sets.add(frozenset(cells))
    return sorted(tuple(sorted(s)) for s in sets)


def test_criterion_4_belief_update_oracle():
    dims = GridDims(3, 3)
    channels = (BinaryChannel(0.7, 0.1), BinaryChannel(0.9, 0.1))
    cell_sets = _all_path_cell_sets()
    worst_update = 0.0
    worst_martingale = 0.0
    cases = 0
    for cells in cell_sets:
        k = len(cells)
        for channel in channels:
            for combo in itertools.product((0.1, 0.5, 0.9), repeat=k):
                probs = np.full(9, 0.5)
                probs[list(cells)] = combo
                belief = BeliefMap(dims, probs)
                succ = update_on_success(belief, cells, channel).probs[list(cells)]
                fail = update_on_failure(belief, cells, channel).probs[list(cells)]
                want_s = posterior_by_enumeration(combo, channel, 0)
                want_f = posterior_by_enumeration(combo, channel, 1)
                worst_update = max(worst_update,
                                   float(np.max(np.abs(succ - want_s))),
                                   float(np.max(np.abs(fail - want_f))))
                p0 = outcome_probability(combo, channel, 0)
                blended = p0 * succ + (1.0 - p0) * fail
                worst_martingale = max(worst_martingale,
                                       float(np.max(np.abs(blended - np.asarray(combo)))))
                cases += 1
    assert worst_update < 1e-10
    assert worst_martingale < 1e-10
    print(f"\nACCEPTANCE 4 belief-update oracle: PASS ({len(cell_sets)} cell sets, {cases} cases, "
          f"max update diff {worst_update:.2e}, max martingale gap {worst_martingale:.2e})")


def test_criterion_5_planner_oracle():
    rng = np.random.default_rng(20240503)
    dims = GridDims(3, 3)
    ch = BinaryChannel(0.9, 0.1)
    cfg = PlanConfig(horizon=3, beam_width=None, alpha=1.0)
    for k in range(50):
        belief = BeliefMap(dims, rng.uniform(0.02, 0.98, 9))
        start = int(rng.integers(9))
        got = plan_path(belief, start, cfg, ch)
        want = exhaustive_plan(belief, start, 3, ch, 1.0)
        assert got == want, (k, got, want)
    print("\nACCEPTANCE 5 planner oracle: PASS (50/50 unbounded-beam plans match exhaustive search)")


def _capped_d50(result):
    return result.capped_deployments_to_half()


def test_criterion_6_desk_scale_orderings():
    tid = run_scenario("proof-10x10", strategy="bapp-tid", lethality=0.7)
    std = run_scenario("proof-10x10", strategy="std-itp", lethality=0.7)
    rnd = run_scenario("proof-10x10", strategy="random", lethality=0.7)
    sig = run_scenario("proof-10x10", strategy="bapp-sig", lethality=0.7)
    n = tid.n_trials
    need = math.ceil(0.6 * n)

    # (a) deployments-to-half-entropy: bapp-tid < std-itp < random
    d_tid, d_std, d_rnd = _capped_d50(tid), _capped_d50(std), _capped_d50(rnd)
    assert d_tid.mean() < d_std.mean() < d_rnd.mean()
    tid_wins = int(np.sum(d_tid < d_std))
    std_wins = int(np.sum(d_std < d_rnd))
    assert tid_wins >= need, f"tid faster on only {tid_wins}/{n} seeds"
    assert std_wins >= need, f"std faster on only {std_wins}/{n} seeds"

    # (b) final cumulative losses: bapp-sig <= std-itp, at both lethality levels
    seed_counts = {}
    for lam, sig_res, std_res in [
        (0.7, sig, std),
        (0.9, run_scenario("proof-10x10", strategy="bapp-sig", lethality=0.9),
              run_scenario("proof-10x10", strategy="std-itp", lethality=0.9)),
    ]:
        l_sig = np.array([tm.loss_series[-1] for tm in sig_res.trials])
        l_std = np.array([tm.loss_series[-1] for tm in std_res.trials])
        assert l_sig.mean() <= l_std.mean(), f"lam={lam}: mean losses {l_sig.mean()} > {l_std.mean()}"
        wins = int(np.sum(l_sig <= l_std))
        seed_counts[lam] = wins
        assert wins >= need, f"lam={lam}: sig <= std on only {wins}/{n} seeds"

    print(f"\nACCEPTANCE 6 desk-scale orderings: PASS "
          f"(d50 means tid {d_tid.mean():.1f} < std {d_std.mean():.1f} < random {d_rnd.mean():.1f}; "
          f"per-seed tid<std {tid_wins}/{n}, std<random {std_wins}/{n}; "
          f"sig<=std losses on {seed_counts[0.7]}/{n} @0.7 and {seed_counts[0.9]}/{n} @0.9)")


def test_criterion_7_team_size_speedup():
    r3 = run_scenario("scalability-20x20-n3")
    r15 = run_scenario("scalability-20x20-n15")
    d3 = _capped_d50(r3).mean()
    d15 = _capped_d50(r15).mean()
    assert d15 < d3
    speedup = (d3 - d15) / d3
    assert 0.40 <= speedup <= 0.85, f"speedup {speedup:.1%} outside [40%, 85%]"
    print(f"\nACCEPTANCE 7 team-size speedup: PASS "
          f"(rounds-to-half n=3: {d3:.1f}, n=15: {d15:.1f}, speedup {speedup:.1%})")


def test_criterion_8_energy_budget_shapes():
    names = ["energy-15x7", "energy-7x15", "energy-5x21", "energy-3x35"]
    finals = {}
    for name in names:
        res = run_scenario(name)
        finals[name] = float(res.entropy_stats()[0][-1])
    ordered = [finals[n] for n in names]
    assert ordered[0] < ordered[-1], "15x7 must beat 3x35 outright"
    assert all(a < b for a, b in zip(ordered, ordered[1:])), f"chain violated: {finals}"
    print("\nACCEPTANCE 8 energy-budget shapes: PASS ("
          + " < ".join(f"{n.split('-')[1]}={finals[n]:.3f}" for n in names) + ")")


def test_criterion_9_determinism(tmp_path):
    config, _ = load_scenario("proof-10x10")
    config = replace(config, deployment_budget=12)
    blobs = []
    for i, workers in enumerate((1, 2)):
        res = run_experiment(config, trials=4, workers=workers)
        path = tmp_path / f"dep{i}.csv"
        write_deployments_csv(str(path), [res])
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    sweeps = []
    for i in range(2):
        out = tmp_path / f"sweep{i}"
        out.mkdir()
        result = theory_sweep([0.5, 1.0, 2.0], np.arange(0.05, 0.951, 0.05),
                              np.arange(0.70, 0.991, 0.03), np.arange(0.01, 0.301, 0.03))
        write_theory_csvs(str(out), result)
        sweeps.append((out / "theory_sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]
    print("\nACCEPTANCE 9 determinism: PASS (byte-identical CSVs across worker counts and reruns)")
