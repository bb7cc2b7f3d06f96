"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (the big replay runs) are computed once per module and
shared by the criteria that read different aspects of the same runs.
"""

import bisect
import hashlib
import json
import math
import time

import pytest

from dynmatch.core import Instance, InstanceConfig, edge_key
from dynmatch.exact import IncrementalMatching
from dynmatch.rgmm import MatchingState
from dynmatch.streams import StreamSpec, generate_stream
from dynmatch.suites import (
    suite_equivalence,
    suite_partition_augmentation,
    suite_pivot_level,
    suite_sampling_lemma,
    suite_sparsification,
)
from dynmatch.validators import clique_pm_static_experiment
from helpers import assert_is_greedy, is_maximal

C1_SEEDS = 10
C1_UPDATES = 2000
C1_N = 500
C1_DELTA = 32
C1_TARGET_M = 1200


# sha256 of each gate's report as canonical JSON: a suite whose draws
# change fails here even when its gate still passes.
REPORT_PINS = {
    "equivalence": "943c656a979065c37e09e3297e11f52f40cd4e77913041cc67fac68951f461e6",
    "sparsification": "d73cc84da2a2ca1cc92318604845b534aca3af640ea3338f3c2b2f04db661bff",
    "sampling-lemma": "bc7d9ef3e8a992d0bb19a0826a6b87ec8a9009c148ae750be4830f2cc73a2d46",
    "partition-augmentation": "b7726c68d014806cdc8f55e9a1bb520e0a5e30451c93dd6a50ba327ba1a2ca6d",
    "pivot-level": "2c279336fabac8d6cba0bf1aa6d9bbc250c1e012e7a75c8cb280597a52a09d9a",
    "clique-pm-static": "8b3f2e714de682bfe25cd5941142f3bd97c09416be7f0f392a2501b5b718627b",
}


def _print(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def _assert_pinned(name: str, report: dict) -> None:
    # no `default`: a value JSON cannot hold fails instead of becoming a string
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PINS[name]


def _c1_stream(seed: int):
    return generate_stream(
        StreamSpec(
            "erdos-churn", C1_N, C1_DELTA, C1_UPDATES, 7000 + seed,
            {"target_edges": C1_TARGET_M},
        )
    )


# ---------------------------------------------------------------------------
# criterion 1 artifacts: dynamic-vs-static greedy matching at scale
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c1_data():
    """Replays the ten n=500 streams once for criteria 1, 4 and 6.

    Criterion 4's checks (maximality, and |M_0| >= mu/2 against the
    incremental exact oracle) run after every update; their time is taken
    out of `elapsed`, so criterion 1's 30 s gate times only the dynamic
    matching and its static rebuild.
    """
    mismatches = 0
    maximal_bad = 0
    half_mu_bad = 0
    adjustments: list[int] = []
    check_s = 0.0
    t0 = time.perf_counter()
    for seed in range(C1_SEEDS):
        events = _c1_stream(seed)
        inst = Instance(InstanceConfig(C1_N, C1_DELTA, 1, algo_seed=8000 + seed))
        state = MatchingState()
        oracle = IncrementalMatching(C1_N)
        sorted_edges: list = []  # (rank, key), maintained in rank order
        live_rank: dict = {}
        for step, ev in enumerate(events):
            key = edge_key(ev.u, ev.v)
            if ev.op == "ins":
                rec = inst.admit_edge(ev.u, ev.v)
                rank = rec.ranks[0]
                delta = state.apply_insert(key, rank)
                bisect.insort(sorted_edges, (rank, key))
                live_rank[key] = rank
            else:
                inst.retire_edge(ev.u, ev.v)
                delta = state.apply_delete(key)
                rank = live_rank.pop(key)
                del sorted_edges[bisect.bisect_left(sorted_edges, (rank, key))]
            adjustments.append(delta.size())

            t_check = time.perf_counter()
            if ev.op == "ins":
                oracle.insert(*key)
            else:
                oracle.delete(*key)
            if not is_maximal(state.matching, live_rank):
                maximal_bad += 1
            if len(state.k) < oracle.size:  # 2|M_0| < mu
                half_mu_bad += 1
            check_s += time.perf_counter() - t_check

            # static rebuild from scratch over the rank-ordered edge list
            k: dict = {}
            matching: set = set()
            for rank, kk in sorted_edges:
                a, b = kk
                if a not in k and b not in k:
                    k[a] = rank
                    k[b] = rank
                    matching.add(kk)
            if not (matching == state.matching and k == state.k):
                mismatches += 1
                continue
            # index equality: every live edge indexed under both endpoints,
            # keyed by the other endpoint and holding the edge's rank, and
            # exactly two index entries per edge overall; with k these fix
            # every eliminator, min(k(u), k(v))
            ok = sum(len(adj) for adj in state.index.values()) == 2 * len(live_rank)
            if ok:
                for (a, b), rank in live_rank.items():
                    if not (
                        state.index[a].get(b) == state.index[b].get(a) == rank
                    ):
                        ok = False
                        break
            if not ok:
                mismatches += 1
            # keep the inlined oracle honest against the reference greedy
            if step % 400 == 399:
                assert_is_greedy(state, live_rank)
    elapsed = time.perf_counter() - t0 - check_s
    return {
        "mismatches": mismatches,
        "maximal_bad": maximal_bad,
        "half_mu_bad": half_mu_bad,
        "elapsed": elapsed,
        "adjustments": adjustments,
    }


# ---------------------------------------------------------------------------
# criteria 2, 3, 4 and 11 artifacts: full pipeline vs the static reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c2_data():
    """The equivalence suite's report: n=64 replays with every check made
    after every update."""
    return suite_equivalence()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_dynamic_equals_static_rgmm(c1_data):
    passed = c1_data["mismatches"] == 0 and c1_data["elapsed"] < 30.0
    _print(
        1, passed,
        f"{C1_SEEDS} seeds x {C1_UPDATES} updates (n={C1_N}, delta={C1_DELTA}): "
        f"{c1_data['mismatches']} mismatches, {c1_data['elapsed']:.1f}s (target 30s)",
    )
    assert c1_data["mismatches"] == 0
    assert c1_data["elapsed"] < 30.0


def test_c02_pipeline_oracle_equivalence(c2_data):
    passed = c2_data["mismatches"] == 0
    _print(
        2, passed,
        f"{c2_data['seeds']} seeds x {c2_data['updates']} updates, "
        f"L in {c2_data['levels']} (n={c2_data['n']}, delta={c2_data['delta']}): "
        f"{c2_data['mismatches']} mismatches "
        f"over {c2_data['checkpoints']} checkpoints",
    )
    assert passed
    _assert_pinned("equivalence", c2_data)


def test_c03_level_stability(c2_data):
    passed = c2_data["stability_violations"] == 0
    _print(
        3, passed,
        f"levels above the trigger unchanged: "
        f"{c2_data['stability_violations']} violations",
    )
    assert passed


def test_c04_maximality_and_lower_bounds(c1_data, c2_data):
    # the n=500 stream side (checked inside the c01 replay) and the n=64 side
    maximal_bad = c1_data["maximal_bad"]
    half_mu_bad = c1_data["half_mu_bad"]
    passed = (
        maximal_bad == 0
        and half_mu_bad == 0
        and c2_data["maximality_violations"] == 0
        and c2_data["half_mu_violations"] == 0
        and c2_data["answer_below_m0"] == 0
    )
    _print(
        4, passed,
        f"maximality violations {maximal_bad + c2_data['maximality_violations']}, "
        f"|M0| >= mu/2 violations {half_mu_bad + c2_data['half_mu_violations']}, "
        f"|answer| < |M0| events {c2_data['answer_below_m0']}",
    )
    assert passed


def test_c05_sparsification_audit():
    report = suite_sparsification()
    _print(
        5, report["passed"],
        f"eliminator-filtered max degree within 4/p ln n for all 30 trials; "
        f"fitted c = {report['fitted_c']:.2f}, "
        f"worst degrees = "
        f"{ {f'2^-{i}': report['max_degree'][str(2.0**-i)] for i in range(2, 9)} }",
    )
    assert report["passed"]
    _assert_pinned("sparsification", report)


def test_c06_adjustment_complexity(c1_data):
    adjusts = c1_data["adjustments"]
    mean = sum(adjusts) / len(adjusts)
    worst = max(adjusts)
    limit = 8 * math.log(C1_N)
    passed = mean <= 5.0 and worst <= limit
    _print(
        6, passed,
        f"mean adjustment {mean:.3f} (gate 5), max {worst} (gate {limit:.1f})",
    )
    assert passed


def test_c07_vertex_sampling_lemma():
    report = suite_sampling_lemma()
    cases = report["cases"]
    bad = [c for c in cases if not c["passed"]]
    worst_margin = min(c["mean"] - (c["bound"] - 3 * c["se"]) for c in cases)
    _print(
        7, not bad,
        f"{len(cases)} instances x 10^4 trials, all means >= p(|M|-2p|V|) - 3se; "
        f"tightest margin {worst_margin:.3f}",
    )
    assert not bad, bad
    _assert_pinned("sampling-lemma", report)


def test_c08_partition_augmentation():
    report = suite_partition_augmentation()
    _print(
        8, report["passed"],
        f"mean doubly-matched count {report['mean']:.2f} >= "
        f"0.003825*5000 - 3se = {report['bound'] - 3 * report['se']:.2f} "
        f"(se {report['se']:.2f}, 200 trials)",
    )
    assert report["passed"]
    _assert_pinned("partition-augmentation", report)


def test_c09_pivot_level():
    report = suite_pivot_level()
    _print(
        9, report["passed"],
        f"3x10^4 random size vectors, {report['failures']} failures",
    )
    assert report["passed"]
    _assert_pinned("pivot-level", report)


def test_c10_better_than_baseline_on_worst_case_family():
    report = clique_pm_static_experiment(2000, levels=2, seeds=120, base_seed=100)
    mean_m0 = report["mean_m0_ratio"]
    gain = report["mean_gain"]
    se = report["se_gain"]
    cond_a = 0.50 <= mean_m0 <= 0.55
    cond_b = gain >= 3 * se and gain > 0
    passed = cond_a and cond_b
    _print(
        10, passed,
        f"clique+pm n=2000, 120 seeds: mean |M0|/mu = {mean_m0:.4f} in [0.50, 0.55]; "
        f"paired gain {gain:.5f} >= 3se = {3 * se:.5f}",
    )
    assert passed
    _assert_pinned("clique-pm-static", report)


def test_c11_final_matcher_contract(c2_data):
    passed = (
        c2_data["short_path_violations"] == 0
        and c2_data["union_ratio_violations"] == 0
        and c2_data["answer_matching_violations"] == 0
    )
    _print(
        11, passed,
        f"the answer is a matching inside the union, with no augmenting path "
        f"of length <= 2k-1 and |answer| >= k/(k+1) mu(union), "
        f"at every of {c2_data['checkpoints']} checkpoints: "
        f"{c2_data['short_path_violations']} path violations, "
        f"{c2_data['union_ratio_violations']} ratio violations, "
        f"{c2_data['answer_matching_violations']} matching violations",
    )
    assert passed
