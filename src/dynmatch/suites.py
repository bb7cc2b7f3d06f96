"""Named validation suites behind `dynmatch validate` and the acceptance tests.

Each suite takes no parameters: it runs its acceptance criterion at fixed
sizes and seeds and returns a report dict with a boolean "passed"; the CLI
maps that to the exit status.  Each check is defined here once, and the
acceptance criteria in tests/test_acceptance.py call it:

- `sparsification`, `sampling-lemma`, `partition-augmentation` and
  `pivot-level` are criteria 05, 07, 08 and 09, draw for draw.
- `equivalence` is criteria 02, 03, 04 (the pipeline half) and 11, draw
  for draw: it replays erdos-churn streams with `replay(..., oracle_every=1)`,
  so every check is made after every update, and it passes only when every
  count is zero.

Criteria 01, 04's n=500 half, 06 and 10 have no suite.  Another stream size
is checked with `dynmatch gen` and `dynmatch run --oracle-every 1`.
"""

from __future__ import annotations

import random
from typing import Callable

from .core import InstanceConfig
from .errors import ConsistencyError
# has_short_augmenting_path is re-exported: perfbench imports it from here.
from .exact import has_short_augmenting_path, max_matching_exact  # noqa: F401
from .replay import CHECKS, replay
from .streams import StreamSpec, generate_stream
from .validators import (
    audit_sparsification,
    augmentation_gadget,
    find_pivot_level,
    validate_partition_augmentation,
    validate_vertex_sampling,
)


def suite_equivalence() -> dict:
    n, delta, updates, seeds, levels = 64, 16, 500, 10, (2, 3)
    totals = dict.fromkeys(("events", "checkpoints", *CHECKS), 0)
    for s in range(seeds):
        events = generate_stream(
            StreamSpec("erdos-churn", n, delta, updates, 9000 + s)
        )
        for level_count in levels:
            config = InstanceConfig(
                n, delta, level_count, algo_seed=9500 + 10 * level_count + s
            )
            summary = replay(events, config, oracle_every=1)
            for key in totals:
                totals[key] += summary[key]
    return {
        "suite": "equivalence",
        "n": n,
        "delta": delta,
        "levels": levels,
        "seeds": seeds,
        "updates": updates,
        **totals,
        "passed": not any(totals[key] for key in CHECKS),
    }


def suite_sparsification() -> dict:
    report = audit_sparsification(seed=7)
    return {
        "suite": "sparsification",
        "max_degree": {str(p): d for p, d in report.max_degree.items()},
        "fitted_c": report.fitted_c,
        "gate": report.gate,
        "passed": report.passed,
    }


def suite_sampling_lemma() -> dict:
    trials = 10000
    results = []
    # Complete bipartite K_{8,8} with a perfect matching, p = 0.25.
    edges = [(v, u) for v in range(8) for u in range(8)]
    matching = [(i, i) for i in range(8)]
    stats = validate_vertex_sampling(8, 8, edges, matching, 0.25, trials, seed=11)
    results.append(
        {"case": "K88", "mean": stats.mean, "se": stats.std_error, "bound": stats.bound,
         "passed": stats.passed}
    )
    rng = random.Random(23)
    for idx in range(20):
        vc = rng.randint(4, 32)
        uc = rng.randint(4, 32)
        density = rng.uniform(0.1, 0.5)
        inst_edges = [
            (v, u)
            for v in range(vc)
            for u in range(uc)
            if rng.random() < density
        ]
        if not inst_edges:
            inst_edges = [(0, 0)]
        combined = {(v, vc + u) for v, u in inst_edges}
        witness = max_matching_exact(vc + uc, combined).witness
        matching = [(a, b - vc) if a < vc else (b, a - vc) for a, b in witness]
        p = 0.1 if idx % 2 == 0 else 0.3
        stats = validate_vertex_sampling(
            vc, uc, inst_edges, matching, p, trials, seed=100 + idx
        )
        results.append(
            {"case": f"random-{idx}", "p": p, "mean": stats.mean,
             "se": stats.std_error, "bound": stats.bound, "passed": stats.passed}
        )
    return {
        "suite": "sampling-lemma",
        "cases": results,
        "passed": all(r["passed"] for r in results),
    }


def suite_partition_augmentation() -> dict:
    size = 5000
    gadget = augmentation_gadget(size, noise=2500, seed=5)
    stats = validate_partition_augmentation(gadget, p=0.03, trials=200, seed=6)
    return {
        "suite": "partition-augmentation",
        "size": size,
        "mean": stats.mean,
        "se": stats.std_error,
        "bound": stats.bound,
        "passed": stats.passed,
    }


def suite_pivot_level() -> dict:
    vectors = 10000
    rng = random.Random(17)
    failures = 0
    for levels in (2, 3, 4):
        for _ in range(vectors):
            style = rng.randrange(3)
            if style == 0:
                sizes = [rng.randint(0, 1000) for _ in range(levels)]
            elif style == 1:
                sizes = [rng.choice([0, 0, 1, rng.randint(0, 10**6)]) for _ in range(levels)]
            else:
                sizes = [rng.randint(0, 10**9) for _ in range(levels)]
            if sum(sizes) == 0:
                sizes[rng.randrange(levels)] = 1
            try:
                find_pivot_level(sizes)
            except (ConsistencyError, ValueError):
                failures += 1
    return {
        "suite": "pivot-level",
        "vectors": vectors,
        "failures": failures,
        "passed": failures == 0,
    }


SUITES: dict[str, Callable[[], dict]] = {
    "equivalence": suite_equivalence,
    "sparsification": suite_sparsification,
    "sampling-lemma": suite_sampling_lemma,
    "partition-augmentation": suite_partition_augmentation,
    "pivot-level": suite_pivot_level,
}
