"""Named validation suites behind `dynmatch validate` and the acceptance tests.

Each suite returns a report dict with a boolean "passed"; the CLI maps that
to the exit status.  Each check is defined here once, and the acceptance
criteria in tests/test_acceptance.py call it:

- `sparsification`, `sampling-lemma`, `partition-augmentation` and
  `pivot-level` at their defaults are criteria 05, 07, 08 and 09, draw for
  draw.
- `equivalence` is the one suite for the pipeline: it replays erdos-churn
  streams with `replay(..., oracle_every=1)`, so every check is made after
  every update, and it passes only when every count is zero.  Criteria 02,
  03, 04 (the pipeline half) and 11 make the same `replay` call at n=64
  over L in {2, 3} with their own seeds.

Criteria 01, 04's n=500 half, 06 and 10 have no suite.
"""

from __future__ import annotations

import inspect
import random
from typing import Callable

from .core import InstanceConfig
from .errors import ConfigError, ConsistencyError, DynMatchError
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


def suite_equivalence(
    n: int = 32,
    delta: int = 16,
    levels: int = 2,
    updates: int = 200,
    seeds: int = 10,
) -> dict:
    totals = dict.fromkeys(("events", *CHECKS), 0)
    for s in range(seeds):
        config = InstanceConfig(n, delta, levels, algo_seed=2000 + s)
        events = generate_stream(
            StreamSpec("erdos-churn", n, delta, updates, 1000 + s, {})
        )
        summary = replay(events, config, oracle_every=1)
        for key in totals:
            totals[key] += summary[key]
    return {
        "suite": "equivalence",
        "seeds": seeds,
        "updates": updates,
        **totals,
        "passed": not any(totals[key] for key in CHECKS),
    }


def suite_sparsification(
    n: int = 2000,
    m: int = 20000,
    trials: int = 30,
    gate: float = 4.0,
) -> dict:
    report = audit_sparsification(n=n, m=m, trials=trials, seed=7, gate=gate)
    return {
        "suite": "sparsification",
        "max_degree": {str(p): d for p, d in report.max_degree.items()},
        "fitted_c": report.fitted_c,
        "gate": gate,
        "passed": report.passed,
    }


def suite_sampling_lemma(trials: int = 10000, instances: int = 20) -> dict:
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
    for idx in range(instances):
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


def suite_partition_augmentation(
    size: int = 5000, trials: int = 200, noise: int = 2500
) -> dict:
    gadget = augmentation_gadget(size, noise=noise, seed=5)
    stats = validate_partition_augmentation(gadget, p=0.03, trials=trials, seed=6)
    return {
        "suite": "partition-augmentation",
        "size": size,
        "mean": stats.mean,
        "se": stats.std_error,
        "bound": stats.bound,
        "passed": stats.passed,
    }


def suite_pivot_level(vectors: int = 10000) -> dict:
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


SUITES: dict[str, Callable[..., dict]] = {
    "equivalence": suite_equivalence,
    "sparsification": suite_sparsification,
    "sampling-lemma": suite_sampling_lemma,
    "partition-augmentation": suite_partition_augmentation,
    "pivot-level": suite_pivot_level,
}


def run_validation(suite: str, **params) -> dict:
    """Run one named suite.  A parameter the suite does not take, or a count
    below 1 (on which a suite crashes or checks nothing), is a `ConfigError`
    that names it, raised before the suite starts."""
    if suite not in SUITES:
        raise DynMatchError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        )
    fn = SUITES[suite]
    accepted = inspect.signature(fn).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigError(
            f"suite {suite!r} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(accepted)}"
        )
    for key in ("seeds", "trials", "updates", "vectors", "instances", "size", "m", "n"):
        if params.get(key, 1) < 1:
            raise ConfigError(f"suite {suite!r}: {key} must be >= 1, got {params[key]}")
    return fn(**params)
