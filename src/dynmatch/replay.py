"""Replay an update stream through the pipeline, check it, and collect metrics.

`replay` is the one loop that replays a stream through a `Pipeline`; `dynmatch
run`, the `equivalence` suite and the acceptance criteria all call it.  Every
`oracle_every`-th update, and the last one, is a checkpoint.  There each check
counts its violations (`CHECKS`, in order): the pipeline differs from
`static_reference`; a level above the update's trigger level differs from its
copy taken just before the update (one per level); M_0 is not maximal;
|M_0| < mu(G)/2; |answer| < |M_0|; the union graph holds an augmenting path
of at most 2k-1 edges; |answer| < k/(k+1) mu(union); the answer is not a
matching inside the union graph.  Maximality and the last check read the
edge sets, not engine methods.

Metrics are one JSON object per update (append-only, parseable on their own);
a checkpoint's line carries its per-check counts under `checks`.  The summary
aggregates timing, quality figures and the check counts, and `first_failure`
names the first checkpoint that failed a check: its event's `seq` and the
checks that failed there (`null` when none did).
Wall-clock fields aside, a replay is a pure function of (stream, algo config).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Sequence, TextIO

from .core import Instance, InstanceConfig
from .errors import ConfigError, DynMatchError, OracleLimitError, ReplayError
from .exact import DEFAULT_ORACLE_LIMIT, has_short_augmenting_path, max_matching_exact
from .pipeline import Pipeline
from .reference import static_reference
from .streams import UpdateEvent

#: The violation counts a checkpoint adds to, in report order.
CHECKS = (
    "mismatches", "stability_violations", "maximality_violations",
    "half_mu_violations", "answer_below_m0", "short_path_violations",
    "union_ratio_violations", "answer_matching_violations",
)


def _percentile(sorted_vals: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list: the smallest value with
    at least a q share of the values at or below it (0 for no values)."""
    if not sorted_vals:
        return 0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _check(
    pipe: Pipeline, before: dict, trigger_level: int | None
) -> tuple[dict[str, int], int]:
    """Make every check on `pipe` just after an update; return each check's
    violation count and mu(G).  `before` maps each level to a copy of its
    state taken just before the update."""
    inst = pipe.inst
    config = inst.config
    k = config.answer_depth()
    found = dict.fromkeys(CHECKS, 0)
    mu = max_matching_exact(config.n, inst.records.keys()).size
    ref = static_reference(inst.records.values(), inst.tapes, config)
    found["mismatches"] = int(pipe.snapshot() != ref)
    if trigger_level is not None:
        found["stability_violations"] = sum(
            before[i] != pipe.levels[i].state
            for i in range(trigger_level + 1, config.levels + 1)
        )
    covered = {v for key in pipe.base.matching for v in key}
    found["maximality_violations"] = int(any(
        u not in covered and v not in covered for u, v in inst.records
    ))
    m0 = len(pipe.base.matched) // 2
    answer = pipe.union.size()
    answer_edges = pipe.current_answer()
    union_edges = pipe.union.edges()
    mu_union = max_matching_exact(config.n, union_edges).size
    found["half_mu_violations"] = int(2 * m0 < mu)
    found["answer_below_m0"] = int(answer < m0)
    found["short_path_violations"] = int(
        has_short_augmenting_path(union_edges, answer_edges, 2 * k - 1)
    )
    found["union_ratio_violations"] = int(answer * (k + 1) < mu_union * k)
    endpoints = [v for key in answer_edges for v in key]
    found["answer_matching_violations"] = int(
        not answer_edges <= union_edges or len(endpoints) != len(set(endpoints))
    )
    return found, mu


def replay(
    events: Sequence[UpdateEvent],
    config: InstanceConfig,
    oracle_every: int = 100,
    metrics_path: str | Path | None = None,
) -> dict:
    """Feed events to the pipeline in order, checking every checkpoint (see
    the module docstring); return the summary dict.

    `oracle_every=0` turns checkpoints off.  A run the exact oracle cannot
    check (n above `DEFAULT_ORACLE_LIMIT` with checkpoints on) is refused
    before any event is replayed or written.  An event the engine rejects
    stops the replay with a `ReplayError` naming its sequence number.
    """
    if oracle_every < 0:
        raise ConfigError(
            f"oracle_every must be >= 0 (0 turns oracle checks off), got {oracle_every}"
        )
    if oracle_every and config.n > DEFAULT_ORACLE_LIMIT:
        raise OracleLimitError(
            f"n={config.n} exceeds the exact oracle limit {DEFAULT_ORACLE_LIMIT}; "
            "replay with oracle_every=0 (--oracle-every 0) to skip oracle checks"
        )
    inst = Instance(config)
    pipe = Pipeline(inst)

    out = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    times: list[int] = []
    adjusts: list[int] = []
    ratios: list[float] = []
    counts = dict.fromkeys(CHECKS, 0)
    first_failure: dict | None = None
    records = 0
    last_mu: int | None = None
    try:
        for ev in events:
            records += 1
            check = oracle_every and (
                records % oracle_every == 0 or records == len(events)
            )
            if check:
                before = {i: copy.deepcopy(ls.state) for i, ls in pipe.levels.items()}
            try:
                report = pipe.handle_update(ev.op, ev.u, ev.v)
            except DynMatchError as exc:
                raise ReplayError(ev.seq, str(exc)) from exc
            m0 = len(pipe.base.matched) // 2
            answer = pipe.union.size()
            mu = None
            ratio = None
            found = None
            if check:
                found, mu = _check(pipe, before, report.trigger_level)
                failed = [name for name in CHECKS if found[name]]
                for name in failed:
                    counts[name] += found[name]
                if failed and first_failure is None:
                    first_failure = {"seq": ev.seq, "checks": failed}
                ratio = answer / mu if mu else 1.0
                ratios.append(ratio)
                last_mu = mu
            times.append(report.elapsed_ns)
            adjusts.append(report.adjustment_complexity())
            if out is not None:
                sizes: dict[str, int] = {}
                for i, d in report.level_deltas:
                    sizes[str(i)] = sizes.get(str(i), 0) + d.size()
                rec = {
                    "seq": ev.seq,
                    "op": ev.op,
                    "u": ev.u,
                    "v": ev.v,
                    "m0": m0,
                    "answer": answer,
                    "mu": mu,
                    "ratio": ratio,
                    "m0_delta": report.adjustment_complexity(),
                    "level_deltas": sizes,
                    "lv_probe": report.candidate_probes,
                    "checks": found,
                    "ns": report.elapsed_ns,
                }
                out.write(json.dumps(rec) + "\n")
    finally:
        if out is not None:
            out.close()

    sorted_times = sorted(times)
    summary = {
        "events": records,
        "n": config.n,
        "delta": config.delta_cap,
        "levels": config.levels,
        "algo_seed": config.algo_seed,
        "final_m0": len(pipe.base.matched) // 2,
        "final_answer": pipe.union.size(),
        "final_mu": last_mu,
        # What each level adds on top of M_0, read once after the last event.
        "final_levels": {
            str(i): {"g_edges": len(ls.state.rank_of), "m_i": len(ls.state.matching)}
            for i, ls in pipe.levels.items()
        },
        "final_union_edges": len(pipe.union.mult),
        "mean_ns": sum(times) / len(times) if times else 0.0,
        "p50_ns": _percentile(sorted_times, 0.50),
        "p99_ns": _percentile(sorted_times, 0.99),
        "max_ns": sorted_times[-1] if sorted_times else 0,
        "mean_adjustment": sum(adjusts) / len(adjusts) if adjusts else 0.0,
        "max_adjustment": max(adjusts) if adjusts else 0,
        "min_ratio": min(ratios) if ratios else None,
        "final_ratio": ratios[-1] if ratios else None,
        "checkpoints": len(ratios),
        **counts,
        "first_failure": first_failure,
    }
    return summary


def write_summary(summary: dict, fh: TextIO) -> None:
    json.dump(summary, fh, indent=2, sort_keys=True)
    fh.write("\n")
