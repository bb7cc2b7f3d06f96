"""Replay an update stream through the pipeline and collect metrics.

Metrics are one JSON object per update (append-only, parseable on their own);
the summary aggregates timing and quality figures.  Wall-clock fields aside,
a replay is a pure function of (stream, algo config).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .core import Instance, InstanceConfig
from .errors import ConfigError, DynMatchError, OracleLimitError, ReplayError
from .exact import DEFAULT_ORACLE_LIMIT, max_matching_exact
from .pipeline import Pipeline
from .streams import UpdateEvent


def _percentile(sorted_vals: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list: the smallest value with
    at least a q share of the values at or below it (0 for no values)."""
    if not sorted_vals:
        return 0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def replay(
    events: Iterable[UpdateEvent],
    config: InstanceConfig,
    oracle_every: int = 100,
    metrics_path: str | Path | None = None,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> dict:
    """Feed events to the pipeline in order; return the summary dict.

    A run the exact oracle cannot check (n above `oracle_limit` with oracle
    checkpoints on) is refused before any event is replayed or written.  An
    event the engine rejects stops the replay with a `ReplayError` naming
    its sequence number.
    """
    if oracle_every < 0:
        raise ConfigError(
            f"oracle_every must be >= 0 (0 turns oracle checks off), got {oracle_every}"
        )
    if oracle_every and config.n > oracle_limit:
        raise OracleLimitError(
            f"n={config.n} exceeds the exact oracle limit {oracle_limit}; "
            "replay with oracle_every=0 (--oracle-every 0) to skip oracle checks"
        )
    inst = Instance(config)
    pipe = Pipeline(inst)

    out = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    times: list[int] = []
    adjusts: list[int] = []
    ratios: list[float] = []
    records = 0
    last = {"m0": 0, "answer": 0}
    last_mu: int | None = None
    try:
        for ev in events:
            try:
                report = pipe.handle_update(ev.op, ev.u, ev.v)
            except DynMatchError as exc:
                raise ReplayError(ev.seq, str(exc)) from exc
            records += 1
            m0 = len(pipe.base.matched) // 2
            answer = pipe.union.size()
            mu = None
            ratio = None
            if oracle_every and records % oracle_every == 0:
                mu = max_matching_exact(config.n, inst.records, limit=oracle_limit).size
                ratio = answer / mu if mu else 1.0
                ratios.append(ratio)
                last_mu = mu
            times.append(report.elapsed_ns)
            adjusts.append(report.adjustment_complexity())
            last = {"m0": m0, "answer": answer}
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
        "final_m0": last["m0"],
        "final_answer": last["answer"],
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
    }
    return summary


def write_summary(summary: dict, fh: TextIO) -> None:
    json.dump(summary, fh, indent=2, sort_keys=True)
    fh.write("\n")
