"""The dynmatch benchmark: replay generated update streams through Pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse-levels --seed 1 --seconds 30 --trace 0

One client drives one Pipeline in a closed loop on one thread: it sends the
next update only after the previous `handle_update` returned, and times every
call from outside the engine.  A run replays the workload's stream in passes
(fresh Instance + Pipeline each) until `--seconds` of wall time have passed;
each operation's time is its median over the passes, and set-up time is
the median over passes.  Times are scaled to a nominal host speed (hostspeed.py).
Oracle and harness work (stream generation, exact mu, the static reference,
the state digest, writing spans) happens outside every timed region.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics; spans go to
`perfbench/out/<workload>.spans.npz`.  Either way the run fails (exit 1,
`"correct": false`) if the final state differs from the static reference,
the answer has a short augmenting path, the passes disagree, or the state
digest differs from the one pinned in `perfbench/digests.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"

#: Algorithm seed (ranks, coins) used unless `--algo-seed` is given; the
#: pinned digests are for this value.
DEFAULT_ALGO_SEED = 7
#: Measured updates between oracle checkpoints (plus one at the end).
CHECKPOINT_EVERY = 4000
#: Reads timed after each pass on workloads whose client does not read,
#: in bursts with a host-speed sample after each.
READ_PROBE = 2000
READ_BURST = 250
#: Events between host-speed samples.
CHUNK = 500
#: Untraced runs replay at least this many passes, so per-operation medians
#: have a majority to outvote a host hiccup.
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    """One generated stream plus the engine configuration that replays it.

    `prefix` events are the set-up phase (timed as `setup_s`, excluded from
    the update metrics).  `read_every` > 0 makes the client read the answer
    after every that many measured updates; 0 times `READ_PROBE` reads after
    the measured phase instead.
    """

    generator: str
    n: int
    delta: int
    length: int
    levels: int
    prefix: int
    read_every: int = 0
    sample_p: float | None = None
    params: dict = field(default_factory=dict)


# Why these three: see README.md.  For erdos-churn the prefix is one event per
# target edge, so the graph is still filling toward its target when the
# measured phase starts.
WORKLOADS = {
    # Deepest levels, highest sampling rate, and a client that reads: the
    # workload for pipeline and finalmatch changes.
    "sparse-levels": Workload(
        "erdos-churn", n=2000, delta=32, length=60_000, levels=4, prefix=4000,
        read_every=16, sample_p=0.12, params={"target_edges": 4000},
    ),
    # Base M_0 does almost all the work: the control for pipeline and
    # finalmatch changes.
    "dense-churn": Workload(
        "erdos-churn", n=400, delta=256, length=60_000, levels=2, prefix=16_000,
        params={"target_edges": 16_000},
    ),
    # The paper's worst case for greedy (|M_0| near mu/2), largest live state.
    # The prefix is the build phase: the clique on n/2 vertices plus the
    # pendant perfect matching, C(200, 2) + 200 = 20,100 inserts.
    "clique-pm": Workload(
        "clique-pm", n=400, delta=200, length=40_000, levels=2, prefix=20_100,
        sample_p=0.12,
    ),
}


def import_engine() -> None:
    """Import dynmatch from this checkout's `src`, never from elsewhere."""
    if not (SRC / "dynmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dynmatch sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dynmatch

    if Path(dynmatch.__file__).resolve().parent != (SRC / "dynmatch").resolve():
        sys.exit(f"perfbench: imported dynmatch from {dynmatch.__file__}, not {SRC}")


import_engine()
from dynmatch.core import Instance, InstanceConfig  # noqa: E402
from dynmatch.errors import DynMatchError  # noqa: E402
from dynmatch.exact import max_matching_exact  # noqa: E402
from dynmatch.pipeline import Pipeline  # noqa: E402
from dynmatch.reference import static_reference  # noqa: E402
from dynmatch.streams import StreamSpec, generate_stream  # noqa: E402
from dynmatch.suites import has_short_augmenting_path  # noqa: E402

# perfbench/ is on sys.path as the script's directory.
import hostspeed  # noqa: E402
from spans import Tracer  # noqa: E402


def make_config(wl: Workload, algo_seed: int) -> InstanceConfig:
    extra = {} if wl.sample_p is None else {"sample_p": wl.sample_p}
    return InstanceConfig(wl.n, wl.delta, wl.levels, algo_seed=algo_seed, **extra)


def make_events(wl: Workload, seed: int) -> list[tuple[str, int, int]]:
    """The stream as plain (op, u, v) tuples: the collector untracks tuples
    of atoms, so the stream adds nothing to the engine's gc pauses."""
    spec = StreamSpec(wl.generator, wl.n, wl.delta, wl.length, seed, dict(wl.params))
    return [(ev.op, ev.u, ev.v) for ev in generate_stream(spec)]


def state_digest(pipe: Pipeline) -> str:
    """sha256 over M_0, each G_i and M_i, the roles, the union multiset and
    the answer -- edge keys and role values only, no rank objects."""
    levels = sorted(pipe.levels)
    doc = {
        "m0": sorted(pipe.base.matching),
        "g": [sorted(pipe.levels[i].state.rank_of) for i in levels],
        "m": [sorted(pipe.levels[i].state.matching) for i in levels],
        "roles": [[r.value for r in pipe.role[i]] for i in levels],
        "union": sorted(pipe.union.mult.items()),
        "answer": sorted(pipe.union.matching()),
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def engine_counters(pipe: Pipeline) -> dict[str, int]:
    levels = [ls.state.counters for ls in pipe.levels.values()]
    return {
        "base_pops": pipe.base.counters["pops"],
        "base_scans": pipe.base.counters["scans"],
        "level_pops": sum(c["pops"] for c in levels),
        "level_scans": sum(c["scans"] for c in levels),
    }


@dataclass
class PassResult:
    """One replay.  Times are host-speed scaled (see hostspeed.py)."""

    setup_s: float
    busy_ns: float  # sum of update and interleaved read latencies
    update_ns: list[float]
    read_ns: list[float]
    raw_busy_ns: int  # busy_ns before scaling
    host_factor: float  # median scale factor of the measured phase
    attempted: int
    failed: int
    work: dict  # work counters; identical on every pass of one stream
    digest: str
    checkpoints: list[tuple[list, int, int]]  # (edge keys, |M_0|, |answer|)


def replay_pass(
    wl: Workload,
    config: InstanceConfig,
    events: list[tuple[str, int, int]],
    *,
    checkpoints: bool = False,
    tracer: Tracer | None = None,
) -> tuple[PassResult, Pipeline]:
    """Build a fresh engine, replay the prefix (set-up), then the measured phase.

    A host-speed sample is taken before every CHUNK events and after the
    last, outside the timed regions.
    """
    gc.collect()
    clock = time.perf_counter_ns
    attempted = failed = 0

    speed = [hostspeed.sample()]
    setup_ns = [0]
    t = clock()
    inst = Instance(config)
    pipe = Pipeline(inst)
    handle = pipe.handle_update
    for c0 in range(0, wl.prefix, CHUNK):
        for op, u, v in events[c0 : min(c0 + CHUNK, wl.prefix)]:
            attempted += 1
            try:
                handle(op, u, v)
            except DynMatchError:
                failed += 1
        setup_ns[-1] += clock() - t
        speed.append(hostspeed.sample())
        setup_ns.append(0)
        t = clock()
    setup_ns.pop()
    setup_s = sum(x * f for x, f in zip(setup_ns, hostspeed.factors(speed))) / 1e9

    if tracer is not None:
        tracer.attach(pipe)
    before = engine_counters(pipe)
    handle = pipe.handle_update
    read = pipe.current_answer
    read_every = wl.read_every
    update_ns: list[int] = []
    read_ns: list[int] = []
    marks: list[tuple[list, int, int]] = []
    roles = probes = adjust = adjust_max = answer_changes = 0
    triggers: dict = {}
    speed = [hostspeed.sample()]
    try:
        for i, (op, u, v) in enumerate(events[wl.prefix :], 1):
            if i % CHUNK == 1 and i > CHUNK:
                speed.append(hostspeed.sample())
            attempted += 1
            t = clock()
            try:
                report = handle(op, u, v)
            except DynMatchError:
                update_ns.append(clock() - t)
                failed += 1
                continue
            update_ns.append(clock() - t)
            if read_every and i % read_every == 0:
                t = clock()
                read()
                read_ns.append(clock() - t)
            roles += report.role_changes
            probes += report.candidate_probes
            size = report.adjustment_complexity()
            adjust += size
            adjust_max = max(adjust_max, size)
            answer_changes += report.answer_delta.size()
            triggers[report.trigger_level] = triggers.get(report.trigger_level, 0) + 1
            if checkpoints and i % CHECKPOINT_EVERY == 0:
                marks.append((list(inst.records), len(pipe.base.matching), pipe.union.size()))
        speed.append(hostspeed.sample())
        update_chunks = len(speed) - 1
        if not read_every:
            for _ in range(READ_PROBE // READ_BURST):
                for _ in range(READ_BURST):
                    t = clock()
                    read()
                    read_ns.append(clock() - t)
                speed.append(hostspeed.sample())
    finally:
        if tracer is not None:
            tracer.detach()
    if checkpoints:
        marks.append((list(inst.records), len(pipe.base.matching), pipe.union.size()))

    after = engine_counters(pipe)
    work = {k: after[k] - before[k] for k in after}
    work.update(
        role_changes=roles, candidate_probes=probes,
        adjustment_sum=adjust, adjustment_max=adjust_max,
        answer_changes=answer_changes,
        triggers=triggers,
        level_edges=sum(len(ls.state.rank_of) for ls in pipe.levels.values()),
        union_edges=len(pipe.union.mult),
    )
    raw_busy = sum(update_ns) + (sum(read_ns) if read_every else 0)
    scale = hostspeed.factors(speed)
    update_ns = [x * scale[i // CHUNK] for i, x in enumerate(update_ns)]
    if read_every:
        read_ns = [x * scale[((k + 1) * read_every - 1) // CHUNK] for k, x in enumerate(read_ns)]
    else:
        read_ns = [x * scale[update_chunks + k // READ_BURST] for k, x in enumerate(read_ns)]
    busy = sum(update_ns) + (sum(read_ns) if read_every else 0)
    result = PassResult(
        setup_s, busy, update_ns, read_ns, raw_busy, statistics.median(scale),
        attempted, failed, work,
        state_digest(pipe), marks,
    )
    return result, pipe


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return float(sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)])


class Gate:
    """Collects correctness failures; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def oracle_checks(
    gate: Gate, wl: Workload, config: InstanceConfig, pipe: Pipeline, first: PassResult
) -> dict[str, float]:
    """Checkpoint ratios against exact mu, then the final-state gate."""
    t = time.perf_counter()
    answer_ratios, m0_ratios = [], []
    for keys, m0, answer in first.checkpoints:
        mu = max_matching_exact(wl.n, keys, limit=wl.n).size
        if mu:
            answer_ratios.append(answer / mu)
            m0_ratios.append(m0 / mu)
    exact_ms = (time.perf_counter() - t) * 1e3

    t = time.perf_counter()
    ref = static_reference(pipe.inst.records.values(), pipe.inst.tapes, config)
    reference_s = time.perf_counter() - t
    gate.check(pipe.snapshot() == ref, "pipeline state equals the static reference")

    union_edges = pipe.union.edges()
    answer = pipe.current_answer()
    endpoints = [v for key in answer for v in key]
    gate.check(
        answer <= union_edges and len(endpoints) == len(set(endpoints)),
        "answer is a matching inside the union graph",
    )
    max_len = 2 * config.answer_depth() - 1
    gate.check(
        not has_short_augmenting_path(union_edges, answer, max_len),
        f"answer has no augmenting path of length <= {max_len}",
    )
    return {
        "answer_ratio": min(answer_ratios),
        "m0_ratio": min(m0_ratios),
        "exact_ms": exact_ms,
        "reference_s": reference_s,
    }


def check_passes(gate: Gate, passes: list[PassResult], pinned: str | None) -> None:
    first = passes[0]
    for p in passes[1:]:
        gate.check(p.digest == first.digest, "every pass ends in the same state digest")
        gate.check(p.work == first.work, "every pass does the same work")
    if pinned is not None:
        gate.check(first.digest == pinned, f"state digest {first.digest} equals pinned {pinned}")
    gate.check(all(p.failed == 0 for p in passes), "no update raised")


def pinned_digest(workload: str, seed: int, algo_seed: int) -> str | None:
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return pins.get(workload, {}).get(f"{seed}/{algo_seed}")


def updates_per_s(p: PassResult) -> float:
    return len(p.update_ns) / (p.busy_ns / 1e9)


def per_op_median(series: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes, ascending.

    Every pass replays the same operations on the same states, so the
    engine's own costs (gc pauses included) recur in every pass, while a
    host hiccup hits one pass at random and drops out of the median.
    """
    return sorted(statistics.median(xs) for xs in zip(*series))


def end_to_end(
    wl: Workload, passes: list[PassResult], quality: dict, peak_rss_mb: float
) -> dict:
    lat = per_op_median([p.update_ns for p in passes])
    reads = per_op_median([p.read_ns for p in passes])
    busy = sum(lat) + (sum(reads) if wl.read_every else 0)
    # Every workload measures >= 40k updates, so at least 40 samples lie
    # beyond p99.9.
    return {
        "updates_per_s": (len(lat) / busy * 1e9, "1/s"),
        "update_p50_us": (percentile(lat, 0.50) / 1e3, "us"),
        "update_p99_us": (percentile(lat, 0.99) / 1e3, "us"),
        "update_p999_us": (percentile(lat, 0.999) / 1e3, "us"),
        "read_p50_us": (percentile(reads, 0.50) / 1e3, "us"),
        "read_p99_us": (percentile(reads, 0.99) / 1e3, "us"),
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "answer_ratio": (quality["answer_ratio"], "ratio"),
    }


def per_layer(
    untraced: list[PassResult], traced: list[PassResult], summaries: list[dict],
    level_inserts: int, quality: dict, generate_s: float,
) -> dict:
    """Span figures (median over traced passes) plus work counters and harness time."""
    work = untraced[0].work
    out = {
        key: (statistics.median(s[key][0] for s in summaries), unit)
        for key, (_, unit) in summaries[0].items()
    }
    measured = len(untraced[0].update_ns)
    triggers = work["triggers"]
    probes = work["candidate_probes"]
    out.update({
        "rgmm.base.cascade_pops": (work["base_pops"], "count"),
        "rgmm.base.scans": (work["base_scans"], "count"),
        "rgmm.base.adjustment_mean": (work["adjustment_sum"] / measured, "edges"),
        "rgmm.base.adjustment_max": (work["adjustment_max"], "edges"),
        "rgmm.m0_ratio": (quality["m0_ratio"], "ratio"),
        "rgmm.level.scans": (work["level_scans"], "count"),
        "rgmm.level.pops": (work["level_pops"], "count"),
        "pipeline.role_changes": (work["role_changes"], "count"),
        "pipeline.candidate_probes": (probes, "count"),
        "pipeline.probe_yield": (
            level_inserts / probes if probes else 0.0, "ratio"),
        "pipeline.trigger_level.none": (triggers.get(None, 0), "count"),
        **{
            f"pipeline.trigger_level.{i}": (triggers.get(i, 0), "count")
            for i in range(1, 5)
        },
        "pipeline.level_edges": (work["level_edges"], "count"),
        "finalmatch.answer_changes": (work["answer_changes"], "count"),
        "finalmatch.union_edges": (work["union_edges"], "count"),
        "streams.generate_s": (generate_s, "s"),
        "exact.max_matching.ms": (quality["exact_ms"], "ms"),
        "reference.static_reference_s": (quality["reference_s"], "s"),
        "trace.overhead_pct": (
            (statistics.median(updates_per_s(p) for p in untraced)
             / statistics.median(updates_per_s(p) for p in traced) - 1) * 100, "%"),
    })
    return out


def run(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    config = make_config(wl, args.algo_seed)
    gate = Gate()

    t = time.perf_counter()
    events = make_events(wl, args.seed)
    generate_s = time.perf_counter() - t

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    summaries: list[dict] = []
    tracer = pipe = None
    deadline = time.perf_counter() + args.seconds
    while (
        time.perf_counter() < deadline
        or (args.trace and not traced)
        or (not args.trace and len(untraced) < MIN_PASSES)
    ):
        # Drop the previous engine first, so peak RSS is one engine's worth.
        pipe = None
        p, pipe = replay_pass(wl, config, events, checkpoints=not untraced)
        untraced.append(p)
        if args.trace:
            pipe = None
            tracer = Tracer()
            tp, pipe = replay_pass(wl, config, events, tracer=tracer)
            traced.append(tp)
            summaries.append(tracer.summary())
            level_inserts = tracer.rebuild_level_inserts()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    check_passes(gate, passes, pinned_digest(args.workload, args.seed, args.algo_seed))
    quality = oracle_checks(gate, wl, config, pipe, untraced[0])

    if args.trace:
        metrics = per_layer(untraced, traced, summaries, level_inserts, quality, generate_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}.spans.npz")
    else:
        metrics = end_to_end(wl, untraced, quality, peak_rss_mb)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(
        f"# {args.workload} seed={args.seed} algo_seed={args.algo_seed} "
        f"passes={len(untraced)}+{len(traced)} digest={untraced[0].digest}\n"
        f"# unscaled updates_per_s={statistics.median(len(p.update_ns) / p.raw_busy_ns * 1e9 for p in untraced):.6g} "
        f"host_factor={statistics.median(p.host_factor for p in untraced):.4g}"
    )
    result = {
        "correct": not gate.failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not gate.failures else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="stream seed")
    ap.add_argument("--algo-seed", type=int, default=DEFAULT_ALGO_SEED,
                    help="algorithm seed (ranks and coins)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="start passes until this much wall time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
