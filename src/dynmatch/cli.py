"""Command-line entry point: stream generation, replay, validation suites.

`gen` writes a stream file, `run` replays one through the pipeline, and
`validate --suite S` runs one fixed suite from `dynmatch.suites`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import InstanceConfig
from .errors import ConfigError, DynMatchError
from .replay import CHECKS, replay, write_summary
from .streams import (
    GENERATORS,
    StreamSpec,
    UpdateEvent,
    iter_stream,
    read_stream,
    write_stream,
)
from .suites import SUITES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynmatch",
        description="Fully dynamic better-than-2-approximate matching engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an oblivious update stream")
    gen.add_argument("--generator", required=True, choices=GENERATORS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--delta", type=int, required=True)
    gen.add_argument("--len", dest="length", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0, help="adversary seed")
    gen.add_argument("--out", required=True)
    gen.add_argument("--target-edges", type=int, default=None)
    gen.add_argument("--window", type=int, default=None)

    run = sub.add_parser("run", help="replay a stream through the pipeline")
    run.add_argument("--stream", required=True)
    run.add_argument("--levels", type=int, required=True)
    run.add_argument("--delta", type=int, required=True)
    run.add_argument("--seed", type=int, default=0, help="algorithm seed")
    run.add_argument("--n", type=int, default=None,
                     help="vertex count (default: inferred from the stream)")
    run.add_argument("--sample-p", type=float, default=0.03)
    run.add_argument("--oracle-every", type=int, default=100)
    run.add_argument("--out", default=None, help="metrics JSONL path")
    run.add_argument("--summary", default=None, help="summary JSON path")

    val = sub.add_parser("validate", help="run a named validation suite")
    val.add_argument("--suite", required=True, choices=sorted(SUITES))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; an input or configuration the engine rejects, or
    a file that cannot be read or written, exits with status 2 and a
    one-line message on stderr."""
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (DynMatchError, OSError) as exc:
        print(f"dynmatch {args.command}: error: {exc}", file=sys.stderr)
        return 2


def _inferred_n(events: list[UpdateEvent]) -> int:
    """1 + the largest vertex id, refused above both 2^16 and four times the
    stream's distinct vertex count: construction sizes the per-vertex tables
    by n before the first event.  An explicit `--n` is checked only by
    `InstanceConfig.validate` (the 32-bit cap and the per-vertex memory
    budget)."""
    if not events:
        return 1
    top = max(events, key=lambda ev: max(ev.u, ev.v))
    n = 1 + max(top.u, top.v)
    distinct = len({w for ev in events for w in (ev.u, ev.v)})
    if n > max(1 << 16, 4 * distinct):
        raise ConfigError(
            f"line {top.seq + 1}: vertex id {n - 1} would set n = {n} for "
            f"{distinct} distinct vertices; pass --n to run it"
        )
    return n


def _run(args: argparse.Namespace) -> int:
    if args.command == "gen":
        params = {}
        if args.target_edges is not None:
            params["target_edges"] = args.target_edges
        if args.window is not None:
            params["window"] = args.window
        spec = StreamSpec(args.generator, args.n, args.delta, args.length,
                          args.seed, params)
        count = write_stream(iter_stream(spec), args.out)
        print(f"wrote {count} events to {args.out}")
        return 0

    if args.command == "run":
        events = read_stream(args.stream)
        n = args.n if args.n is not None else _inferred_n(events)
        config = InstanceConfig(
            n=n,
            delta_cap=args.delta,
            levels=args.levels,
            sample_p=args.sample_p,
            algo_seed=args.seed,
        )
        # Open the summary destination before the first event, so a bad path
        # fails before any work; a run that fails leaves no summary file.
        summary_fh = open(args.summary, "w", encoding="utf-8") if args.summary else None
        written = False
        try:
            summary = replay(
                events,
                config,
                oracle_every=args.oracle_every,
                metrics_path=args.out,
            )
            if summary_fh is not None:
                write_summary(summary, summary_fh)
            written = True
        finally:
            if summary_fh is not None:
                summary_fh.close()
                if not written:
                    os.unlink(args.summary)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 1 if any(summary[key] for key in CHECKS) else 0

    if args.command == "validate":
        report = SUITES[args.suite]()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report.get("passed") else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
