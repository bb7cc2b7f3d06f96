"""Recompute the state digests pinned in perfbench/digests.json.

Usage (from the repository root):

    python3 perfbench/pin_digests.py --seeds 32

Replays every workload's full stream for stream seeds 0..N-1 at the default
algorithm seed, untimed, and writes the digest of each final state.  The
digests turn "same behaviour" (identical M_0, roles, G_i/M_i, union multiset
and answer for a given stream and algorithm seed) into a check on every
benchmark run, so re-pin only in a change that means to alter that state.
"""

from __future__ import annotations

import argparse
import json

import run
from dynmatch.core import Instance
from dynmatch.pipeline import Pipeline


def digest_for(workload: str, seed: int, algo_seed: int) -> str:
    wl = run.WORKLOADS[workload]
    pipe = Pipeline(Instance(run.make_config(wl, algo_seed)))
    for op, u, v in run.make_events(wl, seed):
        pipe.handle_update(op, u, v)
    return run.state_digest(pipe)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=32, help="pin stream seeds 0..N-1")
    args = ap.parse_args()
    algo_seed = run.DEFAULT_ALGO_SEED
    pins = {
        name: {
            f"{seed}/{algo_seed}": digest_for(name, seed, algo_seed)
            for seed in range(args.seeds)
        }
        for name in run.WORKLOADS
    }
    run.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
