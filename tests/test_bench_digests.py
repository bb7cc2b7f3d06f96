"""The benchmark's pinned end states, checked with the tests.

`perfbench/run.py` fails a run whose final engine state hashes to another
digest than the one pinned in `perfbench/digests.json`.  This test replays
each workload's seed-1 stream, untimed, and checks the same digest, so a
change that moves any maintained state fails here and not only in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dynmatch.core import Instance
from dynmatch.pipeline import Pipeline

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench(monkeypatch):
    # read perfbench/ only: no bytecode cache is written next to its modules
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_ends_in_its_pinned_state(monkeypatch):
    bench = _load_bench(monkeypatch)
    seed, algo_seed = 1, bench.DEFAULT_ALGO_SEED
    got, pinned = {}, {}
    for name, wl in bench.WORKLOADS.items():
        pipe = Pipeline(Instance(bench.make_config(wl, algo_seed)))
        for op, u, v in bench.make_events(wl, seed):
            pipe.handle_update(op, u, v)
        got[name] = bench.state_digest(pipe)
        pinned[name] = bench.pinned_digest(name, seed, algo_seed)
    assert None not in pinned.values()
    assert got == pinned
