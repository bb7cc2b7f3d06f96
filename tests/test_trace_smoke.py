"""Smoke test for the benchmark's traced path.

`perfbench/spans.py` wraps engine methods by name; an engine change that
renames or removes one of them must fail here, not only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dynmatch.core import Instance, InstanceConfig
from dynmatch.pipeline import Pipeline
from dynmatch.streams import StreamSpec, generate_stream

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_tracer(monkeypatch):
    # read perfbench/ only: no bytecode cache is written next to spans.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_every_wrapped_span_records_calls(monkeypatch):
    events = generate_stream(
        StreamSpec("erdos-churn", 200, 16, 300, 91, {"target_edges": 400})
    )
    pipe = Pipeline(Instance(InstanceConfig(200, 16, 3, sample_p=0.12, algo_seed=92)))
    tracer = _load_tracer(monkeypatch)()
    tracer.attach(pipe)
    try:
        for step, ev in enumerate(events, 1):
            pipe.handle_update(ev.op, ev.u, ev.v)
            if step % 16 == 0:
                pipe.current_answer()
    finally:
        tracer.detach()
    summary = tracer.summary()
    assert "rgmm.base.neighbors_above" in tracer.names
    for name in tracer.names:
        assert summary[f"{name}.calls"][0] > 0, name
    assert summary["rgmm.base.neighbors_above.rows"][0] > 0
    # union calls share the update's answer delta, yet only the calls that
    # changed the answer count as effective
    assert 0 < summary["finalmatch.effective_share"][0] < 1
    # detach restored the engine's own methods
    assert "handle_update" not in vars(pipe)
    assert "neighbors_above" not in vars(pipe.base)
