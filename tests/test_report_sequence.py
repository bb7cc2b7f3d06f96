"""Pin the whole per-update report sequence of two short seeded streams.

The perfbench digests pin only the final state, so an engine change that
reorders the step-3 level deletes and inserts, or the step-4 union calls,
could keep every final state and still change what each update reports.
These hashes cover every `UpdateReport` field except `elapsed_ns`, in the
order the updates ran.

A second pin covers the work counters: perfbench checks only that its passes
agree with each other, so a leaner cascade or scan that counted `pops` or
`scans` differently would pass it unnoticed.
"""

import dataclasses
import hashlib

import pytest

from dynmatch.core import Instance, InstanceConfig
from dynmatch.pipeline import Pipeline, UpdateReport
from dynmatch.rgmm import DeltaList
from dynmatch.streams import StreamSpec, generate_stream

FIELDS = [f.name for f in dataclasses.fields(UpdateReport) if f.name != "elapsed_ns"]


def _plain(value):
    """A value's comparable form: a delta is its two lists, whatever their
    container (the shared empty delta holds tuples)."""
    if isinstance(value, DeltaList):
        return (list(value.left), list(value.joined))
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    return value


def report_digest(spec: StreamSpec, config: InstanceConfig) -> tuple[str, int, int]:
    """sha256 over every report's fields, then the number of updates that
    moved M_0 and the number of those that also moved a level matching (so
    the streams are known to exercise steps 2-4)."""
    pipe = Pipeline(Instance(config))
    digest = hashlib.sha256()
    moving = with_levels = 0
    for ev in generate_stream(spec):
        report = pipe.handle_update(ev.op, ev.u, ev.v)
        row = tuple(_plain(getattr(report, name)) for name in FIELDS)
        digest.update(repr(row).encode())
        if report.base_delta:
            moving += 1
            with_levels += bool(report.level_deltas)
    return digest.hexdigest(), moving, with_levels


STREAMS = [
    (
        StreamSpec("erdos-churn", 300, 16, 3000, 15, {"target_edges": 600}),
        InstanceConfig(300, 16, 4, sample_p=0.12, algo_seed=16),
    ),
    (
        StreamSpec("clique-pm", 60, 30, 3000, 17),
        InstanceConfig(60, 30, 2, sample_p=0.12, algo_seed=18),
    ),
]
IDS = ["erdos-churn-L4", "clique-pm-L2"]


@pytest.mark.parametrize(
    "stream, want",
    zip(
        STREAMS,
        [
            "21ff21a0c2b9aec0133996d83bed0011ed61a4d2bd6f35bfc3c2340703c78654",
            "6b1a2f92a73e5d3456663c8a57f49106139a43e4b2f5f55bd208e51ff5c42a03",
        ],
    ),
    ids=IDS,
)
def test_report_sequence_matches_pinned_digest(stream, want):
    got, moving, with_levels = report_digest(*stream)
    assert moving > 100 and with_levels > 50
    assert got == want


def counter_digest(spec: StreamSpec, config: InstanceConfig) -> str:
    """sha256 over each update's answer-delta sizes, then the final base and
    level `counters` (`pops`, `scans`)."""
    pipe = Pipeline(Instance(config))
    digest = hashlib.sha256()
    for ev in generate_stream(spec):
        delta = pipe.handle_update(ev.op, ev.u, ev.v).answer_delta
        digest.update(repr((len(delta.left), len(delta.joined))).encode())
    final = [sorted(pipe.base.counters.items())]
    final += [sorted(ls.state.counters.items()) for _, ls in sorted(pipe.levels.items())]
    digest.update(repr(final).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "stream, want",
    zip(
        STREAMS,
        [
            "a43512b6d16eb08bc15a5454fd6e81bda3772503c11fecfffe5c8551a93a6c9e",
            "e914c768d2a7d8b7dacfcb9caab51cdeec77bf27d338cd279e4a3bc05f23cd83",
        ],
    ),
    ids=IDS,
)
def test_work_counters_match_pinned_digest(stream, want):
    assert counter_digest(*stream) == want
