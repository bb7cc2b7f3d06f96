"""Pin the whole per-update report sequence of two short seeded streams.

The perfbench digests pin only the final state, so an engine change that
reorders the step-3 level deletes and inserts, or the step-4 union calls,
could keep every final state and still change what each update reports.
These hashes cover every `UpdateReport` field except `elapsed_ns`, in the
order the updates ran.
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


@pytest.mark.parametrize(
    "spec, config, want",
    [
        (
            StreamSpec("erdos-churn", 300, 16, 3000, 15, {"target_edges": 600}),
            InstanceConfig(300, 16, 4, sample_p=0.12, algo_seed=16),
            "21ff21a0c2b9aec0133996d83bed0011ed61a4d2bd6f35bfc3c2340703c78654",
        ),
        (
            StreamSpec("clique-pm", 60, 30, 3000, 17),
            InstanceConfig(60, 30, 2, sample_p=0.12, algo_seed=18),
            "6b1a2f92a73e5d3456663c8a57f49106139a43e4b2f5f55bd208e51ff5c42a03",
        ),
    ],
    ids=["erdos-churn-L4", "clique-pm-L2"],
)
def test_report_sequence_matches_pinned_digest(spec, config, want):
    got, moving, with_levels = report_digest(spec, config)
    assert moving > 100 and with_levels > 50
    assert got == want
