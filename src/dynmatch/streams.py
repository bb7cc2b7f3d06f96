"""Oblivious-adversary update streams.

A stream is materialized in full from its own seed before the algorithm draws
any randomness; generators keep a private mirror of the graph so that every
emitted event is replay-valid by construction (no duplicate inserts, no
deletes of absent edges, no degree-cap violations).
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .core import EdgeKey, edge_key
from .errors import ReplayError, StreamSpecError

GENERATORS = ("erdos-churn", "sliding-window", "clique-pm", "bipartite-churn")


@dataclass(frozen=True)
class UpdateEvent:
    op: str  # "ins" | "del"
    u: int
    v: int
    seq: int

    @property
    def key(self) -> EdgeKey:
        return edge_key(self.u, self.v)


@dataclass
class StreamSpec:
    generator: str
    n: int
    delta: int
    length: int
    seed: int
    params: dict = field(default_factory=dict)


class _Mirror:
    """Generator-private picture of the graph, for replay-valid sampling."""

    def __init__(self, n: int, delta: int):
        self.n = n
        self.delta = delta
        self.present: list[EdgeKey] = []
        self.slot: dict[EdgeKey, int] = {}
        self.deg = [0] * n

    def __len__(self) -> int:
        return len(self.present)

    def add(self, key: EdgeKey) -> None:
        self.slot[key] = len(self.present)
        self.present.append(key)
        self.deg[key[0]] += 1
        self.deg[key[1]] += 1

    def remove(self, key: EdgeKey) -> None:
        i = self.slot.pop(key)
        last = self.present.pop()
        if last != key:
            self.present[i] = last
            self.slot[last] = i
        self.deg[key[0]] -= 1
        self.deg[key[1]] -= 1

    def sample_absent(self, rng: random.Random, tries: int = 64) -> EdgeKey | None:
        for _ in range(tries):
            u = rng.randrange(self.n)
            v = rng.randrange(self.n)
            if u == v:
                continue
            key = edge_key(u, v)
            if key in self.slot:
                continue
            if self.deg[u] >= self.delta or self.deg[v] >= self.delta:
                continue
            return key
        return None

    def sample_absent_across(self, rng: random.Random) -> EdgeKey | None:
        """Like `sample_absent`, but only between the lower and upper half."""
        half = self.n // 2
        for _ in range(64):
            u = rng.randrange(half)
            v = half + rng.randrange(self.n - half)
            key = (u, v)
            if key in self.slot:
                continue
            if self.deg[u] >= self.delta or self.deg[v] >= self.delta:
                continue
            return key
        return None

    def sample_present(self, rng: random.Random) -> EdgeKey:
        return self.present[rng.randrange(len(self.present))]


def _target_edges(spec: StreamSpec) -> int:
    target = spec.params.get("target_edges", 2 * spec.n)
    if target < 0:
        raise StreamSpecError(
            f"{spec.generator} needs target_edges >= 0, got {target}"
        )
    return target


def _churn(
    spec: StreamSpec,
    rng: random.Random,
    sample_absent: Callable[[_Mirror, random.Random], EdgeKey | None],
) -> Iterator[UpdateEvent]:
    """Inserts drawn by `sample_absent` and uniform deletes, biased so the
    edge count drifts toward `target_edges`."""
    target = _target_edges(spec)
    mirror = _Mirror(spec.n, spec.delta)
    for seq in range(spec.length):
        cur = len(mirror)
        bias = 0.5 + 0.45 * (target - cur) / max(target, 1)
        key = None
        if cur == 0 or rng.random() < min(0.95, max(0.05, bias)):
            key = sample_absent(mirror, rng)
        if key is not None:
            mirror.add(key)
            yield UpdateEvent("ins", key[0], key[1], seq)
        else:
            key = mirror.sample_present(rng)
            mirror.remove(key)
            yield UpdateEvent("del", key[0], key[1], seq)


def _erdos_churn(spec: StreamSpec, rng: random.Random) -> Iterator[UpdateEvent]:
    return _churn(spec, rng, _Mirror.sample_absent)


def _sliding_window(spec: StreamSpec, rng: random.Random) -> Iterator[UpdateEvent]:
    window = spec.params.get("window", max(spec.n, 8))
    if window < 1:
        raise StreamSpecError(f"sliding-window needs window >= 1, got {window}")
    mirror = _Mirror(spec.n, spec.delta)
    history: list[UpdateEvent] = []
    for seq in range(spec.length):
        old = history[seq - window] if seq >= window else None
        if old is not None and old.op == "ins":
            key = old.key
            mirror.remove(key)
            ev = UpdateEvent("del", key[0], key[1], seq)
        else:
            key = mirror.sample_absent(rng, tries=256)
            if key is None:
                raise StreamSpecError(
                    "sliding-window could not place a fresh edge; "
                    "shrink the window or raise n/delta"
                )
            mirror.add(key)
            ev = UpdateEvent("ins", key[0], key[1], seq)
        history.append(ev)
        yield ev


def _clique_pm(spec: StreamSpec, rng: random.Random) -> Iterator[UpdateEvent]:
    """The worst-case family: a clique on the first half of the vertices plus
    a pendant perfect matching, then churn over clique edges only."""
    if spec.n % 2:
        raise StreamSpecError("clique-pm needs an even vertex count")
    if spec.n < 4:
        # The clique on n/2 = 1 vertex has no edge to churn.
        raise StreamSpecError("clique-pm needs n >= 4")
    half = spec.n // 2
    if spec.delta < half:
        raise StreamSpecError(
            f"clique-pm requires delta >= n/2 (clique degree is {half})"
        )
    build = [(i, j) for i in range(half) for j in range(i + 1, half)]
    build += [(i, i + half) for i in range(half)]
    rng.shuffle(build)
    seq = 0
    present = set()
    for u, v in build:
        present.add((u, v))
        yield UpdateEvent("ins", u, v, seq)
        seq += 1
    clique_present = [e for e in present if e[1] < half]
    clique_absent: list[EdgeKey] = []
    for _ in range(spec.length):
        if clique_absent and (not clique_present or rng.random() < 0.5):
            i = rng.randrange(len(clique_absent))
            key = clique_absent.pop(i)
            clique_present.append(key)
            yield UpdateEvent("ins", key[0], key[1], seq)
        else:
            i = rng.randrange(len(clique_present))
            key = clique_present.pop(i)
            clique_absent.append(key)
            yield UpdateEvent("del", key[0], key[1], seq)
        seq += 1


def _bipartite_churn(spec: StreamSpec, rng: random.Random) -> Iterator[UpdateEvent]:
    return _churn(spec, rng, _Mirror.sample_absent_across)


_DISPATCH = {
    "erdos-churn": _erdos_churn,
    "sliding-window": _sliding_window,
    "clique-pm": _clique_pm,
    "bipartite-churn": _bipartite_churn,
}


def generate_stream(spec: StreamSpec) -> list[UpdateEvent]:
    """Materialize the full event list for `spec`, deterministically."""
    if spec.generator not in _DISPATCH:
        raise StreamSpecError(f"unknown generator {spec.generator!r}")
    if spec.n < 2 or spec.delta < 1 or spec.length < 0:
        raise StreamSpecError("stream spec needs n >= 2, delta >= 1, length >= 0")
    rng = random.Random(spec.seed)
    return list(_DISPATCH[spec.generator](spec, rng))


def write_stream(events: Iterable[UpdateEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({"op": ev.op, "u": ev.u, "v": ev.v}) + "\n")


def read_stream(path: str | Path) -> list[UpdateEvent]:
    """Parse a JSONL stream file; a malformed line, or bytes that are not
    UTF-8, raise `ReplayError` naming the line number."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count line breaks as the line iteration below does.
        prefix = io.StringIO(data[: exc.start].decode("utf-8"), newline=None)
        seq = prefix.read().count("\n")
        raise ReplayError(seq, f"line {seq + 1}: not UTF-8 ({exc.reason})") from None
    events = []
    for seq, line in enumerate(io.StringIO(text, newline=None)):
        line = line.strip()
        if line:
            events.append(_parse_event(line, seq))
    return events


def _parse_event(line: str, seq: int) -> UpdateEvent:
    def bad(reason: str) -> ReplayError:
        return ReplayError(seq, f"line {seq + 1}: {reason}")

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad(f"bad JSON ({exc.msg})") from None
    except RecursionError:
        raise bad("bad JSON (nested too deeply)") from None
    except ValueError:
        # `int` refuses a literal above CPython's digit limit.
        raise bad("bad JSON (integer literal too long)") from None
    if not isinstance(obj, dict):
        raise bad("expected a JSON object")
    for name in ("op", "u", "v"):
        if name not in obj:
            raise bad(f"missing field {name!r}")
    if obj["op"] not in ("ins", "del"):
        raise bad(f"unknown op {obj['op']!r}")
    if type(obj["u"]) is not int or type(obj["v"]) is not int:
        raise bad("vertex ids must be integers")
    if obj["u"] < 0 or obj["v"] < 0:
        raise bad("vertex ids must be non-negative integers")
    return UpdateEvent(obj["op"], obj["u"], obj["v"], seq)
