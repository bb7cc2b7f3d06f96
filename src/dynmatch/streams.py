"""Oblivious-adversary update streams.

A stream depends on its own seed alone, so it is fixed before the algorithm
draws any randomness; generators keep a private mirror of the graph so that
every emitted event is replay-valid by construction (no duplicate inserts,
no deletes of absent edges, no degree-cap violations).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .core import VERTEX_STATE_BUDGET, EdgeKey, InstanceConfig, edge_key
from .errors import ReplayError, StreamSpecError


@dataclass(frozen=True, slots=True)
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

    def sample_absent(
        self,
        rng: random.Random,
        pair: Callable[[random.Random, int], tuple[int, int]],
        tries: int = 64,
    ) -> EdgeKey | None:
        """An absent edge with room at both ends, from up to `tries` draws
        of `pair(rng, n)`; None when every draw misses."""
        for _ in range(tries):
            u, v = pair(rng, self.n)
            if u == v:
                continue
            key = edge_key(u, v)
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


def _any_pair(rng: random.Random, n: int) -> tuple[int, int]:
    return rng.randrange(n), rng.randrange(n)


def _across_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """A pair between the lower and the upper half of the vertices."""
    half = n // 2
    return rng.randrange(half), half + rng.randrange(n - half)


def _churn(
    spec: StreamSpec,
    rng: random.Random,
    pair: Callable[[random.Random, int], tuple[int, int]],
) -> Iterator[UpdateEvent]:
    """Inserts of absent edges drawn by `pair` and uniform deletes, biased
    so the edge count drifts toward `target_edges`."""
    target = _target_edges(spec)
    mirror = _Mirror(spec.n, spec.delta)
    for seq in range(spec.length):
        cur = len(mirror)
        bias = 0.5 + 0.45 * (target - cur) / max(target, 1)
        key = None
        if cur == 0 or rng.random() < min(0.95, max(0.05, bias)):
            key = mirror.sample_absent(rng, pair)
        if key is not None:
            mirror.add(key)
            yield UpdateEvent("ins", key[0], key[1], seq)
        else:
            key = mirror.sample_present(rng)
            mirror.remove(key)
            yield UpdateEvent("del", key[0], key[1], seq)


def _sliding_window(spec: StreamSpec, rng: random.Random) -> Iterator[UpdateEvent]:
    window = spec.params.get("window", max(spec.n, 8))
    if window < 1:
        raise StreamSpecError(f"sliding-window needs window >= 1, got {window}")
    mirror = _Mirror(spec.n, spec.delta)
    # The last `window` events; once full, its head is event seq - window.
    history: deque[UpdateEvent] = deque(maxlen=window)
    for seq in range(spec.length):
        old = history[0] if seq >= window else None
        if old is not None and old.op == "ins":
            key = old.key
            mirror.remove(key)
            ev = UpdateEvent("del", key[0], key[1], seq)
        else:
            key = mirror.sample_absent(rng, _any_pair, tries=256)
            if key is None:
                raise StreamSpecError(
                    "sliding-window could not place a fresh edge; "
                    "shrink the window or raise n/delta"
                )
            mirror.add(key)
            ev = UpdateEvent("ins", key[0], key[1], seq)
        history.append(ev)
        yield ev


#: Bytes one clique-pm build edge costs while the whole build is held (its
#: list slot, tuple and `present` entry).  The bound holds through the churn
#: too: the build list goes before the churn's clique list is built, and
#: `present` right after, so the end of the build is the generator's peak.
#: tracemalloc, CPython 3.11, peak over the whole stream: 177/184/186 B at
#: n = 1000/2000/4000.
_BUILD_EDGE_BYTES = 186


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
    # Refused before the build list exists; the check draws nothing.
    edges = half * (half - 1) // 2 + half
    if edges * _BUILD_EDGE_BYTES > VERTEX_STATE_BUDGET:
        raise StreamSpecError(
            f"clique-pm with n = {spec.n} builds {edges} edges, about "
            f"{edges * _BUILD_EDGE_BYTES} bytes, above the "
            f"{VERTEX_STATE_BUDGET}-byte budget"
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
    # The churn reads only the clique edges, in `present`'s iteration order,
    # which the stream depends on; the build list goes first, and the set
    # once they are copied out.
    del build
    clique_present = [e for e in present if e[1] < half]
    del present
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


_DISPATCH = {
    "erdos-churn": partial(_churn, pair=_any_pair),
    "sliding-window": _sliding_window,
    "clique-pm": _clique_pm,
    "bipartite-churn": partial(_churn, pair=_across_pair),
}

GENERATORS = tuple(_DISPATCH)


def iter_stream(spec: StreamSpec) -> Iterator[UpdateEvent]:
    """The events of `spec`, generated lazily and deterministically.

    The spec is checked here, before the first event: an unknown generator
    or a bad n, delta or length raise `StreamSpecError`, and a vertex count
    no engine instance admits (`InstanceConfig.validate`) a `ConfigError`.
    A generator's own checks run when it yields its first event.
    """
    if spec.generator not in _DISPATCH:
        raise StreamSpecError(f"unknown generator {spec.generator!r}")
    if spec.n < 2 or spec.delta < 1 or spec.length < 0:
        raise StreamSpecError("stream spec needs n >= 2, delta >= 1, length >= 0")
    InstanceConfig(spec.n, 1, 1).validate()
    return _DISPATCH[spec.generator](spec, random.Random(spec.seed))


def generate_stream(spec: StreamSpec) -> list[UpdateEvent]:
    """The full event list for `spec`: `iter_stream`, materialized."""
    return list(iter_stream(spec))


def write_stream(events: Iterable[UpdateEvent], path: str | Path) -> int:
    """Write `events` to `path` as JSONL, each as it comes, and return how
    many were written.  If the events or the writes fail part-way, the file
    is removed before the error propagates."""
    count = 0
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            for ev in events:
                fh.write(json.dumps({"op": ev.op, "u": ev.u, "v": ev.v}) + "\n")
                count += 1
    except BaseException:
        Path(path).unlink()
        raise
    return count


def read_stream(path: str | Path) -> list[UpdateEvent]:
    """Parse a JSONL stream file; a malformed line, or bytes that are not
    UTF-8, raise `ReplayError` naming the line number.

    The file is read one line at a time, in text mode with universal
    newlines, so "\n", "\r\n" and "\r" each end a line.  Bytes that are not
    UTF-8 decode to lone surrogates (`surrogateescape`), so a non-ASCII line
    is encoded back to its bytes and decoded strictly.  The line ends in
    "\n" then, so a multi-byte sequence cut short by the break is named as
    an invalid continuation byte.
    """
    events = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for seq, line in enumerate(fh):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ReplayError(
                        seq, f"line {seq + 1}: not UTF-8 ({exc.reason})"
                    ) from None
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
    # the op as a literal, so all events share two strings
    op = "ins" if obj["op"] == "ins" else "del"
    return UpdateEvent(op, obj["u"], obj["v"], seq)
