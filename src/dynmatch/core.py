"""Dynamic graph storage: fixed vertex universe, edge identity, random tapes, ranks.

Every piece of per-edge and per-vertex randomness used anywhere in the engine
is drawn here, exactly once per edge arrival (or once per vertex at instance
construction), so that replaying the same update stream with the same seed
reproduces the identical execution bit for bit.

A rank is one plain int, `value << 64 | lo << 32 | hi`: a 64-bit random value
followed by the edge key (lo, hi) as a tie-break in two 32-bit fields.  Int
order is then exactly the lexicographic order of (value, lo, hi), a rank
comparison is one int comparison, and ranks are never tracked by the cyclic
garbage collector.  The 32-bit tie fields cap the vertex universe at
n <= 2^32 - 1 (`MAX_VERTICES`).

The level boundaries t_i = delta^(-i/L) split rank space into L half-open
intervals, and `Instance.level_of_rank` is the engine's one lookup of a
rank's level (`Pipeline.update_roles` inlines it); the static reference
keeps its own scan, `reference.level_by_scan`.

An edge's draws live in one `EdgeRecord`, a named tuple built once per
insert.  The cyclic collector untracks its key and rank tuple at its first
pass over them, since they hold only ints, but never the record itself
(see its docstring).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    CapacityError,
    ConfigError,
    DuplicateEdgeError,
    EdgeNotFoundError,
    LoopEdgeError,
)

# Rank values live in [0, 2^64) and are read as value / 2^64, i.e. a fixed-point
# fraction in [0, 1).  Ties between equal values are broken by the edge key, so
# the order over distinct edges is always total.
RANK_SCALE = 2**64

#: Largest vertex universe: a vertex id must fit one 32-bit tie-break field.
MAX_VERTICES = 2**32 - 1

#: Largest level count L (see `InstanceConfig`).
MAX_LEVELS = 64

#: Budget, in bytes, for the per-vertex tables that `Instance` and `Pipeline`
#: build before the first event: an 8-byte slot in each of L + 3 lists, each
#: allocated at its exact length, 4 bytes of room for the fixed-size state
#: and, above L = 8, the tape's own int (at most 40 bytes for 64 bits): at
#: most 28 + 8 L (+ 40 when L > 8) bytes.  tracemalloc, CPython 3.11, the same
#: at n = 10^5 and n = 100117: 32.1/40.1/56.1/88.1/574.1 B at L = 1/2/4/8/64.
VERTEX_STATE_BUDGET = 2**30

EdgeKey = tuple[int, int]

#: A packed rank, `value << 64 | lo << 32 | hi` (see the module docstring).
Rank = int


def make_rank(value: int, lo: int, hi: int) -> Rank:
    """Pack a rank value and its edge-key tie-break into one int."""
    return value << 64 | lo << 32 | hi


def key_of(rank: Rank) -> EdgeKey:
    """The edge key (lo, hi) that `rank` packs: the inverse of `make_rank`
    on the tie-break fields, so a rank names its edge."""
    return rank >> 32 & 0xFFFFFFFF, rank & 0xFFFFFFFF


#: Sentinel matched-rank for unmatched / absent vertices ("k(v) = 1"): the
#: largest value with a tie-break above every real edge key.
UNMATCHED_RANK = (RANK_SCALE - 1) << 64 | (RANK_SCALE - 1)

#: Threshold below every real rank (used as "alpha = 0").
ZERO_RANK = -1


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered pair (lo, hi).  Rejects self-loops."""
    if u == v:
        raise LoopEdgeError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def threshold_rank(fraction: float) -> Rank:
    """A rank boundary at `fraction`, floored into 64-bit rank space.

    The tiebreak is maximal, so `r > threshold` holds exactly when r's value
    is strictly larger -- real ranks equal to the boundary value fall below
    it, matching the half-open interval convention of the level partition.
    """
    value = min(int(fraction * RANK_SCALE), RANK_SCALE)
    return value << 64 | (RANK_SCALE - 1)


def thresholds_for(delta_cap: int, levels: int) -> list[Rank]:
    """Level boundaries t_0 = 1 > t_1 > ... > t_L, with t_i = delta^(-i/L)."""
    return [threshold_rank(delta_cap ** (-i / levels)) for i in range(levels + 1)]


class EdgeRecord(NamedTuple):
    """All randomness attached to one arrival of an edge.

    `ranks[i]` is the edge's rank in ranking pi_i (0 = base graph, 1..L =
    second-stage graphs); bit i-1 of `sampled` is the level-i sampling
    coin.  Re-inserting a deleted edge produces a fresh record.

    A named tuple rather than a frozen dataclass: every insert builds one
    record, and a named tuple is built in about 55% of the time of a frozen
    slotted dataclass, whose `__init__` sets each field through
    `object.__setattr__` (timeit, CPython 3.11).  A field read costs about
    twice as much, and the insert path reads two.  The collector still
    tracks every record: CPython untracks exact tuples only, never a tuple
    subclass, so `gc.is_tracked(record)` stays true after any number of
    collections.
    """

    key: EdgeKey
    ranks: tuple[Rank, ...]
    sampled: int


@dataclass(frozen=True)
class InstanceConfig:
    """Static parameters of one engine instance.

    delta_cap is a declared capacity: insertions that would push a degree
    beyond it are rejected, and the level thresholds are computed once from
    it.  levels = L sets the granularity eps = 1/L and the final matcher's
    augmenting-path depth k = L + 1.

    L is capped at `MAX_LEVELS`.  The final matcher's search recurses about
    k deep and its work grows exponentially in k, so a large L exhausts the
    interpreter's stack or never finishes; the paper's L = 1/eps is a small
    constant, and no setting it is meant for comes near the cap.
    """

    n: int
    delta_cap: int
    levels: int
    sample_p: float = 0.03
    algo_seed: int = 0

    def validate(self) -> None:
        if self.n <= 0:
            raise ConfigError("vertex count must be positive")
        if self.n > MAX_VERTICES:
            raise ConfigError(
                f"vertex count {self.n} exceeds {MAX_VERTICES}, the largest "
                "universe a rank's 32-bit tie-break fields can key"
            )
        if not 1 <= self.delta_cap <= MAX_VERTICES:
            # Above MAX_VERTICES the cap bounds nothing (no degree exceeds
            # n - 1), and the float level thresholds would overflow.
            raise ConfigError(f"delta_cap must lie in [1, {MAX_VERTICES}]")
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ConfigError(
                f"levels must lie in [1, {MAX_LEVELS}], got {self.levels}"
            )
        need = self.n * (28 + 8 * self.levels + (40 if self.levels > 8 else 0))
        if need > VERTEX_STATE_BUDGET:
            raise ConfigError(
                f"vertex count {self.n} at levels {self.levels} needs about "
                f"{need} bytes of per-vertex state, above the "
                f"{VERTEX_STATE_BUDGET}-byte budget"
            )
        if not 0.0 < self.sample_p < 0.125:
            raise ConfigError("sample_p must lie in (0, 1/8)")

    def answer_depth(self) -> int:
        """Augmenting-path search depth k of the final matcher."""
        return self.levels + 1


class Instance:
    """A dynamic graph over a fixed vertex universe plus its random tapes.

    Single-writer: all mutating calls must come from one thread of control.
    """

    def __init__(self, config: InstanceConfig):
        config.validate()
        self.config = config
        self.thresholds = thresholds_for(config.delta_cap, config.levels)
        #: The inner level boundaries t_{L-1} < ... < t_1, ascending, for the
        #: per-update level lookups: `bisect_left(bounds, rank)` counts the
        #: boundaries strictly below `rank`, so a rank equal to a boundary
        #: falls below it, as the half-open level intervals require.
        self.bounds = self.thresholds[-2:0:-1]
        self._rng = random.Random(config.algo_seed)
        # Vertex tapes are static, so they are drawn up front in index order:
        # bit i-1 of tapes[v] is the level-i partition coin (0 = A, 1 = B).
        # The list is allocated at its exact length and then filled; a
        # comprehension would over-allocate it by up to 1/8.
        draw, levels = self._rng.getrandbits, range(config.levels)
        tapes = self.tapes = [0] * config.n
        for v in range(config.n):
            tapes[v] = sum(draw(1) << i for i in levels)
        self.records: dict[EdgeKey, EdgeRecord] = {}
        self.deg: list[int] = [0] * config.n

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def levels(self) -> int:
        return self.config.levels

    def level_of_rank(self, rank: Rank) -> int:
        """Level index in [1..L] whose rank interval contains `rank`, by
        bisecting `bounds`: level i < L owns (t_i, t_{i-1}], and level L
        owns [0, t_{L-1}]."""
        return self.config.levels - bisect_left(self.bounds, rank)

    def alpha_for_level(self, level: int) -> Rank:
        """Lower rank bound of partition S_level (zero for the last level)."""
        if level >= self.config.levels:
            return ZERO_RANK
        return self.thresholds[level]

    # -- updates ---------------------------------------------------------

    def admit_edge(self, u: int, v: int) -> EdgeRecord:
        """Insert edge {u, v}, drawing its randomness upon arrival.

        Refusals come in a fixed order, all before the first draw: self-loop,
        u out of range, v out of range, duplicate, degree above the cap.  The
        checks and the key canonicalisation are inlined rather than calls to
        `edge_key`, since this runs once per insert.  The draws are L + 1
        rank values, then L coins.
        """
        config, records, deg, rng = self.config, self.records, self.deg, self._rng
        n = config.n
        if u == v:
            raise LoopEdgeError(f"self-loop at vertex {u}")
        if not 0 <= u < n:
            raise ConfigError(f"vertex {u} outside universe [0, {n})")
        if not 0 <= v < n:
            raise ConfigError(f"vertex {v} outside universe [0, {n})")
        lo, hi = key = (u, v) if u < v else (v, u)
        if key in records:
            raise DuplicateEdgeError(f"edge {key} already present")
        cap = config.delta_cap
        if deg[u] >= cap or deg[v] >= cap:
            raise CapacityError(
                f"inserting {key} would exceed the declared degree bound {cap}"
            )
        tie = lo << 32 | hi
        draw, levels = rng.getrandbits, config.levels
        ranks = tuple([draw(64) << 64 | tie for _ in range(levels + 1)])
        rand, p = rng.random, config.sample_p
        sampled = 0
        for i in range(levels):
            if rand() < p:
                sampled |= 1 << i
        records[key] = record = EdgeRecord(key, ranks, sampled)
        deg[lo] += 1
        deg[hi] += 1
        return record

    def retire_edge(self, u: int, v: int) -> EdgeRecord:
        """Remove edge {u, v} and hand back its record for the update cascade."""
        key = edge_key(u, v)
        record = self.records.pop(key, None)
        if record is None:
            raise EdgeNotFoundError(f"edge {key} not present")
        self.deg[key[0]] -= 1
        self.deg[key[1]] -= 1
        return record
