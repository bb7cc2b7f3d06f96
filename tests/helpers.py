"""Brute-force oracles shared by the test modules."""

from __future__ import annotations

import random

from dynmatch.core import RANK_SCALE, UNMATCHED_RANK, Rank, edge_key, make_rank
from dynmatch.reference import greedy_snapshot
from dynmatch.replay import CHECKS
from dynmatch.rgmm import MatchingState


def brute_max_matching(n: int, edges) -> int:
    """Exponential search with pruning; the ground truth for small graphs."""
    edges = sorted(edges)
    best = 0

    def rec(i: int, used: frozenset, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == len(edges) or size + len(edges) - i <= best:
            return
        u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, size + 1)
        rec(i + 1, used, size)

    rec(0, frozenset(), 0)
    return best


def random_stream(rng: random.Random, n: int, steps: int, delete_p: float = 0.4):
    """Yield ('ins'|'del', key, rank) events over an n-vertex universe with
    fresh ranks on every arrival, tracking presence for validity."""
    present: dict = {}
    for _ in range(steps):
        if present and rng.random() < delete_p:
            key = rng.choice(sorted(present))
            del present[key]
            yield "del", key, None
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or edge_key(u, v) in present:
                continue
            key = edge_key(u, v)
            rank = make_rank(rng.getrandbits(64), *key)
            present[key] = rank
            yield "ins", key, rank


def insert_all(edges) -> MatchingState:
    """A maintained greedy matching built by inserting (key, rank) pairs in
    the given order."""
    state = MatchingState()
    for key, rank in edges:
        state.apply_insert(key, rank)
    return state


def assert_is_greedy(state: MatchingState, edges: dict) -> None:
    """`state` is the greedy matching of `edges` (key -> rank): its snapshot
    equals the reference greedy's, and its index and per-vertex matched edges
    are exactly those the edge set and that matching fix."""
    n = 1 + max((key[1] for key in edges), default=-1)
    want = greedy_snapshot(dict(edges), n)
    assert state.snapshot() == want
    index: dict = {}
    for (u, v), rank in edges.items():
        index.setdefault(u, {})[v] = rank
        index.setdefault(v, {})[u] = rank
    assert state.index == index
    assert state.matched == {v: key for key in want["matching"] for v in key}


def is_maximal(matching, edges) -> bool:
    """No edge of `edges` has both endpoints free in `matching`."""
    covered = {v for key in matching for v in key}
    return all(u in covered or v in covered for u, v in edges)


def rank_at(fraction: float, key=(0, 1)) -> Rank:
    """A deterministic test rank at the given fraction of [0, 1); key (0, 0)
    gives the rank below every real edge's rank at that value."""
    return make_rank(int(fraction * 2**64), *key)


def elim_rank(k: dict, key) -> Rank:
    """Eliminator rank of edge `key` under the matched-rank map `k`:
    min(k(u), k(v)), with the sentinel for a free endpoint."""
    u, v = key
    return min(k.get(u, UNMATCHED_RANK), k.get(v, UNMATCHED_RANK))


def unpack_rank(rank: Rank) -> tuple[int, int, int]:
    """(value, lo, hi) of a packed rank."""
    tie = rank % RANK_SCALE
    return rank >> 64, tie >> 32, tie & 0xFFFFFFFF


def violations(summary: dict) -> dict[str, int]:
    """The non-zero check counts of a replay summary ({} when all pass)."""
    return {key: summary[key] for key in CHECKS if summary[key]}
