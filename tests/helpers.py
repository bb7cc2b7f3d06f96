"""Brute-force oracles shared by the test modules."""

from __future__ import annotations

import random

from dynmatch.core import RANK_SCALE, UNMATCHED_RANK, Rank, edge_key, make_rank


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
