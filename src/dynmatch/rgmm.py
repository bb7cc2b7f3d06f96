"""Random-greedy maximal matching, maintained exactly under edge updates.

The maintained object is the greedy matching obtained by scanning edges in
increasing rank order and taking every edge whose endpoints are still free.
After any update the state is identical to rebuilding from scratch over the
current edge set -- the defining contract, which the test suite checks by
brute force.

Every edge has an *eliminator* (the lowest-rank matched edge touching it;
itself if matched).  Since a matching has at most one edge per vertex, the
eliminator rank of edge uv is simply min(k(u), k(v)) where k(.) is the
matched rank (the sentinel `UNMATCHED_RANK` when free), so it is derived
from k on demand and never stored.  The state keeps each fact once: the
per-vertex adjacency index is the edge set, k is the matching (a rank packs
its edge's key, so k(v) names v's matched edge, decoded by `core.key_of`),
and `rank_of` and `matching` are views built from them on every read.  The
index is unordered and maps each neighbor to the rank of the shared edge, so
a candidate scan at v reads ranks and neighbors straight from the index: it
hashes only integer vertex ids, never an edge tuple, and builds an edge key
only for what it returns.
One scan, `neighbors_above`, serves every caller; it costs O(deg(v)) plus
sorting what it keeps, with an O(1) early exit when k(v) is below the
threshold.  It can also filter on a per-vertex label of the far endpoint
before the sort, so it sorts only what its caller keeps, and it returns edge
keys only, in (eliminator rank, edge) order.  An index kept sorted by
eliminator rank would make that scan output-sensitive, but re-keying it on
every matching change cost more than it saved at every degree cap measured
(32 to 4096).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import UNMATCHED_RANK, ZERO_RANK, EdgeKey, Rank, key_of
from .errors import DuplicateEdgeError, EdgeNotFoundError


@dataclass(slots=True)
class DeltaList:
    """Edges that left / joined a matching during one operation, each list in
    the order the edges moved.

    A non-empty delta from `apply_insert` / `apply_delete` always lists the
    updated edge itself, and every other edge in it ranks above that edge
    (greedy order below the updated rank is untouched), so the updated
    edge's rank is the lowest rank in the delta.

    An operation that changes nothing returns the shared `EMPTY_DELTA`
    instead of a fresh empty delta: `apply_insert` / `apply_delete` and
    `UnionMatcher.add` / `remove` return it exactly when the matching did not
    change, so callers test `delta is EMPTY_DELTA`.  Its fields are empty
    tuples, so an `append` on it raises rather than corrupting every later
    no-op.
    """

    left: list[EdgeKey] = field(default_factory=list)
    joined: list[EdgeKey] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.left or self.joined)

    def size(self) -> int:
        """Adjustment complexity: number of matching edges changed."""
        return len(self.left) + len(self.joined)


#: The one delta of every operation that changed nothing (see `DeltaList`).
EMPTY_DELTA = DeltaList((), ())


class MatchingState:
    """Greedy maximal matching of one (graph, ranking) pair plus its indexes.

    Stored state, each fact once:

    index : vertex -> unordered dict mapping each neighbor x to the rank of
        edge vx; the edge set itself.  Scans read ranks from it without
        hashing an edge tuple.  The one candidate scan at v,
        `neighbors_above` (`incident` is its threshold-zero case), filters it
        in O(deg(v)), by eliminator rank and optionally by a label of the
        neighbor, and returns the edge keys it keeps sorted by (eliminator
        rank, edge), or returns in O(1) when k(v) is below the threshold.
    k : vertex -> rank of its matching edge (absent when unmatched; readers
        take the sentinel `UNMATCHED_RANK` for a free vertex); the matching
        itself, since `key_of(k[v])` is v's matching edge.
    counters : work counts, `pops` (cascade heap pops) and `scans` (index
        entries read by candidate scans).

    Read-only views, built from the stored state on every read and returned
    as fresh copies: `rank_of` (edge -> rank, from `index`) and `matching`
    (the set of matched edges, decoded from `k`).  An edge's eliminator rank
    is min(k(u), k(v)), computed where it is read.  States are compared
    through `snapshot()`.

    Edge keys are (lo, hi) tuples.  Single-writer; `apply_insert` /
    `apply_delete` restore all invariants before returning, and a rejected
    update changes nothing.
    """

    def __init__(self) -> None:
        self.k: dict[int, Rank] = {}
        self.index: dict[int, dict[int, Rank]] = {}
        self.counters = {"pops": 0, "scans": 0}

    # -- queries ---------------------------------------------------------

    @property
    def rank_of(self) -> dict[EdgeKey, Rank]:
        """Edge -> rank of every present edge, each under its (lo, hi) key.

        A fresh dict built from `index` on every read: O(m).
        """
        return {
            (u, x): r for u, adj in self.index.items() for x, r in adj.items() if u < x
        }

    @property
    def matching(self) -> set[EdgeKey]:
        """The set of matched edges, a fresh set decoded from `k` on every
        read: O(|M|)."""
        return {key_of(r) for r in self.k.values()}

    def incident(self, v: int) -> list[EdgeKey]:
        """Incident edges in increasing (eliminator rank, edge) order."""
        return self.neighbors_above(v, ZERO_RANK)

    def neighbors_above(
        self,
        v: int,
        threshold: Rank,
        label: Sequence[object] | None = None,
        want: object = None,
    ) -> list[EdgeKey]:
        """Edges vx at v whose eliminator rank is >= threshold and, when
        `label` is given, whose neighbor has `label[x] is want`, in increasing
        (eliminator rank, edge) order.

        The order is part of the contract: the pipeline replays level-graph
        deletes and inserts in it, and the union answer depends on that order.
        Filtering before the sort keeps the order of the edges kept.
        """
        idx = self.index.get(v)
        if not idx:
            return []
        k = self.k
        kv = k.get(v, UNMATCHED_RANK)
        if kv < threshold:
            return []  # every eliminator at v is <= k(v)
        self.counters["scans"] += len(idx)
        unmatched = UNMATCHED_RANK
        out = []
        for x in idx:
            if label is not None and label[x] is not want:
                continue
            kx = k.get(x, unmatched)
            if kx >= threshold:
                out.append((kx if kx < kv else kv, (v, x) if v < x else (x, v)))
        if not out:
            return out
        out.sort()
        return [key for _, key in out]

    def snapshot(self) -> dict:
        """Edges with their ranks, the matching and k, as fresh copies.  The
        eliminators are a function of these, so they are not repeated."""
        return {"edges": self.rank_of, "matching": self.matching, "k": dict(self.k)}

    # -- updates ---------------------------------------------------------

    def apply_insert(self, key: EdgeKey, rank: Rank) -> DeltaList:
        """Insert an edge; returns exactly the matching changes it caused.

        Requires `key_of(rank) == key`, as every rank `Instance.admit_edge`
        draws meets: k stores the rank alone and the matching reads the
        edge back out of it.
        """
        u, v = key
        index = self.index
        if v in index.get(u, ()):
            raise DuplicateEdgeError(f"edge {key} already present")
        index.setdefault(u, {})[v] = rank
        index.setdefault(v, {})[u] = rank
        k = self.k
        if k.get(u, UNMATCHED_RANK) <= rank or k.get(v, UNMATCHED_RANK) <= rank:
            return EMPTY_DELTA
        delta = DeltaList()
        seeds = []
        for w in (u, v):
            old = k.get(w)
            if old is not None:
                a, b = old_key = key_of(old)
                del k[a], k[b]
                delta.left.append(old_key)
                seeds.append(a if b == w else b)
        k[u] = k[v] = rank
        delta.joined.append(key)
        self._cascade(seeds, delta)
        return delta

    def apply_delete(self, key: EdgeKey) -> DeltaList:
        """Delete an edge; returns exactly the matching changes it caused."""
        u, v = key
        index = self.index
        # An edge is present only under its (lo, hi) key.
        if u > v or v not in index.get(u, ()):
            raise EdgeNotFoundError(f"edge {key} not present")
        for w, x in ((u, v), (v, u)):
            adj = index[w]
            rank = adj.pop(x)
            if not adj:
                del index[w]
        if self.k.get(u) != rank:
            return EMPTY_DELTA
        del self.k[u], self.k[v]
        delta = DeltaList([key])
        self._cascade(list(key), delta)
        return delta

    # -- internals -------------------------------------------------------

    def _best_candidate(self, w: int) -> Rank | None:
        """Rank of the minimum-rank incident edge whose far endpoint is free
        or matched at a higher rank -- the edge w takes when the greedy
        replay reaches it.  Ranks are unique, so the rank names the edge."""
        idx = self.index.get(w)
        if not idx:
            return None
        k = self.k
        self.counters["scans"] += len(idx)
        best = unmatched = UNMATCHED_RANK
        for x, r in idx.items():
            if r < best and k.get(x, unmatched) > r:
                best = r
        return None if best == unmatched else best

    def _cascade(self, seeds: Iterable[int], delta: DeltaList) -> None:
        """Settle freed vertices in globally increasing candidate-rank order.

        Each heap entry (rank, vertex) is a lower bound for its vertex's true
        candidate; a vertex commits only when its recomputed candidate is no
        larger than every other pending entry, which reproduces the static
        greedy order.

        Every heap pop counts once in `counters["pops"]`; the count is kept
        in a local and added when the heap is empty.
        """
        heap: list[tuple[Rank, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        best_candidate = self._best_candidate
        k = self.k
        left, joined = delta.left, delta.joined
        for w in seeds:
            rank = best_candidate(w)
            if rank is not None:
                heappush(heap, (rank, w))
        pops = 0
        while heap:
            w = heappop(heap)[1]
            pops += 1
            if w in k:
                continue
            rank = best_candidate(w)
            if rank is None:
                continue
            if heap and heap[0][0] < rank:
                heappush(heap, (rank, w))
                continue
            a, b = key = key_of(rank)
            x = b if a == w else a
            old = k.get(x)
            if old is not None:
                c, d = old_key = key_of(old)
                del k[c], k[d]
                left.append(old_key)
            k[a] = k[b] = rank
            joined.append(key)
            if old is not None:
                w = c if d == x else d
                rank = best_candidate(w)
                if rank is not None:
                    heappush(heap, (rank, w))
        self.counters["pops"] += pops
