"""Near-maximum matching of the union of the maintained matchings.

The union graph M_0 u M_1 u ... u M_L has degree at most L + 1, so a
bounded-depth augmenting-path search is enough to keep an answer matching
with no augmenting path of length <= 2k - 1, which pins its size to at least
k/(k+1) of the union's maximum.  Repairs after an edge change stay local to
the changed edge, so their cost depends on (L, k) only, not on n.

Searches enumerate simple alternating paths with backtracking (matched hops
are forced, so the branching factor is the degree once per unmatched hop);
exhaustive enumeration at bounded depth side-steps the parity traps that
bite marked-vertex searches in non-bipartite graphs.  The recursive steps are
methods that take their search state as arguments rather than closures over
it, so a search leaves no reference cycle behind: everything it allocates is
freed by reference counting, not by the cyclic garbage collector.

Inserts and repairs share one path enumerator, `_grow_halves`.  A half is
a vertex tuple copied from the one path list the enumeration extends and
backtracks; that list is also the visited test (`x in path`, at most 2k
vertices), so no visited set is kept or copied per half.  Halves are sorted
by length, stably, so preorder breaks ties.  Two halves join when they share
no vertex: the u-half's vertex set is built once, lazily, and tested against
each v-half with `isdisjoint`.

Every search from a free vertex s is one call, `_first_shortest(s, xs)`: the
only half at s is (s,), so it grows the halves of each x in xs behind the
prefix [s, x] into one list, and `min` keeps the first of the shortest.  The
prefix drops exactly the paths that revisit s, so it does the disjointness
test's work.  An insert with one free end passes the other end alone; a
repair passes s's neighbours in sorted order, so its path is the one an
iterative-deepening search from s finds first.  The path starts at s, which
fixes `_flip`'s delta order and `_free_ball`'s seed order.

`add` keeps a fast path for an edge between two free vertices.  The general
search returns the same (u, v), but without the fast path perfbench's
sparse-levels ran about 8% fewer updates/s and set up about 15% slower
(2-vCPU shared VM, 4 of 4 alternating pairs).

`add` and `remove` write the answer's changes in place, into the caller's
delta: the pipeline passes one `DeltaList` per update, so an update's answer
delta is built in operation order with no delta per call and no `extend`.
A call returns that delta when it changed the answer and the shared
`EMPTY_DELTA` when it did not, so `bool(result)` says whether this call
moved the answer, whatever earlier calls wrote into the delta.

The matcher keeps four structures:
- `mult`: each union edge with its multiplicity (how many of M_0..M_L hold it);
- `adj`: each vertex's neighbours in the union graph;
- `mate`: each matched vertex's partner in the answer;
- `answer`: the answer's edges as canonical `(lo, hi)` keys.

`mate` changes in three places only (the free-free fast path of `add`, a
matched edge leaving in `remove`, and `_flip`), and each of them updates
`answer` in the same step, so `answer == {(v, mate[v]) : v < mate[v]}` holds
between calls.  A read therefore costs one set copy of size |answer| instead
of a scan over `mate`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .core import EdgeKey
from .errors import ConsistencyError
from .rgmm import EMPTY_DELTA, DeltaList


class UnionMatcher:
    """Maintains the union graph (with multiplicities) and the answer matching.

    `depth` is k: after every update no augmenting path of length <= 2k - 1
    survives.  Single-writer, driven synchronously by the pipeline.

    State: `mult` (edge -> multiplicity), `adj` (vertex -> union neighbours),
    `mate` (matched vertex -> partner) and `answer` (the matched edges), with
    `answer == {(v, mate[v]) : v < mate[v]}` after every call.  `matching()`
    returns a copy of `answer`, one set copy of size |answer|.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("search depth must be at least 1")
        self.depth = depth
        self.mult: dict[EdgeKey, int] = {}
        self.adj: dict[int, set[int]] = {}
        self.mate: dict[int, int] = {}
        self.answer: set[EdgeKey] = set()

    # -- queries ---------------------------------------------------------

    def size(self) -> int:
        return len(self.mate) // 2

    def matching(self) -> set[EdgeKey]:
        """A fresh copy of the answer; the caller may mutate it freely."""
        return set(self.answer)

    def edges(self) -> set[EdgeKey]:
        return set(self.mult)

    # -- updates ---------------------------------------------------------

    def add(self, key: EdgeKey, out: DeltaList) -> DeltaList:
        """An edge joined one of the maintained matchings.  The answer's
        changes are appended to `out`, which is returned; `EMPTY_DELTA` when
        this call changed nothing."""
        count = self.mult.get(key, 0)
        self.mult[key] = count + 1
        if count:
            return EMPTY_DELTA  # already present in the union graph
        u, v = key
        adj = self.adj
        nbrs = adj.get(u)
        if nbrs is None:
            adj[u] = {v}
        else:
            nbrs.add(v)
        nbrs = adj.get(v)
        if nbrs is None:
            adj[v] = {u}
        else:
            nbrs.add(u)
        mate = self.mate
        if u not in mate and v not in mate:
            # Maximality held before, so matching the edge cannot open any
            # short augmenting path elsewhere.  Kept on purpose: see the
            # module docstring.
            mate[u] = v
            mate[v] = u
            self.answer.add(key)
            out.joined.append(key)
            return out
        path = self._shortest_through(key)
        if path is None:
            return EMPTY_DELTA
        self._flip(path, out)
        return out

    def remove(self, key: EdgeKey, out: DeltaList) -> DeltaList:
        """An edge left one of the maintained matchings.  The answer's
        changes are appended to `out`, which is returned; `EMPTY_DELTA` when
        this call changed nothing."""
        count = self.mult.get(key, 0)
        if count == 0:
            raise ConsistencyError(f"union multiplicity underflow for {key}")
        if count > 1:
            self.mult[key] = count - 1
            return EMPTY_DELTA
        del self.mult[key]
        u, v = key
        adj = self.adj
        nbrs = adj[u]
        nbrs.discard(v)
        if not nbrs:
            del adj[u]
        nbrs = adj[v]
        nbrs.discard(u)
        if not nbrs:
            del adj[v]
        if self.mate.get(u) != v:
            return EMPTY_DELTA
        del self.mate[u], self.mate[v]
        self.answer.remove(key)
        out.left.append(key)
        self._repair([u, v], out)
        return out

    # -- internals -------------------------------------------------------

    def _flip(self, path: tuple[int, ...], delta: DeltaList) -> None:
        """Augment along a path given as a vertex tuple (odd edge count)."""
        mate = self.mate
        answer = self.answer
        for i in range(1, len(path) - 1, 2):
            a, b = path[i], path[i + 1]
            del mate[a], mate[b]
            key = (a, b) if a < b else (b, a)
            answer.remove(key)
            delta.left.append(key)
        for i in range(0, len(path) - 1, 2):
            a, b = path[i], path[i + 1]
            mate[a] = b
            mate[b] = a
            key = (a, b) if a < b else (b, a)
            answer.add(key)
            delta.joined.append(key)

    def _repair(self, seeds: list[int], delta: DeltaList) -> None:
        """Re-establish the no-short-augmenting-path invariant.

        Any path that appears after a flip intersects that flip, so its free
        endpoints lie within 2k hops of it; reseeding that ball until nothing
        is found restores the invariant globally.
        """
        mate, adj = self.mate, self.adj
        queue = deque(seeds)
        while queue:
            s = queue.popleft()
            if s in mate or s not in adj:
                continue
            path = self._first_shortest(s, sorted(adj[s]))
            if path is None:
                continue
            self._flip(path, delta)
            queue.extend(self._free_ball(path))

    def _free_ball(self, path: tuple[int, ...]) -> list[int]:
        mate, adj = self.mate, self.adj
        seen = set(path)
        frontier = path
        free = []
        for _ in range(2 * self.depth):
            nxt = []
            for v in frontier:
                for x in adj.get(v, ()):
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
                        if x not in mate:
                            free.append(x)
            frontier = nxt
            if not frontier:
                break
        return free

    def _grow_halves(
        self,
        w: int,
        remaining: int,
        path: list[int],
        out: list[tuple[int, ...]],
    ) -> None:
        """Extend the simple path `path`, which ends at w, two hops at a time
        (matched edge, then unmatched), appending a tuple copy of every
        extension that ends free.  A path holds at most 2k vertices, so
        `x in path` is the visited test: no visited set is kept or copied."""
        partner = self.mate.get(w)
        if partner is None:
            out.append(tuple(path))
            return
        if remaining < 2 or partner in path:
            return
        path.append(partner)
        for x in sorted(self.adj.get(partner, ())):
            if x in path:
                continue
            path.append(x)
            self._grow_halves(x, remaining - 2, path, out)
            path.pop()
        path.pop()

    def _first_shortest(
        self, s: int, xs: Iterable[int]
    ) -> tuple[int, ...] | None:
        """First shortest augmenting path from the free vertex s, up to
        2k - 1 edges, whose second vertex is in `xs`: the halves of every x
        in `xs`, grown behind s in order, go into one list, and `min` keeps
        the first of the shortest."""
        paths: list[tuple[int, ...]] = []
        budget = 2 * self.depth - 2
        for x in xs:
            self._grow_halves(x, budget, [s, x], paths)
        return min(paths, key=len) if paths else None

    def _shortest_through(self, key: EdgeKey) -> tuple[int, ...] | None:
        """Shortest augmenting path that uses `key` as an unmatched edge,
        listed from key[0] to the far end.

        When an end is free, its only half is that end alone, so the path is
        `_first_shortest` from that end, the path the join below would pick.
        Otherwise halves are sorted by length (stable, so preorder breaks
        ties) and combine when they share no vertex; the u-half's vertex set
        is built once, and only when some v-half is short enough to test.
        """
        u, v = key
        mate = self.mate
        if u not in mate:
            return self._first_shortest(u, (v,))
        if v not in mate:
            path = self._first_shortest(v, (u,))
            return None if path is None else path[::-1]
        budget = 2 * self.depth - 2
        halves_u: list[tuple[int, ...]] = []
        self._grow_halves(u, budget, [u], halves_u)
        if not halves_u:
            return None
        halves_u.sort(key=len)
        halves_v: list[tuple[int, ...]] = []
        self._grow_halves(v, budget, [v], halves_v)
        halves_v.sort(key=len)
        best: tuple[int, ...] | None = None
        best_len = 2 * self.depth
        for pu in halves_u:
            len_u = len(pu)
            if len_u >= best_len:
                break
            seen = None
            for pv in halves_v:
                total = len_u + len(pv) - 1
                if total >= best_len:
                    break
                if seen is None:
                    seen = set(pu)
                if not seen.isdisjoint(pv):
                    continue
                best = pu[::-1] + pv
                best_len = total
        return best
