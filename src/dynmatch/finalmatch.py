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

Inserts and repairs share one path enumerator, `_grow_halves`.  A repair
from a free vertex s takes, over s's neighbours x in sorted order, the first
strictly shortest `_shortest_through((s, x))`: the only half at s is [s], the
disjointness test drops exactly the paths that revisit s, and the stable sort
by length keeps the sorted-neighbour preorder, so this is the path an
iterative-deepening search from s finds first.  The path starts at s, which
fixes `_flip`'s delta order and `_free_ball`'s seed order.

`add` keeps a fast path for an edge between two free vertices.  The general
search returns the same [u, v], but without the fast path perfbench's
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

    @property
    def max_path_len(self) -> int:
        return 2 * self.depth - 1

    def size(self) -> int:
        return len(self.mate) // 2

    def matching(self) -> set[EdgeKey]:
        """A fresh copy of the answer; the caller may mutate it freely."""
        return set(self.answer)

    def edges(self) -> set[EdgeKey]:
        return set(self.mult)

    def degree(self, v: int) -> int:
        return len(self.adj.get(v, ()))

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
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
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
        self._drop_adj(u, v)
        self._drop_adj(v, u)
        if self.mate.get(u) != v:
            return EMPTY_DELTA
        del self.mate[u], self.mate[v]
        self.answer.remove(key)
        out.left.append(key)
        self._repair([u, v], out)
        return out

    # -- internals -------------------------------------------------------

    def _drop_adj(self, a: int, b: int) -> None:
        nbrs = self.adj[a]
        nbrs.discard(b)
        if not nbrs:
            del self.adj[a]

    def _flip(self, path: list[int], delta: DeltaList) -> None:
        """Augment along a path given as a vertex list (odd edge count)."""
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
        queue = deque(seeds)
        while queue:
            s = queue.popleft()
            if s in self.mate or s not in self.adj:
                continue
            path = self._shortest_from(s)
            if path is None:
                continue
            self._flip(path, delta)
            queue.extend(self._free_ball(path))

    def _free_ball(self, path: list[int]) -> list[int]:
        radius = 2 * self.depth
        seen = set(path)
        frontier = list(path)
        free = [v for v in path if v not in self.mate]
        for _ in range(radius):
            nxt = []
            for v in frontier:
                for x in self.adj.get(v, ()):
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
                        if x not in self.mate:
                            free.append(x)
            frontier = nxt
            if not frontier:
                break
        return free

    def _shortest_from(self, s: int) -> list[int] | None:
        """Shortest augmenting path from free vertex s, up to 2k - 1 edges;
        ties go to the first neighbour in sorted order."""
        best: list[int] | None = None
        for x in sorted(self.adj[s]):
            path = self._shortest_through((s, x))
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        return best

    def _halves(self, v: int, budget: int) -> list[tuple[list[int], frozenset[int]]]:
        """Even alternating paths leaving v through its matched edge and ending
        free; the zero-length half exists when v itself is free."""
        out: list[tuple[list[int], frozenset[int]]] = []
        self._grow_halves(v, budget, [v], {v}, out)
        return out

    def _grow_halves(
        self,
        w: int,
        remaining: int,
        path: list[int],
        visited: set[int],
        out: list[tuple[list[int], frozenset[int]]],
    ) -> None:
        partner = self.mate.get(w)
        if partner is None:
            out.append((list(path), frozenset(visited)))
            return
        if remaining < 2 or partner in visited:
            return
        visited.add(partner)
        path.append(partner)
        for x in sorted(self.adj.get(partner, ())):
            if x in visited:
                continue
            visited.add(x)
            path.append(x)
            self._grow_halves(x, remaining - 2, path, visited, out)
            visited.discard(x)
            path.pop()
        visited.discard(partner)
        path.pop()

    def _shortest_through(self, key: EdgeKey) -> list[int] | None:
        """Shortest augmenting path that uses `key` as an unmatched edge,
        listed from key[0] to the far end; `key` may be in either orientation."""
        u, v = key
        budget = self.max_path_len - 1
        halves_u = sorted(self._halves(u, budget), key=lambda h: len(h[0]))
        if not halves_u:
            return None
        halves_v = sorted(self._halves(v, budget), key=lambda h: len(h[0]))
        best: list[int] | None = None
        best_len = self.max_path_len + 1
        for pu, su in halves_u:
            len_u = len(pu) - 1
            if len_u + 1 >= best_len:
                break
            for pv, sv in halves_v:
                total = len_u + 1 + len(pv) - 1
                if total >= best_len:
                    break
                if su & sv:
                    continue
                best = list(reversed(pu)) + pv
                best_len = total
        return best
