"""The exact oracles: maximum matching and short augmenting paths.

`max_matching_exact` finds mu by blossom search for every graph, bipartite
or not, and `IncrementalMatching` maintains a maximum matching across single
edge updates for per-update oracle checks.  The blossom routine is the
classic array-based single-root search (grow an alternating tree, contract
odd cycles via base pointers, walk parent links to augment).  It is
quadratic-ish per augmentation, which is all the desk-scale harness needs.

`has_short_augmenting_path` checks the final matcher's contract (no
augmenting path of at most 2k-1 edges) by exhaustive backtracking.  None of
them uses the engine's matching code, so they can check it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import EdgeKey, edge_key
from .errors import OracleLimitError

DEFAULT_ORACLE_LIMIT = 2000


@dataclass(frozen=True)
class ExactMatchingResult:
    size: int
    witness: frozenset[EdgeKey]


def has_short_augmenting_path(
    edges: set[EdgeKey], matching: set[EdgeKey], max_len: int
) -> bool:
    """Exhaustive check for an augmenting path of at most `max_len` edges.

    Enumerates every simple alternating path from every free vertex by
    backtracking, so it is reliable on non-bipartite graphs (no global
    visited marks).
    """
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    mate: dict[int, int] = {}
    for u, v in matching:
        mate[u] = v
        mate[v] = u

    def grow(v: int, remaining: int, visited: set[int]) -> bool:
        for x in sorted(adj[v]):
            if x in visited or mate.get(v) == x:
                continue
            if x not in mate:
                return True
            w = mate[x]
            if remaining >= 3 and w not in visited:
                visited.add(x)
                visited.add(w)
                if grow(w, remaining - 2, visited):
                    return True
                visited.discard(x)
                visited.discard(w)
        return False

    return any(
        grow(f, max_len, {f}) for f in adj if f not in mate and adj[f]
    )


def _lca(match: list[int], base: list[int], p: list[int], a: int, b: int) -> int:
    used = set()
    while True:
        a = base[a]
        used.add(a)
        if match[a] == -1:
            break
        a = p[match[a]]
    while True:
        b = base[b]
        if b in used:
            return b
        b = p[match[b]]


def _mark_path(
    match: list[int],
    base: list[int],
    blossom: list[bool],
    p: list[int],
    v: int,
    b: int,
    child: int,
) -> None:
    while base[v] != b:
        blossom[base[v]] = True
        blossom[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _find_path(adj: Sequence[Iterable[int]], match: list[int], root: int) -> tuple[int, list[int]]:
    """Search one alternating tree from `root`; returns (exposed vertex, parents)
    with exposed == -1 when no augmenting path from root exists."""
    n = len(adj)
    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    used[root] = True
    q = deque([root])
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = _lca(match, base, p, v, to)
                blossom = [False] * n
                _mark_path(match, base, blossom, p, v, curbase, to)
                _mark_path(match, base, blossom, p, to, curbase, v)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    return to, p
                used[match[to]] = True
                q.append(match[to])
    return -1, p


def _augment(match: list[int], p: list[int], v: int) -> None:
    while v != -1:
        pv = p[v]
        ppv = match[pv]
        match[v] = pv
        match[pv] = v
        v = ppv


def _blossom_matching(adj: Sequence[Iterable[int]]) -> list[int]:
    n = len(adj)
    match = [-1] * n
    # Cheap greedy seed cuts the number of full searches roughly in half.
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v] = to
                    match[to] = v
                    break
    for v in range(n):
        # An edgeless root has no augmenting path, yet each search allocates
        # three n-lists; c10's bipartite unions leave about 990 of 2000
        # vertices edgeless, so skipping them keeps that oracle call cheap.
        if match[v] == -1 and adj[v]:
            exposed, p = _find_path(adj, match, v)
            if exposed != -1:
                _augment(match, p, exposed)
    return match


def _mate_to_result(match: list[int]) -> ExactMatchingResult:
    witness = frozenset(
        (v, match[v]) for v in range(len(match)) if match[v] > v
    )
    return ExactMatchingResult(len(witness), witness)


def max_matching_exact(
    n: int,
    edges: Iterable[EdgeKey],
    *,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> ExactMatchingResult:
    """Exact maximum matching size mu plus a witness, by blossom search."""
    if n > limit:
        raise OracleLimitError(f"graph size {n} exceeds oracle limit {limit}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        key = edge_key(u, v)
        adj[key[0]].append(key[1])
        adj[key[1]].append(key[0])
    return _mate_to_result(_blossom_matching(adj))


class IncrementalMatching:
    """A maximum matching maintained across single edge updates.

    Each update changes mu by at most one, so maximality is restored with at
    most one augmenting-path search.  Any new augmenting path after an
    insert must use the new edge, and a free vertex can only end a path:
    an insert between two free vertices matches them directly, one with
    exactly one free endpoint searches from that endpoint only, and one
    between two matched vertices searches from free roots until one
    succeeds.  A delete of a matching edge searches from its two freed
    endpoints only.  `size` is the matching size, kept as a counter.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.match = [-1] * n
        self.size = 0

    def matching(self) -> set[EdgeKey]:
        return {(v, m) for v, m in enumerate(self.match) if m > v}

    def insert(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)
        match = self.match
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
            self.size += 1
        elif match[u] == -1 or match[v] == -1:
            self._augment_from(u if match[u] == -1 else v)
        else:
            for root in range(self.n):
                if match[root] == -1 and self.adj[root] and self._augment_from(root):
                    return

    def delete(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        match = self.match
        if match[u] != v:
            return  # removing a non-witness edge cannot raise mu
        match[u] = -1
        match[v] = -1
        self.size -= 1
        # Any augmenting path for the reduced matching ends at u or v.
        for root in (u, v):
            if match[root] == -1:
                self._augment_from(root)

    def _augment_from(self, root: int) -> bool:
        """Augment along a path from the free vertex `root`, if one exists."""
        exposed, p = _find_path(self.adj, self.match, root)
        if exposed == -1:
            return False
        _augment(self.match, p, exposed)
        self.size += 1
        return True
