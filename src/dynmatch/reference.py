"""Static reference construction: the whole layered state built from scratch.

A pure function of (edge records, vertex tapes, config), written independently
of the engine it checks: it imports only `core` (config, thresholds and
records), runs its own greedy over rank-sorted edge lists into plain dicts,
and writes role codes of its own.  `replay`'s checkpoints and perfbench
compare it with `Pipeline.snapshot()`, which emits the same plain shape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import EdgeKey, EdgeRecord, InstanceConfig, Rank, thresholds_for

#: Role codes, equal to the engine's `Role.value` strings.
U_A, U_B, V_A, V_B, ABSENT = "UA", "UB", "VA", "VB", "-"

#: The paper's level filter: an edge enters G_i when one endpoint is a V side
#: at level i and the other is the U side of the same class (V_A with U_A,
#: V_B with U_B).
_ADMITTED = {(V_A, U_A), (U_A, V_A), (V_B, U_B), (U_B, V_B)}


def bulk_greedy(us: list[int], vs: list[int], n: int) -> tuple[list[int], list[int]]:
    """Greedy matching over edges (us[i], vs[i]) already sorted by rank.

    Returns (kpos, matched_positions): kpos[v] is the scan position at which
    v got matched (len(us) when unmatched), which is a faithful stand-in for
    the matched rank since positions follow rank order.
    """
    m = len(us)
    kpos = [m] * n
    matched: list[int] = []
    for idx in range(m):
        a = us[idx]
        b = vs[idx]
        if kpos[a] == m and kpos[b] == m:
            kpos[a] = idx
            kpos[b] = idx
            matched.append(idx)
    return kpos, matched


def greedy_snapshot(edges: dict[EdgeKey, Rank], n: int) -> dict:
    """The greedy matching of `edges` (key -> rank) over n vertices, as
    plain data: the edges, the matching and k (vertex -> matched rank)."""
    order = sorted(edges, key=edges.__getitem__)
    _, taken = bulk_greedy([u for u, _ in order], [v for _, v in order], n)
    matching: set[EdgeKey] = set()
    k: dict[int, Rank] = {}
    for idx in taken:
        key = order[idx]
        rank = edges[key]
        matching.add(key)
        k[key[0]] = rank
        k[key[1]] = rank
    return {"edges": edges, "matching": matching, "k": k}


def level_by_scan(rank: Rank, thresholds: list[Rank]) -> int:
    """The level whose rank interval holds `rank`, found by scanning the
    boundaries t_1 > t_2 > ... in order: level i < L owns (t_i, t_{i-1}],
    level L the rest.  The oracle's own lookup; the engine bisects."""
    levels = len(thresholds) - 1
    for i in range(1, levels):
        if rank > thresholds[i]:
            return i
    return levels


def static_reference(
    records: Iterable[EdgeRecord],
    tapes: Sequence[int],
    config: InstanceConfig,
) -> dict:
    """Build the full layered construction from scratch on the given graph and tapes.

    Returns the same snapshot shape the dynamic pipeline produces.
    """
    config.validate()
    records = list(records)
    thresholds = thresholds_for(config.delta_cap, config.levels)
    levels = range(1, config.levels + 1)
    n = config.n

    m0 = greedy_snapshot({rec.key: rec.ranks[0] for rec in records}, n)

    # Rank partition of the base matching and the level of each vertex
    # (0 = unmatched).
    members: dict[int, set[EdgeKey]] = {i: set() for i in levels}
    match_level = [0] * n
    for key in m0["matching"]:
        lvl = level_by_scan(m0["k"][key[0]], thresholds)
        members[lvl].add(key)
        match_level[key[0]] = lvl
        match_level[key[1]] = lvl

    # Below its match level a vertex is absent, above it on the U side of its
    # tape's bit i-1; at it, the V side of its end of the M_0 edge (the lower
    # id is V_A) when bit i-1 of the edge's `sampled` is set, else absent.
    sampled = {rec.key: rec.sampled for rec in records}
    roles: dict[int, tuple[str, ...]] = {}
    for i in levels:
        row = [
            ABSENT if lv >= i else U_B if tape >> i - 1 & 1 else U_A
            for lv, tape in zip(match_level, tapes)
        ]
        for a, b in members[i]:
            if sampled[(a, b)] >> i - 1 & 1:
                row[a] = V_A
                row[b] = V_B
        roles[i] = tuple(row)

    g_edges = {
        i: {
            rec.key: rec.ranks[i]
            for rec in records
            if (roles[i][rec.key[0]], roles[i][rec.key[1]]) in _ADMITTED
        }
        for i in levels
    }
    m_i = {i: greedy_snapshot(g_edges[i], n) for i in levels}

    union: dict[EdgeKey, int] = {}
    for snap in (m0, *m_i.values()):
        for key in snap["matching"]:
            union[key] = union.get(key, 0) + 1

    return {
        "m0": m0,
        "members": {i: frozenset(members[i]) for i in levels},
        "roles": roles,
        "m_i": m_i,
        "union": union,
    }
