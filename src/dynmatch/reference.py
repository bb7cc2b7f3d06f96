"""Static reference construction: the whole layered state built from scratch.

A pure function of (edge records, vertex tapes, config).  The dynamic engine
must agree with this after every update; the equivalence suite compares the
two snapshot dicts directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import EdgeKey, EdgeRecord, InstanceConfig, level_of_rank, thresholds_for
from .pipeline import Role
from .rgmm import build_static

#: The paper's level filter, stated independently of the engine: an edge
#: enters G_i when one endpoint is a V side at level i and the other is the U
#: side of the same class (V_A with U_A, V_B with U_B).
_ADMITTED = {
    (Role.V_A, Role.U_A),
    (Role.U_A, Role.V_A),
    (Role.V_B, Role.U_B),
    (Role.U_B, Role.V_B),
}


def static_reference(
    records: Iterable[EdgeRecord],
    tapes: Sequence[tuple[int, ...]],
    config: InstanceConfig,
) -> dict:
    """Build the full layered construction from scratch on the given graph and tapes.

    Returns the same snapshot shape the dynamic pipeline produces.
    """
    config.validate()
    records = list(records)
    by_key = {rec.key: rec for rec in records}
    thresholds = thresholds_for(config.delta_cap, config.levels)
    levels = config.levels
    n = config.n

    base = build_static((rec.key, rec.ranks[0]) for rec in records)

    # Rank partition of the base matching and the level of each vertex
    # (0 = unmatched).
    members: dict[int, set[EdgeKey]] = {i: set() for i in range(1, levels + 1)}
    match_level = [0] * n
    for key in base.matching:
        lvl = level_of_rank(base.k[key[0]], thresholds)
        members[lvl].add(key)
        match_level[key[0]] = lvl
        match_level[key[1]] = lvl

    roles: dict[int, list[Role]] = {}
    for i in range(1, levels + 1):
        row: list[Role] = []
        for v in range(n):
            lv = match_level[v]
            if lv < i:
                row.append(Role.U_A if tapes[v][i - 1] == 0 else Role.U_B)
            elif lv > i:
                row.append(Role.ABSENT)
            else:
                key = base.matched[v]
                if not by_key[key].sampled[i - 1]:
                    row.append(Role.ABSENT)
                else:
                    row.append(Role.V_A if v == key[0] else Role.V_B)
        roles[i] = row

    g_edges: dict[int, dict[EdgeKey, object]] = {i: {} for i in range(1, levels + 1)}
    for rec in records:
        u, v = rec.key
        for i in range(1, levels + 1):
            if (roles[i][u], roles[i][v]) in _ADMITTED:
                g_edges[i][rec.key] = rec.ranks[i]

    m_i = {i: build_static(g_edges[i].items()) for i in range(1, levels + 1)}

    union: dict[EdgeKey, int] = {}
    for key in base.matching:
        union[key] = union.get(key, 0) + 1
    for i in range(1, levels + 1):
        for key in m_i[i].matching:
            union[key] = union.get(key, 0) + 1

    return {
        "m0": base.snapshot(),
        "members": {i: frozenset(members[i]) for i in members},
        "roles": {i: tuple(roles[i]) for i in roles},
        "g_edges": g_edges,
        "m_i": {i: m_i[i].snapshot() for i in m_i},
        "union": union,
    }
