"""The maintained layered-augmentation state: base matching M_0, rank
partitions S_i, per-level vertex roles, second-stage graphs G_i with their
matchings M_i, and the final matching over the union.

One edge update runs four steps in order:

1. update the base matching and collect the list of matched edges that moved;
   if nothing moved, reflect the edge itself in the one level graph it may
   belong to;
2. recompute the roles of every vertex whose base match status changed.  A
   vertex's role at each level is a pure function of its match level (the
   level of its M_0 edge, 0 when unmatched) and that edge: absent below the
   match level, the U side of its tape's partition coin above it, and at the
   match level the V side of its end of the edge if the edge's record
   sampled it there, else absent.  So only the levels between the old and
   the new match level are recomputed, in one loop per vertex;
3. replay role changes onto the level graphs: departing vertices drop their
   incident level edges (a vertex with no edge in G_i is skipped without a
   scan), arriving vertices scan the base eliminator index above the trigger
   threshold for neighbors holding the partner role -- levels deeper than
   the trigger are provably untouched;
4. forward every matching delta into the union matcher, which appends the
   answer's changes to the update's one answer delta.  Most updates move no
   matching edge at all (the updated edge is neither in M_0 nor in a level
   matching), so step 4 runs only when the base delta or some level delta is
   non-empty; otherwise the answer delta is the shared `EMPTY_DELTA`.

The trigger level is the level of the updated edge's base rank r.  Greedy
order below r is the same before and after the update, so every edge that
moves in M_0 ranks at or above r, and the updated edge itself is in every
non-empty base delta: r is the lowest rank the update touches.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from itertools import chain
from dataclasses import dataclass, field
from enum import Enum

from .core import EdgeKey, Instance, Rank, key_of
from .errors import UnknownOpError
from .finalmatch import UnionMatcher
from .rgmm import EMPTY_DELTA, DeltaList, MatchingState


class Role(Enum):
    """Level-i role of a vertex (V-prime sides come from sampled S_i edges)."""

    U_A = "UA"
    U_B = "UB"
    V_A = "VA"
    V_B = "VB"
    ABSENT = "-"

    # Members are singletons and compare by identity, so the C-level identity
    # hash agrees with `==` and spares the level filter `Enum.__hash__`.
    __hash__ = object.__hash__


#: The level filter admits edge uv at level i iff role[i][v] is the partner of
#: role[i][u]: a V side pairs with the U side of its own A/B class.
_PARTNER = {
    Role.V_A: Role.U_A,
    Role.U_A: Role.V_A,
    Role.V_B: Role.U_B,
    Role.U_B: Role.V_B,
}

#: The U-side role of a vertex at level i, indexed by its partition coin,
#: bit i-1 of tapes[v] (0 = A, 1 = B).
_U_SIDE = (Role.U_A, Role.U_B)

RoleDeltas = dict[int, list[tuple[int, Role, Role]]]


@dataclass
class LevelState:
    """Everything level i owns: its second-stage graph G_i and matching M_i.

    Its slice of M_0 is not stored: `snapshot()` derives it from the base
    matching's ranks.
    """

    state: MatchingState = field(default_factory=MatchingState)


@dataclass(slots=True)
class UpdateReport:
    """What one update did, for metrics and tests."""

    op: str
    key: EdgeKey
    base_delta: DeltaList
    #: (level, delta) for every level-matching operation that changed
    #: something, in operation order.
    level_deltas: list[tuple[int, DeltaList]]
    answer_delta: DeltaList
    trigger_level: int | None = None
    role_changes: int = 0
    candidate_probes: int = 0
    cascade_pops: int = 0
    elapsed_ns: int = 0

    def adjustment_complexity(self) -> int:
        return self.base_delta.size()


class Pipeline:
    """Maintains the full layered state of one instance under edge updates.

    Single-writer: updates form a critical section; queries are safe between
    them.
    """

    def __init__(self, instance: Instance):
        self.inst = instance
        self.base = MatchingState()
        self.levels: dict[int, LevelState] = {
            i: LevelState() for i in range(1, instance.levels + 1)
        }
        # On the empty graph every vertex is unmatched, hence on the U side
        # of every level, split by its partition coin.  Each row is
        # allocated at its exact length and then filled.
        self.role: dict[int, list[Role]] = {}
        for i in range(1, instance.levels + 1):
            row = self.role[i] = [Role.U_A] * instance.n
            for v, tape in enumerate(instance.tapes):
                row[v] = _U_SIDE[tape >> i - 1 & 1]
        #: Per vertex: 0 when unmatched in M_0, else the level of its M_0 edge.
        self.match_level: list[int] = [0] * instance.n
        self.union = UnionMatcher(instance.config.answer_depth())

    # -- queries ---------------------------------------------------------

    def current_answer(self) -> set[EdgeKey]:
        """The maintained matching over M_0 u M_1 u ... u M_L, as a fresh copy:
        mutating it leaves the pipeline's state alone."""
        return self.union.matching()

    def snapshot(self) -> dict:
        """Full comparable state as plain data, roles as their `Role.value`
        codes: the shape the static reference also builds."""
        members: dict[int, set[EdgeKey]] = {i: set() for i in self.levels}
        k = self.base.k
        for key in self.base.matching:
            members[self.inst.level_of_rank(k[key[0]])].add(key)
        return {
            "m0": self.base.snapshot(),
            "members": {i: frozenset(keys) for i, keys in members.items()},
            "roles": {i: tuple(r.value for r in row) for i, row in self.role.items()},
            "m_i": {i: ls.state.snapshot() for i, ls in self.levels.items()},
            "union": dict(self.union.mult),
        }

    # -- updates ---------------------------------------------------------

    def handle_update(self, op: str, u: int, v: int) -> UpdateReport:
        """Apply one edge insert ("ins") or delete ("del") through all four steps.

        An update the instance rejects (unknown op, self-loop, vertex out of
        range, duplicate insert, absent delete, degree above the cap) raises
        a `DynMatchError` before any state changes.
        """
        t0 = time.perf_counter_ns()
        pops0 = self.base.counters["pops"]
        # Union updates must replay in operation order: one pipeline update
        # can make an edge join a level matching and then leave it again.
        level_deltas: list[tuple[int, DeltaList]] = []
        trigger = None
        probes = 0
        role_changes = 0

        # Step 1: base matching.
        # The layers index an edge by its vertex ids and store ranks, which
        # pack the edge key.  The updated edge is passed as its record's
        # tuple, so a delta lists it under that key; a cascade decodes its
        # own keys from ranks.
        if op == "ins":
            record = self.inst.admit_edge(u, v)
            key = record.key
            base_delta = self.base.apply_insert(key, record.ranks[0])
        elif op == "del":
            record = self.inst.retire_edge(u, v)
            key = record.key
            base_delta = self.base.apply_delete(key)
        else:
            raise UnknownOpError(f"unknown op {op!r}")

        if base_delta is EMPTY_DELTA:
            # M_0 and the roles are unchanged: the updated edge itself may
            # still belong to a level graph; reflect exactly that.
            i = self._membership_level(key)
            if i is not None:
                state = self.levels[i].state
                if op == "ins":
                    d = state.apply_insert(key, record.ranks[i])
                else:
                    d = state.apply_delete(key)
                if d is not EMPTY_DELTA:
                    level_deltas.append((i, d))
        else:
            # Step 2: roles of every endpoint the base delta touched.
            changed = set(chain(*base_delta.left, *base_delta.joined))
            role_deltas = self.update_roles(changed)
            role_changes = sum(map(len, role_deltas.values()))
            # Step 3: level graph memberships, pruned by the trigger level,
            # the level of the updated edge's base rank (module docstring).
            trigger = self.inst.level_of_rank(record.ranks[0])
            alpha = self.inst.alpha_for_level(trigger)
            probes = self.rebuild_memberships(role_deltas, alpha, level_deltas)

        # Step 4: forward all deltas to the final matcher, in operation order,
        # if any matching moved.
        if base_delta is EMPTY_DELTA and not level_deltas:
            answer_delta = EMPTY_DELTA
        else:
            # The union writes its changes straight into the answer delta.
            # Positional `out`: perfbench's tracer forwards positional
            # arguments only.  The base delta goes first, in its own loops,
            # so no combined list of (level, delta) pairs is built.
            answer_delta = DeltaList()
            remove, add = self.union.remove, self.union.add
            for k_ in base_delta.left:
                remove(k_, answer_delta)
            for k_ in base_delta.joined:
                add(k_, answer_delta)
            for _, delta in level_deltas:
                for k_ in delta.left:
                    remove(k_, answer_delta)
                for k_ in delta.joined:
                    add(k_, answer_delta)

        # Built positionally: on this per-update path a keyword call costs
        # more than the dataclass construction itself.
        return UpdateReport(
            op, key, base_delta, level_deltas, answer_delta, trigger,
            role_changes, probes, self.base.counters["pops"] - pops0,
            time.perf_counter_ns() - t0,
        )

    def update_roles(self, changed: set[int]) -> RoleDeltas:
        """Recompute the role case table for every vertex whose match status
        moved, and keep `match_level` current.

        Only levels from max(1, min(old, new)) to max(old, new) of the
        vertex's old and new match levels can change: below both it is
        absent, above both it is on the U side.  Level `new` is recomputed
        even when old == new, since the vertex may have been rematched to
        another edge of the same level.
        """
        deltas: RoleDeltas = {}
        match_level = self.match_level
        k = self.base.k
        # `Instance.level_of_rank`, inlined.
        levels = self.inst.levels
        bounds = self.inst.bounds
        tapes = self.inst.tapes
        records = self.inst.records
        role = self.role
        # Enum members bound once: a `Role.X` lookup costs ~100 ns.
        absent, v_a, v_b = Role.ABSENT, Role.V_A, Role.V_B
        u_side = _U_SIDE
        for v in sorted(changed):
            was = match_level[v]
            r = k.get(v)
            if r is None:
                lv = 0
            else:
                key = key_of(r)
                lv = levels - bisect_left(bounds, r)
            match_level[v] = lv
            tape = tapes[v]
            # Written without min/max: their generic calls cost more than
            # the rest of this loop's set-up.
            lo, hi = (was, lv) if was < lv else (lv, was)
            for i in range(lo or 1, hi + 1):
                if i > lv:
                    new = u_side[tape >> i - 1 & 1]
                elif i < lv or not records[key].sampled >> i - 1 & 1:
                    new = absent
                elif v == key[0]:
                    new = v_a
                else:
                    new = v_b
                row = role[i]
                old = row[v]
                if new is not old:
                    row[v] = new
                    row_deltas = deltas.get(i)
                    if row_deltas is None:
                        deltas[i] = [(v, old, new)]
                    else:
                        row_deltas.append((v, old, new))
        return deltas

    def rebuild_memberships(
        self,
        role_deltas: RoleDeltas,
        alpha: Rank,
        level_deltas: list[tuple[int, DeltaList]],
    ) -> int:
        """Replay role changes onto the level graphs: vertex-set leaves first,
        then joins, levels in increasing order.  Appends each level delta to
        `level_deltas`; returns the number of candidates probed, the edges
        the role-filtered scans returned."""
        probes = 0
        absent = Role.ABSENT
        levels = sorted(role_deltas)
        for i in levels:
            state = self.levels[i].state
            index = state.index
            for v, old, new in role_deltas[i]:
                # A vertex with no edge in G_i has nothing to drop: `incident`
                # would return [] before counting any scan.
                if old is absent or v not in index:
                    continue
                for key in state.incident(v):
                    d = state.apply_delete(key)
                    if d is not EMPTY_DELTA:
                        level_deltas.append((i, d))
        records = self.inst.records
        neighbors_above = self.base.neighbors_above
        partner = _PARTNER
        for i in levels:
            state = self.levels[i].state
            index = state.index
            role = self.role[i]
            for v, old, new in role_deltas[i]:
                if new is absent:
                    continue
                # Roles are final for this update, so filtering on the
                # partner role inside the scan admits what the level filter
                # would, in the same order.
                candidates = neighbors_above(v, alpha, role, partner[new])
                probes += len(candidates)
                for key in candidates:
                    if key[1] not in index.get(key[0], ()):
                        d = state.apply_insert(key, records[key].ranks[i])
                        if d is not EMPTY_DELTA:
                            level_deltas.append((i, d))
        return probes

    # -- internals -------------------------------------------------------

    def _membership_level(self, key: EdgeKey) -> int | None:
        """The unique level graph the edge belongs to under current roles.

        A V side at level i is matched at level i and a U side is matched
        below i, so only i = max(match levels) can admit the edge.
        """
        u, v = key
        match_level = self.match_level
        i = match_level[u]
        j = match_level[v]
        if j > i:
            i = j
        if i and _PARTNER.get(self.role[i][u]) is self.role[i][v]:
            return i
        return None
