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
   match level, U side above it.  So only the levels between the old and the
   new match level are recomputed;
3. replay role changes onto the level graphs: departing vertices drop their
   incident level edges, arriving vertices scan the base eliminator index
   above the trigger threshold for neighbors holding the partner role --
   levels deeper than the trigger are provably untouched;
4. forward every matching delta into the union matcher.  Most updates move
   no matching edge at all (the updated edge is neither in M_0 nor in a level
   matching), so step 4 runs only when the base delta or some level delta is
   non-empty; otherwise the answer delta is the shared `EMPTY_DELTA`.

The trigger level is the level of the updated edge's base rank r.  Greedy
order below r is the same before and after the update, so every edge that
moves in M_0 ranks at or above r, and the updated edge itself is in every
non-empty base delta: r is the lowest rank the update touches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .core import EdgeKey, Instance, Rank
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
        # of every level, split by its partition coin.
        self.role: dict[int, list[Role]] = {
            i: [
                Role.U_A if instance.partition(v, i) == 0 else Role.U_B
                for v in range(instance.n)
            ]
            for i in range(1, instance.levels + 1)
        }
        #: Per vertex: 0 when unmatched in M_0, else the level of its M_0 edge.
        self.match_level: list[int] = [0] * instance.n
        self.union = UnionMatcher(instance.config.answer_depth())

    # -- queries ---------------------------------------------------------

    def current_answer(self) -> set[EdgeKey]:
        """The maintained matching over M_0 u M_1 u ... u M_L, as a fresh copy:
        mutating it leaves the pipeline's state alone."""
        return self.union.matching()

    def snapshot(self) -> dict:
        """Full comparable state (the shape the static reference also builds)."""
        members: dict[int, set[EdgeKey]] = {i: set() for i in self.levels}
        k = self.base.k
        for key in self.base.matching:
            members[self.inst.level_of_rank(k[key[0]])].add(key)
        return {
            "m0": self.base.snapshot(),
            "members": {i: frozenset(keys) for i, keys in members.items()},
            "roles": {i: tuple(self.role[i]) for i in self.role},
            "g_edges": {i: ls.state.rank_of for i, ls in self.levels.items()},
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
        if op not in ("ins", "del"):
            raise UnknownOpError(f"unknown op {op!r}")
        t0 = time.perf_counter_ns()
        pops0 = self.base.counters["pops"]
        # Union updates must replay in operation order: one pipeline update
        # can make an edge join a level matching and then leave it again.
        level_deltas: list[tuple[int, DeltaList]] = []
        trigger = None
        probes = 0
        role_changes = 0

        # Step 1: base matching.
        # The layers index an edge by its vertex ids; only `matched` holds
        # edge keys.  The updated edge is passed as its record's tuple, so it
        # joins a matching under that key; a cascade builds its own keys.
        if op == "ins":
            record = self.inst.admit_edge(u, v)
            key = record.key
            base_delta = self.base.apply_insert(key, record.ranks[0])
        else:
            record = self.inst.retire_edge(u, v)
            key = record.key
            base_delta = self.base.apply_delete(key)

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
                self._log_level_delta(level_deltas, i, d)
        else:
            # Step 2: roles of every endpoint the base delta touched.
            changed: set[int] = set()
            for moved in (base_delta.left, base_delta.joined):
                for a, b in moved:
                    changed.add(a)
                    changed.add(b)
            role_deltas = self.update_roles(changed)
            role_changes = sum(len(v) for v in role_deltas.values())
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
            answer_delta = DeltaList()
            for _, delta in [(0, base_delta), *level_deltas]:
                for k_ in delta.left:
                    answer_delta.extend(self.union.remove(k_))
                for k_ in delta.joined:
                    answer_delta.extend(self.union.add(k_))

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
        for v in sorted(changed):
            was = match_level[v]
            lv = self._match_level(v)
            match_level[v] = lv
            for i in range(max(1, min(was, lv)), max(was, lv) + 1):
                new = self._role_for(v, i, lv)
                old = self.role[i][v]
                if new is not old:
                    self.role[i][v] = new
                    deltas.setdefault(i, []).append((v, old, new))
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
        for i in sorted(role_deltas):
            ls = self.levels[i]
            for v, old, new in role_deltas[i]:
                if old is Role.ABSENT:
                    continue
                for key in ls.state.incident(v):
                    self._log_level_delta(level_deltas, i, ls.state.apply_delete(key))
        for i in sorted(role_deltas):
            ls = self.levels[i]
            index = ls.state.index
            role = self.role[i]
            for v, old, new in role_deltas[i]:
                if new is Role.ABSENT:
                    continue
                # Roles are final for this update, so filtering on the
                # partner role inside the scan admits what the level filter
                # would, in the same order.
                candidates = self.base.neighbors_above(v, alpha, role, _PARTNER[new])
                probes += len(candidates)
                for key in candidates:
                    if key[1] not in index.get(key[0], ()):
                        rec = self.inst.records[key]
                        d = ls.state.apply_insert(rec.key, rec.ranks[i])
                        self._log_level_delta(level_deltas, i, d)
        return probes

    # -- internals -------------------------------------------------------

    @staticmethod
    def _log_level_delta(
        level_deltas: list[tuple[int, DeltaList]], i: int, d: DeltaList
    ) -> None:
        if d is not EMPTY_DELTA:
            level_deltas.append((i, d))

    def _match_level(self, v: int) -> int:
        """0 when v is unmatched in M_0, else the level of its matched edge."""
        if v not in self.base.matched:
            return 0
        return self.inst.level_of_rank(self.base.k[v])

    def _role_for(self, v: int, i: int, lv: int) -> Role:
        if lv < i:
            return Role.U_A if self.inst.partition(v, i) == 0 else Role.U_B
        if lv > i:
            return Role.ABSENT
        key = self.base.matched[v]
        if not self.inst.records[key].sampled[i - 1]:
            return Role.ABSENT
        return Role.V_A if v == key[0] else Role.V_B

    def _membership_level(self, key: EdgeKey) -> int | None:
        """The unique level graph the edge belongs to under current roles.

        A V side at level i is matched at level i and a U side is matched
        below i, so only i = max(match levels) can admit the edge.
        """
        u, v = key
        i = max(self.match_level[u], self.match_level[v])
        if i and _PARTNER.get(self.role[i][u]) is self.role[i][v]:
            return i
        return None
