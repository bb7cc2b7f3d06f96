import copy
import gc
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from dynmatch.core import Instance, InstanceConfig
from dynmatch.errors import (
    CapacityError,
    ConfigError,
    DuplicateEdgeError,
    DynMatchError,
    EdgeNotFoundError,
    LoopEdgeError,
    UnknownOpError,
)
from dynmatch.pipeline import _PARTNER, Pipeline, Role
from dynmatch.reference import _ADMITTED, static_reference
from dynmatch.replay import replay
from dynmatch.rgmm import EMPTY_DELTA
from dynmatch.streams import StreamSpec, generate_stream
from helpers import violations


def fresh(n=8, delta=8, levels=2, seed=5, **kw):
    inst = Instance(InstanceConfig(n, delta, levels, algo_seed=seed, **kw))
    return inst, Pipeline(inst)


class TestSingleUpdates:
    def test_first_edge(self):
        inst, pipe = fresh(n=4, delta=4, levels=2, seed=7)
        report = pipe.handle_update("ins", 1, 2)
        assert pipe.base.matching == {(1, 2)}
        level = inst.level_of_rank(inst.records[(1, 2)].ranks[0])
        assert pipe.snapshot()["members"][level] == {(1, 2)}
        # both endpoints changed roles away from the U side at their level
        assert report.role_changes >= 2
        for ls in pipe.levels.values():
            assert ls.state.rank_of == {}
        assert pipe.current_answer() == {(1, 2)}

    def test_delete_outside_all_matchings_is_a_noop(self):
        inst, pipe = fresh(n=4, delta=4, levels=2, seed=41)
        pipe.handle_update("ins", 0, 1)
        pipe.handle_update("ins", 1, 2)  # may or may not displace
        # find an edge not in M_0 and not in any level graph
        target = None
        for key in list(inst.records):
            if key not in pipe.base.matching and all(
                key not in ls.state.rank_of for ls in pipe.levels.values()
            ):
                target = key
        if target is None:
            pytest.skip("seed produced no such edge")
        report = pipe.handle_update("del", *target)
        assert report.base_delta is EMPTY_DELTA
        assert report.level_deltas == []
        assert report.answer_delta is EMPTY_DELTA

    def test_snapshot_matches_reference_after_each_single_update(self):
        inst, pipe = fresh(n=8, delta=8, levels=2, seed=13)
        config = inst.config
        for op, u, v in [
            ("ins", 0, 1), ("ins", 1, 2), ("ins", 2, 3), ("ins", 3, 4),
            ("ins", 4, 5), ("del", 1, 2), ("ins", 1, 2), ("del", 0, 1),
        ]:
            pipe.handle_update(op, u, v)
            assert pipe.snapshot() == static_reference(
                inst.records.values(), inst.tapes, config
            )

    def test_current_answer_is_a_copy(self):
        _, pipe = fresh(n=40, delta=8, levels=3, seed=19)
        for ev in generate_stream(StreamSpec("erdos-churn", 40, 8, 200, 3, {})):
            pipe.handle_update(ev.op, ev.u, ev.v)
        answer = frozenset(pipe.current_answer())
        size = pipe.union.size()
        snap = pipe.snapshot()
        assert answer and size == len(answer)
        mine = pipe.current_answer()
        mine.add((40, 41))  # not even an edge of this graph
        assert pipe.current_answer() == answer
        mine.clear()
        assert pipe.current_answer() == answer
        assert pipe.union.size() == size
        assert pipe.snapshot() == snap


class TestRejectedUpdates:
    """A rejected update raises a typed error and changes no state."""

    @staticmethod
    def _loaded():
        # delta 2: vertices 0, 1 and 5 sit at the degree cap
        inst, pipe = fresh(n=8, delta=2, levels=2, seed=5)
        for u, v in [(0, 1), (0, 4), (1, 5), (5, 6)]:
            pipe.handle_update("ins", u, v)
        return inst, pipe

    @pytest.mark.parametrize(
        "op,u,v,error",
        [
            ("ins", 1, 0, DuplicateEdgeError),
            ("del", 2, 3, EdgeNotFoundError),
            ("ins", 0, 2, CapacityError),
            ("ins", 2, 8, ConfigError),
            ("ins", -1, 2, ConfigError),
            ("ins", 3, 3, LoopEdgeError),
            ("del", 3, 3, LoopEdgeError),
            ("upd", 2, 3, UnknownOpError),
        ],
    )
    def test_rejection_is_typed_and_changes_nothing(self, op, u, v, error):
        inst, pipe = self._loaded()
        before = pipe.snapshot()
        degrees = list(inst.deg)
        with pytest.raises(error):
            pipe.handle_update(op, u, v)
        assert pipe.snapshot() == before
        assert inst.deg == degrees
        # no randomness was drawn either: the next arrival gets the ranks a
        # pipeline that never saw the rejection gives it
        _, twin = self._loaded()
        pipe.handle_update("ins", 2, 3)
        twin.handle_update("ins", 2, 3)
        assert pipe.snapshot() == twin.snapshot()


class PipelineMachine(RuleBasedStateMachine):
    """Random inserts and deletes on a tiny universe.  Vertices are drawn
    from range(n + 1), so loops, ids outside the universe, duplicate
    inserts, absent deletes and degree-cap overflows all occur.  A rejected
    update leaves the state, the records, the degrees and the random
    generator exactly as they were; an accepted one leaves the state equal
    to the static reference."""

    @initialize(
        n=st.integers(2, 8),
        cap=st.integers(2, 3),
        levels=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def setup(self, n, cap, levels, seed):
        self.inst, self.pipe = fresh(n, cap, levels, seed, sample_p=0.12)

    def _state(self):
        inst = self.inst
        return (
            copy.deepcopy(self.pipe.snapshot()),
            dict(inst.records),
            list(inst.deg),
            inst._rng.getstate(),
        )

    @rule(op=st.sampled_from(["ins", "del"]), data=st.data())
    def update(self, op, data):
        inst = self.inst
        u = data.draw(st.integers(0, inst.n))
        v = data.draw(st.integers(0, inst.n))
        before = self._state()
        try:
            self.pipe.handle_update(op, u, v)
        except DynMatchError:
            assert self._state() == before
        else:
            assert self.pipe.snapshot() == static_reference(
                inst.records.values(), inst.tapes, inst.config
            )


TestPipelineMachine = PipelineMachine.TestCase
TestPipelineMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


class TestLevelDeltaOrder:
    def test_level_deltas_replay_old_to_new_in_order(self):
        # The union matcher replays report.level_deltas in list order, so
        # the list alone must carry each M_i from its old to its new value.
        events = generate_stream(
            StreamSpec("erdos-churn", 200, 16, 3000, 73, {"target_edges": 800})
        )
        inst = Instance(InstanceConfig(200, 16, 3, sample_p=0.12, algo_seed=74))
        pipe = Pipeline(inst)
        revisits = 0
        for ev in events:
            cur = {i: set(ls.state.matching) for i, ls in pipe.levels.items()}
            report = pipe.handle_update(ev.op, ev.u, ev.v)
            for i, d in report.level_deltas:
                for key in d.left:
                    assert key in cur[i]
                    cur[i].remove(key)
                for key in d.joined:
                    assert key not in cur[i]
                    cur[i].add(key)
            for i, ls in pipe.levels.items():
                assert cur[i] == ls.state.matching
            levels = [i for i, _ in report.level_deltas]
            revisits += len(levels) - len(set(levels))
        # the stream exercises updates that touch one level more than once
        assert revisits > 0


class TestLeanPath:
    def test_deltas_are_not_shared_across_updates(self):
        # An update that moves no matching edge reports the shared
        # EMPTY_DELTA everywhere; every non-empty delta a report hands out
        # stays as it was through all later updates.
        events = generate_stream(
            StreamSpec("erdos-churn", 120, 12, 2000, 17, {"target_edges": 400})
        )
        inst = Instance(InstanceConfig(120, 12, 3, sample_p=0.12, algo_seed=18))
        pipe = Pipeline(inst)
        kept = []
        noops = 0
        for ev in events:
            report = pipe.handle_update(ev.op, ev.u, ev.v)
            deltas = [report.base_delta, report.answer_delta]
            deltas += [d for _, d in report.level_deltas]
            if report.base_delta is EMPTY_DELTA and not report.level_deltas:
                noops += 1
                assert report.answer_delta is EMPTY_DELTA
            for d in deltas:
                if d is not EMPTY_DELTA:
                    kept.append((d, list(d.left), list(d.joined)))
        assert noops and sum(1 for d, _, _ in kept if d) > 100
        assert EMPTY_DELTA.left == () and EMPTY_DELTA.joined == ()
        for d, left, joined in kept:
            assert d.left == left and d.joined == joined
        # the lean path forwarded everything that moved
        assert pipe.snapshot() == static_reference(
            inst.records.values(), inst.tapes, inst.config
        )


class TestCollectorContract:
    def test_replay_leaves_no_cyclic_garbage(self):
        # Every object an update allocates is freed by reference counting,
        # so the cyclic collector finds nothing after a replay.
        events = generate_stream(
            StreamSpec("erdos-churn", 200, 16, 2000, 71, {"target_edges": 800})
        )
        config = InstanceConfig(200, 16, 3, sample_p=0.12, algo_seed=72)
        gc.collect()
        gc.disable()
        try:
            pipe = Pipeline(Instance(config))
            for ev in events:
                pipe.handle_update(ev.op, ev.u, ev.v)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(pipe.current_answer()) > len(pipe.base.matching)
        assert unreachable == 0


class TestRoles:
    def test_unmatched_vertex_is_u_side_everywhere(self):
        inst, pipe = fresh(n=4, delta=4, levels=3, seed=1)
        for i in range(1, 4):
            for v in range(4):
                want = Role.U_B if inst.tapes[v] >> i - 1 & 1 else Role.U_A
                assert pipe.role[i][v] is want

    def _forced_instance(self, sampled, level, levels=3):
        """One matched edge (0,1) with a chosen level and sampled bit."""
        for seed in range(4000):
            inst, pipe = fresh(n=4, delta=4, levels=levels, seed=seed)
            pipe.handle_update("ins", 0, 1)
            rec = inst.records[(0, 1)]
            lvl = inst.level_of_rank(rec.ranks[0])
            if lvl == level and bool(rec.sampled >> level - 1 & 1) == sampled:
                return inst, pipe
        raise AssertionError("no seed produced the requested configuration")

    def test_unsampled_match_is_absent_at_its_level(self):
        # matched by an unsampled level-2 edge: absent at levels 1 and 2,
        # U side above
        inst, pipe = self._forced_instance(sampled=False, level=2)
        assert pipe.role[1][0] is Role.ABSENT
        assert pipe.role[2][0] is Role.ABSENT
        want = Role.U_B if inst.tapes[0] >> 2 & 1 else Role.U_A
        assert pipe.role[3][0] is want

    def test_sampled_match_takes_v_side_by_id(self):
        inst, pipe = self._forced_instance(sampled=True, level=1)
        assert pipe.role[1][0] is Role.V_A  # lower id endpoint
        assert pipe.role[1][1] is Role.V_B
        for i in (2, 3):
            for v in (0, 1):
                want = Role.U_B if inst.tapes[v] >> i - 1 & 1 else Role.U_A
                assert pipe.role[i][v] is want

    def test_role_determinism_against_recompute(self):
        # after every update: every role equals the static reference's, the
        # maintained match levels equal the level of each vertex's M_0 rank,
        # and the O(1) membership level agrees with the level filter
        n, levels = 60, 4
        inst, pipe = fresh(n=n, delta=12, levels=levels, seed=3, sample_p=0.12)
        events = generate_stream(StreamSpec("erdos-churn", n, 12, 600, 9))
        v_roles = admitted = 0
        for ev in events:
            pipe.handle_update(ev.op, ev.u, ev.v)
            want = static_reference(inst.records.values(), inst.tapes, inst.config)
            assert {
                i: tuple(r.value for r in row) for i, row in pipe.role.items()
            } == want["roles"]
            v_roles += sum(
                role in (Role.V_A.value, Role.V_B.value)
                for row in want["roles"].values() for role in row
            )
            k = pipe.base.k
            assert pipe.match_level == [
                inst.level_of_rank(k[v]) if v in k else 0
                for v in range(n)
            ]
            for key in inst.records:
                admitting = [
                    i for i in range(1, levels + 1)
                    if (pipe.role[i][key[0]].value, pipe.role[i][key[1]].value)
                    in _ADMITTED
                ]
                assert len(admitting) <= 1
                admitted += len(admitting)
                assert pipe._membership_level(key) == (admitting[0] if admitting else None)
        assert v_roles > 0 and admitted > 0


class TestRebuild:
    def test_no_role_deltas_no_level_changes(self):
        _, pipe = fresh()
        deltas = []
        probes = pipe.rebuild_memberships({}, pipe.inst.alpha_for_level(1), deltas)
        assert probes == 0 and deltas == []

    def test_candidate_scan_covers_level_edges(self):
        # after every update, every maintained level edge at v must be visible
        # to the role-filtered range scan with the alpha of any level at
        # least as deep
        inst, pipe = fresh(n=24, delta=12, levels=3, seed=21, sample_p=0.12)
        events = generate_stream(StreamSpec("erdos-churn", 24, 12, 250, 22))
        checked = 0
        for ev in events:
            pipe.handle_update(ev.op, ev.u, ev.v)
            for j in range(1, 4):
                alpha = inst.alpha_for_level(j)
                for i in range(1, j + 1):
                    role = pipe.role[i]
                    for key in pipe.levels[i].state.rank_of:
                        for v in key:
                            got = set(
                                pipe.base.neighbors_above(v, alpha, role, _PARTNER[role[v]])
                            )
                            assert key in got
                            checked += 1
        assert checked > 0


    def test_views_are_fresh_copies(self):
        # rank_of and matching are built on every read: mutating what they
        # return changes neither snapshot() nor the next update's deltas
        events = generate_stream(StreamSpec("erdos-churn", 24, 8, 300, 75))
        _, pipe = fresh(n=24, delta=8, levels=2, seed=76, sample_p=0.12)
        _, twin = fresh(n=24, delta=8, levels=2, seed=76, sample_p=0.12)
        level_edges = 0
        for ev in events:
            for state in [pipe.base, *(ls.state for ls in pipe.levels.values())]:
                state.rank_of.clear()
                state.matching.clear()
            assert pipe.snapshot() == twin.snapshot()
            got = pipe.handle_update(ev.op, ev.u, ev.v)
            want = twin.handle_update(ev.op, ev.u, ev.v)
            assert (got.base_delta, got.level_deltas, got.answer_delta) == (
                want.base_delta, want.level_deltas, want.answer_delta
            )
            level_edges += sum(len(ls.state.rank_of) for ls in pipe.levels.values())
        assert level_edges


class TestStreamEquivalence:
    def test_random_stream_matches_reference(self):
        events = generate_stream(StreamSpec("erdos-churn", 32, 16, 200, 71))
        summary = replay(events, InstanceConfig(32, 16, 2, algo_seed=72), oracle_every=1)
        assert summary["events"] == summary["checkpoints"] == 200
        assert violations(summary) == {}

    @pytest.mark.parametrize(
        "generator,n,delta,params",
        [
            ("sliding-window", 24, 8, {"window": 30}),
            ("clique-pm", 16, 8, {}),
            ("bipartite-churn", 24, 8, {}),
            # saturated: the target exceeds what the degree cap allows
            ("erdos-churn", 12, 3, {"target_edges": 60}),
        ],
    )
    def test_other_generators_match_reference(self, generator, n, delta, params):
        # every check after every update, reference equality among them
        events = generate_stream(StreamSpec(generator, n, delta, 150, 81, params))
        summary = replay(events, InstanceConfig(n, delta, 2, algo_seed=82), oracle_every=1)
        assert summary["checkpoints"] == len(events)
        assert violations(summary) == {}

    def test_insert_only_build_any_order_matches_reference(self):
        rng = random.Random(55)
        inst, pipe = fresh(n=12, delta=11, levels=2, seed=56)
        pool = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        picked = rng.sample(pool, 30)
        for u, v in picked:
            pipe.handle_update("ins", u, v)
        assert pipe.snapshot() == static_reference(
            inst.records.values(), inst.tapes, inst.config
        )

    def test_answer_and_base_sizes_bound_mu(self):
        # maximality, |M_0| >= mu/2 and |answer| >= |M_0| are three of the
        # checks replay makes after every update
        events = generate_stream(StreamSpec("erdos-churn", 20, 10, 150, 62))
        summary = replay(events, InstanceConfig(20, 10, 2, algo_seed=61), oracle_every=1)
        assert summary["checkpoints"] == 150
        assert violations(summary) == {}

    def test_union_degree_bound(self):
        inst, pipe = fresh(n=20, delta=10, levels=3, seed=63)
        events = generate_stream(StreamSpec("erdos-churn", 20, 10, 200, 64))
        for ev in events:
            pipe.handle_update(ev.op, ev.u, ev.v)
            bound = inst.levels + 1
            for v in range(20):
                assert len(pipe.union.adj.get(v, ())) <= bound


class TestCliquePlusPendants:
    def test_static_build_beats_base_matching(self):
        # worst-case family at n=200 per side-pair count 100: the second
        # stage should strictly improve on M_0 for this seed
        # improvement is an expectation, not a per-seed certainty, at this
        # size; the seed is one where the augmentation fires
        n = 200
        half = n // 2
        inst, pipe = fresh(n=n, delta=half, levels=2, seed=12)
        for i in range(half):
            for j in range(i + 1, half):
                pipe.handle_update("ins", i, j)
        for i in range(half):
            pipe.handle_update("ins", i, i + half)
        m0 = len(pipe.base.matching)
        answer = len(pipe.current_answer())
        assert answer >= m0
        assert answer > m0, "expected strict improvement for this seed"
