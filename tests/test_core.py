import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.core import (
    MAX_LEVELS,
    MAX_VERTICES,
    RANK_SCALE,
    VERTEX_STATE_BUDGET,
    Instance,
    InstanceConfig,
    UNMATCHED_RANK,
    ZERO_RANK,
    edge_key,
    level_of_rank,
    make_rank,
    threshold_rank,
    thresholds_for,
)
from dynmatch.errors import (
    CapacityError,
    ConfigError,
    DuplicateEdgeError,
    EdgeNotFoundError,
    LoopEdgeError,
)
from dynmatch.reference import level_by_scan

from helpers import rank_at, unpack_rank


def make_instance(n=4, delta=4, levels=2, seed=7, **kw):
    return Instance(InstanceConfig(n, delta, levels, algo_seed=seed, **kw))


class TestConfig:
    def test_tape_shape_forced_by_config(self):
        inst = make_instance(n=4, delta=4, levels=2, seed=7)
        assert len(inst.tapes) == 4
        # bit i-1 holds the level-i coin, so L = 2 leaves only 2 bits
        assert all(isinstance(t, int) and 0 <= t < 2**2 for t in inst.tapes)

    def test_same_config_gives_identical_tapes(self):
        a = make_instance(seed=7)
        b = make_instance(seed=7)
        assert a.tapes == b.tapes

    @pytest.mark.parametrize(
        "kw",
        [
            {"levels": 0},
            {"n": 0},
            {"delta": 0},
            {"sample_p": 0.0},
            {"sample_p": 0.2},
        ],
    )
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            make_instance(**kw)

    def test_vertex_universe_capped_at_32_bit_ids(self):
        with pytest.raises(ConfigError, match="budget"):
            InstanceConfig(MAX_VERTICES, 4, 2).validate()
        with pytest.raises(ConfigError, match="exceeds"):
            InstanceConfig(2**32, 4, 2).validate()
        with pytest.raises(ConfigError):
            Instance(InstanceConfig(2**32, 4, 2))

    @pytest.mark.parametrize("levels", [1, 2, 4, MAX_LEVELS])
    def test_vertex_state_budget(self, levels):
        # validated only: no test builds an instance this large
        per_vertex = 28 + 9 * levels + (48 if levels > 8 else 0)
        largest = VERTEX_STATE_BUDGET // per_vertex
        InstanceConfig(largest, 4, levels).validate()
        with pytest.raises(ConfigError) as err:
            InstanceConfig(largest + 1, 4, levels).validate()
        message = str(err.value)
        assert f"vertex count {largest + 1} at levels {levels}" in message
        assert f"{VERTEX_STATE_BUDGET}-byte budget" in message

    def test_levels_capped(self):
        InstanceConfig(4, 4, MAX_LEVELS).validate()
        with pytest.raises(ConfigError, match=rf"\[1, {MAX_LEVELS}\], got 1500"):
            InstanceConfig(4, 4, 1500).validate()
        with pytest.raises(ConfigError):
            Instance(InstanceConfig(4, 4, MAX_LEVELS + 1))

    def test_answer_depth_defaults_to_levels_plus_one(self):
        assert InstanceConfig(4, 4, 3).answer_depth() == 4


class TestEdgeLifecycle:
    def test_admit_draws_fresh_ranks(self):
        inst = make_instance()
        rec = inst.admit_edge(1, 2)
        assert rec.key == (1, 2)
        assert len(rec.ranks) == inst.levels + 1
        assert isinstance(rec.sampled, int)
        assert 0 <= rec.sampled < 2**inst.levels
        assert all(unpack_rank(r)[1:] == (1, 2) for r in rec.ranks)

    def test_coins_are_bits_in_draw_order(self):
        # from a fresh Random(algo_seed): bit i-1 of vertex v's tape is the
        # (v*L + i)-th getrandbits(1); an edge's bit i-1 is random() < p,
        # drawn after its L + 1 rank draws
        n, levels, p = 5, 3, 0.12
        inst = make_instance(n=n, delta=4, levels=levels, seed=3, sample_p=p)
        rng = random.Random(3)
        bits = [rng.getrandbits(1) for _ in range(n * levels)]
        assert inst.tapes == [
            sum(bits[v * levels + i - 1] << i - 1 for i in range(1, levels + 1))
            for v in range(n)
        ]
        coins_seen = 0
        for u, v in [(0, 1), (2, 4), (1, 3), (0, 4), (2, 3), (3, 4)]:
            rec = inst.admit_edge(u, v)
            values = [rng.getrandbits(64) for _ in range(levels + 1)]
            coins = [rng.random() < p for _ in range(levels)]
            assert [unpack_rank(r)[0] for r in rec.ranks] == values
            assert rec.sampled == sum(c << i for i, c in enumerate(coins))
            coins_seen += sum(coins)
        assert 0 < coins_seen < 6 * levels
        assert 0 < sum(map(int.bit_count, inst.tapes)) < n * levels

    def test_ranks_are_not_tracked_by_the_collector(self):
        inst = make_instance(n=6, levels=3)
        for u, v in [(0, 1), (1, 2), (2, 5), (3, 4)]:
            rec = inst.admit_edge(u, v)
            assert all(not gc.is_tracked(r) for r in rec.ranks)

    def test_duplicate_rejected_after_canonicalization(self):
        inst = make_instance()
        inst.admit_edge(1, 2)
        with pytest.raises(DuplicateEdgeError):
            inst.admit_edge(2, 1)

    def test_self_loop_rejected(self):
        inst = make_instance()
        with pytest.raises(LoopEdgeError):
            inst.admit_edge(1, 1)

    def test_capacity_enforced(self):
        inst = make_instance(n=5, delta=2)
        inst.admit_edge(0, 1)
        inst.admit_edge(0, 2)
        with pytest.raises(CapacityError):
            inst.admit_edge(0, 3)

    def test_retire_returns_record_and_decrements_degree(self):
        inst = make_instance()
        rec = inst.admit_edge(1, 2)
        assert inst.deg[1] == 1
        out = inst.retire_edge(1, 2)
        assert out == rec
        assert inst.deg[1] == 0

    def test_retire_absent_edge(self):
        inst = make_instance()
        with pytest.raises(EdgeNotFoundError):
            inst.retire_edge(1, 2)

    def test_reinsert_draws_new_randomness(self):
        inst = make_instance()
        first = inst.admit_edge(1, 2)
        inst.retire_edge(1, 2)
        second = inst.admit_edge(1, 2)
        assert first.ranks != second.ranks
        third = inst.retire_edge(1, 2)
        assert third == second

    def test_replay_determinism(self):
        stream = [("ins", 0, 1), ("ins", 1, 2), ("del", 0, 1), ("ins", 0, 3), ("ins", 0, 1)]
        outs = []
        for _ in range(2):
            inst = make_instance(seed=99)
            recs = []
            for op, u, v in stream:
                if op == "ins":
                    recs.append(inst.admit_edge(u, v))
                else:
                    inst.retire_edge(u, v)
            outs.append(recs)
        assert outs[0] == outs[1]


# A packed rank paired with the (value, lo, hi) triple it must order like.
# Sentinels and thresholds carry a tie-break above every vertex id.
_TIE_ABOVE = MAX_VERTICES
_values = st.one_of(
    st.integers(min_value=0, max_value=RANK_SCALE - 1),
    st.sampled_from([0, 1, RANK_SCALE // 4, RANK_SCALE // 2, RANK_SCALE - 1]),
)
_vertex = st.integers(min_value=0, max_value=MAX_VERTICES - 1)
_real_ranks = st.builds(
    lambda value, key: (make_rank(value, *key), (value, *key)),
    _values,
    st.tuples(_vertex, _vertex).filter(lambda p: p[0] != p[1]).map(
        lambda p: edge_key(*p)
    ),
)
_threshold_ranks = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
).map(
    lambda f: (
        threshold_rank(f),
        (min(int(f * RANK_SCALE), RANK_SCALE), _TIE_ABOVE, _TIE_ABOVE),
    )
)
_sentinels = st.sampled_from(
    [
        (ZERO_RANK, (0, -1, -1)),
        (UNMATCHED_RANK, (RANK_SCALE - 1, _TIE_ABOVE, _TIE_ABOVE)),
    ]
)
_ranks = st.one_of(_real_ranks, _threshold_ranks, _sentinels)


class TestRankLevels:
    def test_rank_order_is_total(self):
        a = make_rank(5, 0, 1)
        b = make_rank(5, 0, 2)
        assert a < b and not a == b
        assert ZERO_RANK < a < UNMATCHED_RANK

    def test_threshold_example_delta16_l2(self):
        # t_1 = 16^(-1/2) = 0.25
        th = thresholds_for(16, 2)
        assert unpack_rank(th[1])[0] == RANK_SCALE // 4
        assert level_of_rank(rank_at(0.5), th) == 1
        # the interval is half-open: a rank exactly at the boundary value
        # falls in [0, t_1], i.e. level 2
        assert level_of_rank(make_rank(RANK_SCALE // 4, 0, 1), th) == 2
        assert level_of_rank(rank_at(0.1), th) == 2

    def test_thresholds_monotone(self):
        th = thresholds_for(32, 4)
        assert all(th[i] > th[i + 1] for i in range(4))
        assert unpack_rank(th[0])[0] == RANK_SCALE

    @given(
        value=st.integers(min_value=0, max_value=RANK_SCALE - 1),
        delta=st.integers(min_value=2, max_value=64),
        levels=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_levels_partition_rank_space(self, value, delta, levels):
        th = thresholds_for(delta, levels)
        r = make_rank(value, 3, 7)
        lvl = level_of_rank(r, th)
        assert 1 <= lvl <= levels
        # membership matches the defining interval exactly
        if lvl < levels:
            assert th[lvl] < r <= th[lvl - 1]
        else:
            assert r <= th[levels - 1]

    @given(a=_ranks, b=_ranks)
    @settings(max_examples=500, deadline=None)
    def test_packed_order_is_lexicographic(self, a, b):
        (pa, la), (pb, lb) = a, b
        assert (pa < pb) == (la < lb)
        assert (pa == pb) == (la == lb)

    @pytest.mark.parametrize("levels", [1, 2, 4, 7])
    @pytest.mark.parametrize("delta", [1, 2, 16, 32, 256, 4096])
    def test_engine_lookup_agrees_with_oracle_scan(self, levels, delta):
        # the engine bisects; the static reference keeps its own scan
        inst = make_instance(delta=delta, levels=levels)
        th = inst.thresholds
        ranks = [0, UNMATCHED_RANK]
        for t in th:
            ranks += [t - 1, t, t + 1]
        rng = random.Random(levels * 10_000 + delta)
        ranks += [make_rank(rng.getrandbits(64), 3, 7) for _ in range(500)]
        for r in ranks:
            assert inst.level_of_rank(r) == level_by_scan(r, th), r
            assert level_of_rank(r, th) == level_by_scan(r, th), r

    def test_alpha_for_level(self):
        inst = make_instance(delta=16, levels=2)
        assert inst.alpha_for_level(1) == inst.thresholds[1]
        assert inst.alpha_for_level(2) == ZERO_RANK


def test_edge_key_canonicalizes():
    assert edge_key(5, 2) == (2, 5)
    with pytest.raises(LoopEdgeError):
        edge_key(3, 3)
