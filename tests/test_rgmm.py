import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch.core import UNMATCHED_RANK, edge_key, key_of, make_rank
from dynmatch.errors import DuplicateEdgeError, EdgeNotFoundError
from dynmatch.reference import greedy_snapshot
from dynmatch.rgmm import EMPTY_DELTA, MatchingState

from helpers import (
    assert_is_greedy,
    elim_rank,
    insert_all,
    is_maximal,
    random_stream,
    rank_at,
    unpack_rank,
)


def ranked(*triples):
    """[(u, v, fraction)] -> list of (key, Rank)."""
    return [(edge_key(u, v), rank_at(f, edge_key(u, v))) for u, v, f in triples]


def stored(st_):
    """A copy of everything a state stores about its graph and matching."""
    return copy.deepcopy((st_.index, st_.k))


class TestBuildStatic:
    """Hand cases of the greedy matching, on a state built by inserts and on
    the reference greedy."""

    def test_path_lower_rank_wins(self):
        edges = ranked((1, 2, 0.2), (2, 3, 0.5))
        st_ = insert_all(edges)
        assert_is_greedy(st_, dict(edges))
        assert st_.matching == {(1, 2)}
        assert elim_rank(st_.k, (2, 3)) == rank_at(0.2, (1, 2))
        assert elim_rank(st_.k, (1, 2)) == rank_at(0.2, (1, 2))

    def test_triangle(self):
        edges = ranked((0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3))
        st_ = insert_all(edges)
        assert_is_greedy(st_, dict(edges))
        assert st_.matching == {(0, 1)}
        assert elim_rank(st_.k, (1, 2)) == rank_at(0.1, (0, 1))
        assert elim_rank(st_.k, (0, 2)) == rank_at(0.1, (0, 1))

    def test_empty(self):
        st_ = insert_all([])
        assert st_.matching == set()
        assert st_.k == {} and st_.index == {}
        assert greedy_snapshot({}, 0) == st_.snapshot()

    def test_deterministic_function_of_input(self):
        # the maintained state depends on the edge set only, not on the
        # order the edges were inserted in
        rng = random.Random(3)
        edges = [
            (edge_key(u, v), rank_at(rng.random(), edge_key(u, v)))
            for u, v in {(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)}
        ]
        st_ = insert_all(edges)
        assert stored(st_) == stored(insert_all(reversed(edges)))
        assert stored(st_) == stored(
            insert_all(sorted(edges, key=lambda item: item[1]))
        )
        assert_is_greedy(st_, dict(edges))


class TestApplyInsert:
    def test_first_edge_joins(self):
        st_ = MatchingState()
        d = st_.apply_insert((1, 2), rank_at(0.2, (1, 2)))
        assert d.joined == [(1, 2)] and d.left == []
        assert st_.matching == {(1, 2)}

    def test_lower_rank_preempts(self):
        st_ = MatchingState()
        st_.apply_insert((2, 3), rank_at(0.5, (2, 3)))
        d = st_.apply_insert((1, 2), rank_at(0.2, (1, 2)))
        assert d.left == [(2, 3)]
        assert d.joined == [(1, 2)]
        assert 3 not in st_.k

    def test_duplicate_insert_rejected(self):
        st_ = MatchingState()
        st_.apply_insert((1, 2), rank_at(0.2, (1, 2)))
        before = stored(st_)
        with pytest.raises(DuplicateEdgeError):
            st_.apply_insert((1, 2), rank_at(0.3, (1, 2)))
        assert stored(st_) == before

    def test_higher_rank_edge_rejected_without_delta(self):
        st_ = MatchingState()
        st_.apply_insert((1, 2), rank_at(0.2, (1, 2)))
        d = st_.apply_insert((2, 3), rank_at(0.5, (2, 3)))
        assert d is EMPTY_DELTA
        assert elim_rank(st_.k, (2, 3)) == rank_at(0.2, (1, 2))


class TestApplyDelete:
    def test_delete_only_matched_edge(self):
        st_ = MatchingState()
        st_.apply_insert((1, 2), rank_at(0.2, (1, 2)))
        d = st_.apply_delete((1, 2))
        assert d.left == [(1, 2)] and d.joined == []
        assert st_.matching == set()

    def test_delete_unmatched_edge_is_silent(self):
        st_ = MatchingState()
        st_.apply_insert((1, 2), rank_at(0.2, (1, 2)))
        st_.apply_insert((2, 3), rank_at(0.5, (2, 3)))
        d = st_.apply_delete((2, 3))
        assert d is EMPTY_DELTA
        assert (2, 3) not in st_.rank_of
        assert st_.matching == {(1, 2)}

    def test_delete_absent_edge(self):
        st_ = MatchingState()
        with pytest.raises(EdgeNotFoundError):
            st_.apply_delete((1, 2))
        assert stored(st_) == ({}, {})
        # both endpoints are indexed, the edge between them is not
        st_ = insert_all(ranked((0, 1, 0.1), (1, 2, 0.2)))
        before = stored(st_)
        with pytest.raises(EdgeNotFoundError):
            st_.apply_delete((0, 2))
        assert stored(st_) == before

    @pytest.mark.parametrize("key", [(1, 2), (2, 3)])
    def test_delete_under_reversed_key_rejected(self, key):
        # an edge is present only under its (lo, hi) key; (1, 2) is matched
        # and (2, 3) is not
        st_ = insert_all(ranked((1, 2, 0.2), (2, 3, 0.5)))
        assert st_.matching == {(1, 2)}
        before = stored(st_)
        with pytest.raises(EdgeNotFoundError):
            st_.apply_delete(key[::-1])
        assert stored(st_) == before

    def test_cascade_along_path(self):
        # path 1-2-3-4 ranked 0.1, 0.2, 0.3: matching {(1,2),(3,4)}
        st_ = MatchingState()
        st_.apply_insert((1, 2), rank_at(0.1, (1, 2)))
        st_.apply_insert((2, 3), rank_at(0.2, (2, 3)))
        st_.apply_insert((3, 4), rank_at(0.3, (3, 4)))
        assert st_.matching == {(1, 2), (3, 4)}
        d = st_.apply_delete((1, 2))
        assert d.joined == [(2, 3)]
        assert set(d.left) == {(1, 2), (3, 4)}
        assert st_.matching == {(2, 3)}


def test_state_stores_the_index_k_and_counters_only():
    # k is the matching: a rank names its edge, so no second map of
    # matched edges is kept, before or after a cascade
    st_ = MatchingState()
    assert vars(st_).keys() == {"index", "k", "counters"}
    st_ = insert_all(ranked((1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.3)))
    st_.apply_delete((1, 2))
    assert st_.counters["pops"] > 0
    assert vars(st_).keys() == {"index", "k", "counters"}


class TestEmptyDelta:
    def test_shared_empty_delta_cannot_be_mutated(self):
        with pytest.raises(AttributeError):
            EMPTY_DELTA.left.append((0, 1))
        with pytest.raises(AttributeError):
            EMPTY_DELTA.joined.append((0, 1))
        assert EMPTY_DELTA.left == () and EMPTY_DELTA.joined == ()
        assert not EMPTY_DELTA and EMPTY_DELTA.size() == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_empty_delta_exactly_when_matching_unchanged(self, seed):
        rng = random.Random(seed)
        st_ = MatchingState()
        noops = changes = 0
        for op, key, rank in random_stream(rng, 10, 300):
            before = set(st_.matching)
            if op == "ins":
                d = st_.apply_insert(key, rank)
            else:
                d = st_.apply_delete(key)
            if d is EMPTY_DELTA:
                noops += 1
                assert st_.matching == before
            else:
                changes += 1
                assert d and st_.matching != before
        assert noops and changes
        assert EMPTY_DELTA.size() == 0


class TestNeighborsAbove:
    def test_threshold_zero_returns_all(self):
        st_ = insert_all(ranked((0, 1, 0.2), (0, 2, 0.5), (0, 3, 0.9)))
        got = set(st_.neighbors_above(0, rank_at(0.0, (0, 0))))
        assert got == {(0, 1), (0, 2), (0, 3)}

    def test_threshold_above_everything_is_empty(self):
        st_ = insert_all(ranked((0, 1, 0.2)))
        assert st_.neighbors_above(0, UNMATCHED_RANK) == []

    def test_star_all_eliminators_equal_center_match(self):
        st_ = insert_all(
            ranked((0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3), (0, 4, 0.4))
        )
        assert st_.matching == {(0, 1)}
        assert st_.neighbors_above(0, rank_at(0.2)) == []
        low = st_.neighbors_above(0, rank_at(0.05))
        assert set(low) == {(0, 1), (0, 2), (0, 3), (0, 4)}

    def test_scan_agrees_with_filtering_everything(self):
        # both scans return edge keys in ascending (eliminator rank, edge)
        # order, the order the pipeline replays level-graph updates in; the
        # label filter keeps that order for the edges it keeps
        rng = random.Random(11)
        edges = {}
        st_ = MatchingState()
        for op, key, rank in random_stream(rng, 10, 120):
            if op == "ins":
                st_.apply_insert(key, rank)
                edges[key] = rank
            else:
                st_.apply_delete(key)
                del edges[key]
        coin = [rng.randrange(2) for _ in range(10)]
        labels = [(None, None), (coin, 1), (coin, 0), ([None] * 10, "none")]
        kept_some = False
        for v in range(10):
            at_v = sorted((elim_rank(st_.k, k), k) for k in edges if v in k)
            assert st_.incident(v) == [k for _, k in at_v]
            thresholds = [rank_at(f, (0, 0)) for f in (0.0, 0.1, 0.5, 0.9)]
            if v in st_.k:
                # just above k(v): every eliminator at v is <= k(v)
                value, lo, hi = unpack_rank(st_.k[v])
                above = make_rank(value, lo, hi + 1)
                assert st_.neighbors_above(v, above) == []
                thresholds.append(st_.k[v])
            for threshold in thresholds:
                for label, want in labels:
                    expect = [
                        k for e, k in at_v
                        if e >= threshold and (
                            label is None
                            or label[k[0] if k[1] == v else k[1]] is want
                        )
                    ]
                    got = st_.neighbors_above(v, threshold, label, want)
                    assert got == expect
                    if label is coin and 0 < len(got) < len(
                        [k for e, k in at_v if e >= threshold]
                    ):
                        kept_some = True
        # the coin label kept some scanned edges and dropped others
        assert kept_some


class TestBestCandidate:
    @pytest.mark.parametrize("seed", range(8))
    def test_scan_agrees_with_brute_force(self, seed):
        # the greedy cascade's candidate at w is the rank of the minimum
        # (rank, edge, x) over incident edges wx with k(x) > rank, and that
        # rank names the edge; on odd seeds every rank takes one of 3
        # values, so the rank's key tie-break decides
        rng = random.Random(seed)
        coarse = seed % 2 == 1
        n = 9
        st_ = MatchingState()
        for op, key, rank in random_stream(rng, n, 120):
            if op == "ins":
                if coarse:
                    rank = make_rank(rng.randrange(3), *key)
                st_.apply_insert(key, rank)
            else:
                st_.apply_delete(key)
            for w in range(n):
                options = [
                    (r, key_, key_[0] if key_[1] == w else key_[1])
                    for key_, r in st_.rank_of.items()
                    if w in key_
                ]
                expect = min(
                    (o for o in options if st_.k.get(o[2], UNMATCHED_RANK) > o[0]),
                    default=None,
                )
                got = st_._best_candidate(w)
                if expect is None:
                    assert got is None
                else:
                    assert got == expect[0] and key_of(got) == expect[1]


class TestOracleEquivalence:
    def test_eight_vertices_fifty_steps(self):
        rng = random.Random(5)
        edges = {}
        st_ = MatchingState()
        for op, key, rank in random_stream(rng, 8, 50):
            if op == "ins":
                st_.apply_insert(key, rank)
                edges[key] = rank
            else:
                st_.apply_delete(key)
                del edges[key]
            assert_is_greedy(st_, edges)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_random_streams_match_static(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        edges = {}
        st_ = MatchingState()
        for op, key, rank in random_stream(rng, n, 40):
            if op == "ins":
                st_.apply_insert(key, rank)
                edges[key] = rank
            else:
                st_.apply_delete(key)
                del edges[key]
        assert_is_greedy(st_, edges)

    def test_tiebreak_only_ordering(self):
        # every edge shares one rank value; the order is purely the key
        # tiebreak and the maintained state must still match the rebuild
        rng = random.Random(17)
        edges = {}
        st_ = MatchingState()
        for _ in range(250):
            if edges and rng.random() < 0.45:
                key = rng.choice(sorted(edges))
                st_.apply_delete(key)
                del edges[key]
            else:
                u, v = rng.randrange(9), rng.randrange(9)
                if u == v:
                    continue
                key = edge_key(u, v)
                if key in edges:
                    continue
                rank = rank_at(0.5, key)
                st_.apply_insert(key, rank)
                edges[key] = rank
            assert_is_greedy(st_, edges)

    def test_delta_applies_old_to_new(self):
        rng = random.Random(13)
        edges = {}
        st_ = MatchingState()
        for op, key, rank in random_stream(rng, 8, 100):
            before = set(st_.matching)
            if op == "ins":
                d = st_.apply_insert(key, rank)
                edges[key] = rank
            else:
                d = st_.apply_delete(key)
                del edges[key]
            assert not (set(d.left) & set(d.joined))
            after = (before - set(d.left)) | set(d.joined)
            assert after == st_.matching


class TestInvariants:
    @staticmethod
    def _views(st_):
        return {
            "elim": {key: elim_rank(st_.k, key) for key in st_.rank_of},
            "matching": st_.matching,
        }

    def _churn(self, seed, n=10, steps=150):
        rng = random.Random(seed)
        st_ = MatchingState()
        history = []
        for op, key, rank in random_stream(rng, n, steps):
            before = self._views(st_)
            if op == "ins":
                st_.apply_insert(key, rank)
                update_rank = rank
            else:
                update_rank = st_.rank_of[key]
                st_.apply_delete(key)
            history.append((before, self._views(st_), update_rank))
        return st_, history

    def test_maximality(self):
        # against the churn's own edge set, replayed from the same seed
        st_, _ = self._churn(1)
        live = set()
        for op, key, _ in random_stream(random.Random(1), 10, 150):
            (live.add if op == "ins" else live.remove)(key)
        assert live and st_.matching <= live
        assert is_maximal(st_.matching, live)

    def test_eliminator_definition(self):
        # the eliminator of an edge is the lowest-rank matched edge touching
        # it, found here by scanning the whole matching
        st_, _ = self._churn(2)
        ranks = st_.rank_of
        for key, rank in ranks.items():
            want = min(
                (ranks[m] for m in st_.matching if set(m) & set(key)),
                default=UNMATCHED_RANK,
            )
            erank = elim_rank(st_.k, key)
            assert erank == want
            assert (key in st_.matching) == (erank == rank)

    def test_localization_below_update_rank(self):
        # edges whose eliminator rank was below the updated edge's rank keep
        # their matching status and eliminator
        _, history = self._churn(3)
        for before, after, rank in history:
            for key, erank in before["elim"].items():
                if key in after["elim"] and erank < rank:
                    assert after["elim"][key] == erank
                    assert (key in before["matching"]) == (key in after["matching"])

    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        coarse=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_lists_the_update_and_nothing_below_it(self, seed, coarse):
        # The pipeline takes its trigger level from the updated edge's rank
        # alone: a non-empty delta must list that edge, and every edge it
        # lists must rank at or above it.  Coarse rank values make most
        # comparisons fall to the key tie-break.
        rng = random.Random(seed)
        st_ = MatchingState()
        for op, key, rank in random_stream(rng, rng.randint(2, 9), 60):
            ranks = dict(st_.rank_of)
            if op == "ins":
                if coarse:
                    rank = make_rank(rng.randrange(3), *key)
                ranks[key] = rank
                d = st_.apply_insert(key, rank)
                lists_update = key in d.joined
            else:
                rank = ranks[key]
                d = st_.apply_delete(key)
                lists_update = key in d.left
            if d:
                assert lists_update
                assert all(ranks[e] >= rank for e in d.left + d.joined)

    def test_sentinel_for_unmatched(self):
        st_, _ = self._churn(4)
        matching = st_.matching
        for v in range(10):
            if v in st_.k:
                key = key_of(st_.k[v])
                assert v in key and key in matching
                assert st_.k[v] == st_.rank_of[key]
            else:
                assert all(v not in key for key in matching)

    def test_index_mirrors_eliminators(self):
        # every live edge is indexed under both endpoints, keyed by the other
        # endpoint and holding the edge's rank, and nothing else is indexed
        st_, _ = self._churn(6)
        assert sum(len(adj) for adj in st_.index.values()) == 2 * len(st_.rank_of)
        for (u, v), rank in st_.rank_of.items():
            assert st_.index[u][v] == st_.index[v][u] == rank
