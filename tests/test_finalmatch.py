import hashlib
import random
from collections import Counter

import pytest

from dynmatch.core import Instance, InstanceConfig, edge_key
from dynmatch.errors import ConsistencyError
from dynmatch.exact import has_short_augmenting_path, max_matching_exact
from dynmatch.finalmatch import UnionMatcher
from dynmatch.pipeline import Pipeline
from dynmatch.rgmm import EMPTY_DELTA, DeltaList
from dynmatch.streams import StreamSpec, generate_stream


class TestBasics:
    def test_first_edge_is_matched(self):
        um = UnionMatcher(depth=3)
        d = um.add((1, 2), DeltaList())
        assert d.joined == [(1, 2)]
        assert um.matching() == {(1, 2)}

    def test_two_path_replacement(self):
        # matched edge disappears; the local search finds the replacement
        um = UnionMatcher(depth=3)
        um.add((0, 1), DeltaList())
        um.add((1, 2), DeltaList())
        assert um.matching() == {(0, 1)}
        d = um.remove((0, 1), DeltaList())
        assert (0, 1) in d.left
        assert um.matching() == {(1, 2)}

    def test_multiplicity_keeps_edge_until_last_copy(self):
        um = UnionMatcher(depth=2)
        um.add((0, 1), DeltaList())
        um.add((0, 1), DeltaList())
        d = um.remove((0, 1), DeltaList())
        assert d is EMPTY_DELTA
        assert um.matching() == {(0, 1)}
        d = um.remove((0, 1), DeltaList())
        assert d.left == [(0, 1)]
        assert um.matching() == set()

    def test_underflow_signals_pipeline_bug(self):
        um = UnionMatcher(depth=2)
        with pytest.raises(ConsistencyError):
            um.remove((0, 1), DeltaList())

    def test_insert_joins_via_augmenting_path(self):
        # 0-1 matched; adding 1-2 then 2-3 must grow the matching to 2
        um = UnionMatcher(depth=3)
        um.add((0, 1), DeltaList())
        um.add((1, 2), DeltaList())
        um.add((2, 3), DeltaList())
        assert um.size() == 2


def answer_from_mate(um: UnionMatcher) -> set:
    """The answer rebuilt from `mate`: the oracle for the maintained set."""
    return {(v, m) for v, m in um.mate.items() if v < m}


class TestMaintainedAnswer:
    def test_answer_equals_mate_after_every_pipeline_update(self):
        events = generate_stream(
            StreamSpec("erdos-churn", 100, 16, 2000, 41, {"target_edges": 400})
        )
        pipe = Pipeline(Instance(InstanceConfig(100, 16, 4, algo_seed=43)))
        um = pipe.union
        flips, repairs = Counter(), [0]
        flip, repair = um._flip, um._repair

        # record the paths flipped and the repairs run, so the check is known
        # to cover augmenting paths through matched edges and `_repair`
        def counted_flip(path, delta):
            flips[len(path) - 1] += 1
            return flip(path, delta)

        def counted_repair(seeds, delta):
            repairs[0] += 1
            return repair(seeds, delta)

        um._flip, um._repair = counted_flip, counted_repair
        for ev in events:
            pipe.handle_update(ev.op, ev.u, ev.v)
            assert um.answer == answer_from_mate(um)
        assert repairs[0] > 0 and any(length >= 3 for length in flips), flips


class TestContractUnderChurn:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_no_short_augmenting_path_and_ratio(self, depth):
        rng = random.Random(100 + depth)
        n = 64
        um = UnionMatcher(depth=depth)
        edges: set = set()
        deg = [0] * n
        checked = 0
        for _ in range(500):
            if edges and rng.random() < 0.45:
                key = rng.choice(sorted(edges))
                edges.remove(key)
                deg[key[0]] -= 1
                deg[key[1]] -= 1
                um.remove(key, DeltaList())
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                key = edge_key(u, v)
                if key in edges or deg[key[0]] >= 4 or deg[key[1]] >= 4:
                    continue
                edges.add(key)
                deg[key[0]] += 1
                deg[key[1]] += 1
                um.add(key, DeltaList())
            checked += 1
            assert um.answer == answer_from_mate(um)
            answer = um.matching()
            # validity
            seen = set()
            for a, b in answer:
                assert (a, b) in edges
                assert a not in seen and b not in seen
                seen.update((a, b))
            # the defining invariant, against an independent exhaustive search
            assert not has_short_augmenting_path(edges, answer, 2 * depth - 1)
            # implied approximation ratio against the exact oracle
            mu = max_matching_exact(n, edges).size
            assert len(answer) * (depth + 1) >= mu * depth
        assert checked >= 400

    def test_result_is_truthy_exactly_when_the_answer_changes(self):
        # perfbench counts bool(result) as an effective union call, so the
        # return value must be truthy exactly when the answer moved; a call
        # that moves nothing returns the shared EMPTY_DELTA.
        rng = random.Random(31)
        um = UnionMatcher(depth=2)
        mult: dict = {}
        seen = {"bump": 0, "changed": 0, "unchanged": 0}
        for _ in range(3000):
            if mult and rng.random() < 0.5:
                key = rng.choice(sorted(mult))
                mult[key] -= 1
                if not mult[key]:
                    del mult[key]
                call = um.remove
                seen["bump"] += key in mult
            else:
                u, v = rng.randrange(12), rng.randrange(12)
                if u == v:
                    continue
                key = edge_key(u, v)
                seen["bump"] += key in mult
                mult[key] = mult.get(key, 0) + 1
                call = um.add
            before = um.matching()
            d = call(key, DeltaList())
            changed = um.matching() != before
            assert bool(d) == changed
            assert (d is EMPTY_DELTA) == (not changed)
            seen["changed" if changed else "unchanged"] += 1
        assert all(seen.values()), seen

    def test_calls_write_into_the_callers_delta(self):
        # one update's union calls share its answer delta: a call that moves
        # the answer appends to `out` and returns it, and a later call that
        # moves nothing returns EMPTY_DELTA and leaves `out` as it was
        um = UnionMatcher(depth=2)
        out = DeltaList()
        assert um.add((0, 1), out) is out
        assert um.add((1, 2), out) is EMPTY_DELTA  # 2's only path is blocked
        assert um.remove((0, 1), out) is out  # the repair matches 1-2
        assert (out.left, out.joined) == ([(0, 1)], [(0, 1), (1, 2)])
        assert um.add((0, 1), out) is EMPTY_DELTA
        um.add((1, 2), DeltaList())  # a second copy of the answer edge
        assert um.remove((1, 2), out) is EMPTY_DELTA
        assert (out.left, out.joined) == ([(0, 1)], [(0, 1), (1, 2)])
        assert um.matching() == {(1, 2)}

    def test_deterministic_given_same_updates(self):
        ops = []
        rng = random.Random(77)
        edges = set()
        for _ in range(200):
            if edges and rng.random() < 0.4:
                key = rng.choice(sorted(edges))
                edges.remove(key)
                ops.append(("del", key))
            else:
                u, v = rng.randrange(16), rng.randrange(16)
                if u == v:
                    continue
                key = edge_key(u, v)
                if key in edges:
                    continue
                edges.add(key)
                ops.append(("ins", key))
        outs = []
        for _ in range(2):
            um = UnionMatcher(depth=3)
            for op, key in ops:
                (um.add if op == "ins" else um.remove)(key, DeltaList())
            outs.append(um.matching())
        assert outs[0] == outs[1]


def augmenting_paths_through(um: UnionMatcher, key, max_edges: int) -> list:
    """Every simple alternating path of at most `max_edges` edges between two
    free vertices that uses `key` as an unmatched edge, by brute force over
    the union graph: the oracle for `_shortest_through`."""
    mate, adj = um.mate, um.adj
    found = []

    def extend(path, matched_next):
        last = path[-1]
        if matched_next and last not in mate:
            found.append(tuple(path))  # ends free after an unmatched edge
            return
        if len(path) > max_edges:
            return
        if matched_next:
            nexts = [mate[last]]
        else:
            nexts = [x for x in adj.get(last, ()) if mate.get(last) != x]
        for x in nexts:
            if x not in path:
                extend(path + [x], not matched_next)

    for s in adj:
        if s not in mate:
            extend([s], False)
    u, v = key
    return [
        p for p in found
        if any({p[i], p[i + 1]} == {u, v} for i in range(len(p) - 1))
    ]


class TestBothMatchedJoin:
    """An insert between two matched vertices joins a u-half to a v-half."""

    @staticmethod
    def _tie(depth: int) -> UnionMatcher:
        # answer (1, 2) and (3, 4); union edges 1-5, 1-6 and 4-7 open no
        # path; inserting 2-3 opens 5-1-2-3-4-7 and 6-1-2-3-4-7, 5 edges each
        um = UnionMatcher(depth=depth)
        for key in [(1, 2), (3, 4), (1, 5), (1, 6), (4, 7)]:
            um.add(key, DeltaList())
        assert um.matching() == {(1, 2), (3, 4)}
        um.add((2, 3), DeltaList())
        return um

    def test_first_u_half_in_preorder_wins_a_tie(self):
        assert self._tie(depth=3).matching() == {(1, 5), (2, 3), (4, 7)}

    def test_join_longer_than_2k_minus_1_edges_is_not_taken(self):
        assert self._tie(depth=2).matching() == {(1, 2), (3, 4)}

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_random_unions_against_brute_force(self, depth):
        rng = random.Random(500 + depth)
        calls = Counter()
        for _ in range(60):
            um = UnionMatcher(depth=depth)
            search = um._shortest_through

            def checked(key, um=um, search=search):
                path = search(key)
                both_matched = key[0] in um.mate and key[1] in um.mate
                paths = augmenting_paths_through(um, key, 2 * depth - 1)
                calls[both_matched, path is not None] += 1
                if not paths:
                    assert path is None
                    return path
                assert path is not None
                assert len(path) == min(map(len, paths))
                assert path in paths
                # listed from key[0] to the far end
                assert path.index(key[0]) + 1 == path.index(key[1])
                return path

            um._shortest_through = checked
            edges = set()
            for _ in range(80):
                if edges and rng.random() < 0.3:
                    key = rng.choice(sorted(edges))
                    edges.remove(key)
                    um.remove(key, DeltaList())
                else:
                    u, v = rng.randrange(10), rng.randrange(10)
                    if u == v or edge_key(u, v) in edges:
                        continue
                    key = edge_key(u, v)
                    edges.add(key)
                    um.add(key, DeltaList())
        # joins that find no path ran, and from depth 3 on, joins that find
        # one (within 3 edges, every unmatched edge has a free end)
        assert calls[True, False] and (depth < 3 or calls[True, True]), calls


class TestSearchOrderPin:
    # sha256 over the answer and the union multiset after every update of one
    # fixed stream.  The answer depends on which shortest augmenting path the
    # search finds first, so a change to the search order changes the digest.
    # The stream includes a repair whose free vertex has shortest paths
    # through two neighbours, so the neighbour order of repairs is pinned too.
    DIGEST = "0af38d6755515e7c208235d5fcddc5866555bb44a1e3590475fa57b78b640309"

    def test_answer_and_union_match_the_pinned_digest(self):
        events = generate_stream(
            StreamSpec("erdos-churn", 200, 16, 1500, 5, {"target_edges": 600})
        )
        config = InstanceConfig(200, 16, 3, sample_p=0.12, algo_seed=6)
        assert config.answer_depth() >= 4
        pipe = Pipeline(Instance(config))
        digest = hashlib.sha256()
        longest = 0
        for ev in events:
            report = pipe.handle_update(ev.op, ev.u, ev.v)
            longest = max(longest, report.answer_delta.size())
            digest.update(repr(sorted(pipe.current_answer())).encode())
            digest.update(repr(sorted(pipe.union.mult.items())).encode())
        assert longest >= 4  # some update moved a multi-edge path
        assert digest.hexdigest() == self.DIGEST
