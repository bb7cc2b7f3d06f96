import random
from collections import Counter

import pytest

from dynmatch.core import edge_key
from dynmatch.errors import OracleLimitError
from dynmatch.exact import IncrementalMatching, max_matching_exact
from dynmatch.suites import has_short_augmenting_path

from helpers import brute_max_matching


PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),      # outer cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),      # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),      # spokes
]


def _assert_valid_witness(res, edges):
    """The witness is a matching of input edges, of the reported size."""
    used = set()
    for u, v in res.witness:
        assert edge_key(u, v) in edges
        assert u not in used and v not in used
        used.update((u, v))
    assert len(res.witness) == res.size


class TestExact:
    def test_path_on_four_vertices(self):
        res = max_matching_exact(4, [(0, 1), (1, 2), (2, 3)])
        assert res.size == 2

    def test_triangle(self):
        res = max_matching_exact(3, [(0, 1), (1, 2), (0, 2)])
        assert res.size == 1

    def test_petersen_has_perfect_matching(self):
        res = max_matching_exact(10, PETERSEN)
        assert res.size == 5
        assert res.size == brute_max_matching(10, PETERSEN)

    def test_witness_is_valid_and_unaugmentable(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 12)
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = set(rng.sample(pool, rng.randint(0, min(16, len(pool)))))
            res = max_matching_exact(n, edges)
            _assert_valid_witness(res, edges)
            # no augmenting path of any length exists against a maximum matching
            assert not has_short_augmenting_path(edges, set(res.witness), 2 * n + 1)

    def test_matches_brute_force_on_small_graphs(self):
        rng = random.Random(9)
        for _ in range(120):
            n = rng.randint(2, 14)
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = set(rng.sample(pool, rng.randint(0, min(20, len(pool)))))
            assert max_matching_exact(n, edges).size == brute_max_matching(n, edges)

    def test_size_limit(self):
        with pytest.raises(OracleLimitError):
            max_matching_exact(5000, [])


class TestOneSearchForEveryGraph:
    """Bipartite graphs and graphs of mostly isolated vertices go through
    the same blossom search as every other input."""

    def test_random_bipartite_graphs(self):
        rng = random.Random(4)
        for _ in range(40):
            left = rng.randint(1, 8)
            right = rng.randint(1, 8)
            n = left + right
            edges = {
                (u, left + w)
                for u in range(left)
                for w in range(right)
                if rng.random() < 0.4
            }
            res = max_matching_exact(n, edges)
            _assert_valid_witness(res, edges)
            assert res.size == brute_max_matching(n, edges)

    def test_mostly_isolated_vertices(self):
        # the search loop skips edgeless roots; the edges sit among a few
        # scattered vertices, odd cycles included
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(20, 200)
            active = rng.sample(range(n), rng.randint(2, 9))
            pool = [
                edge_key(a, b) for i, a in enumerate(active) for b in active[i + 1:]
            ]
            edges = set(rng.sample(pool, rng.randint(1, min(14, len(pool)))))
            res = max_matching_exact(n, edges)
            _assert_valid_witness(res, edges)
            assert res.size == brute_max_matching(n, edges)


class TestIncremental:
    def test_tracks_scratch_over_random_churn(self):
        # inserts by number of free endpoints: 0 searches every free root,
        # 1 searches from the free endpoint only, 2 matches directly
        free_ends = Counter()
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(4, 16)
            inc = IncrementalMatching(n)
            edges = set()
            for _ in range(70):
                if edges and rng.random() < 0.45:
                    key = rng.choice(sorted(edges))
                    edges.remove(key)
                    inc.delete(*key)
                else:
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u == v or edge_key(u, v) in edges:
                        continue
                    edges.add(edge_key(u, v))
                    free_ends[(inc.match[u] == -1) + (inc.match[v] == -1)] += 1
                    inc.insert(u, v)
                assert inc.size == max_matching_exact(n, edges).size
                witness = inc.matching()
                assert len(witness) == inc.size
        assert all(free_ends[c] for c in (0, 1, 2)), free_ends
