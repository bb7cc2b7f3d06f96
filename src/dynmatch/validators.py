"""Statistical validators and desk-scale experiments.

Everything here is read-only with respect to its inputs and reproducible
from the seeds it is given.  The validators return plain JSON dicts, the
reports their `dynmatch validate` suites publish, each with a boolean
"passed".  Monte Carlo validators report mean and standard error and never
gate tighter than three standard errors.  Their greedy matchings come from
`reference.bulk_greedy`, the one static greedy loop in the package, and
their level lookups from `reference.level_by_scan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np

from .core import RANK_SCALE, thresholds_for
from .errors import ConfigError, ConsistencyError
from .exact import max_matching_exact
from .reference import bulk_greedy, level_by_scan


def _random_distinct_pairs(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    if m > n * (n - 1) // 2:
        raise ConfigError(f"m={m} distinct pairs do not fit in n={n} vertices")
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        batch = rng.integers(0, n, size=(2 * (m - len(seen)) + 16, 2))
        for a, b in batch:
            if a == b:
                continue
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            seen.add(key)
            if len(seen) == m:
                break
    arr = np.array(sorted(seen), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


# ---------------------------------------------------------------------------
# sparsification audit
# ---------------------------------------------------------------------------


def audit_sparsification(
    n: int = 2000,
    m: int = 20000,
    trials: int = 30,
    thresholds: Sequence[float] = tuple(2.0**-i for i in range(2, 9)),
    seed: int = 0,
    gate: float = 4.0,
) -> dict:
    """Measure max degree of {e : eliminator_rank(e) > p} over random rankings.

    For every trial and threshold the gate requires degree <= gate / p * ln n.
    The report gives each threshold's worst degree under `str(p)`, the fitted
    constant (max over trials of degree * p / ln n) and the gate.
    """
    rng = np.random.default_rng(seed)
    log_n = math.log(n)
    worst = {p: 0 for p in thresholds}
    for _ in range(trials):
        us, vs = _random_distinct_pairs(rng, n, m)
        ranks = rng.integers(0, RANK_SCALE, size=m, dtype=np.uint64)
        order = np.argsort(ranks, kind="stable")
        su, sv = us[order], vs[order]
        kpos, _ = bulk_greedy(su.tolist(), sv.tolist(), n)
        kpos_arr = np.array(kpos, dtype=np.int64)
        elim_pos = np.minimum(kpos_arr[su], kpos_arr[sv])
        rank_by_pos = ranks[order]
        elim_val = rank_by_pos[elim_pos]
        for p in thresholds:
            cut = np.uint64(min(int(p * RANK_SCALE), RANK_SCALE - 1))
            mask = elim_val > cut
            deg = np.bincount(su[mask], minlength=n) + np.bincount(sv[mask], minlength=n)
            worst[p] = max(worst[p], int(deg.max()) if mask.any() else 0)
    return {
        "max_degree": {str(p): d for p, d in worst.items()},
        "fitted_c": max((worst[p] * p / log_n for p in thresholds), default=0.0),
        "gate": gate,
        "passed": all(worst[p] * p <= gate * log_n for p in thresholds),
    }


# ---------------------------------------------------------------------------
# greedy matching under vertex sampling (bipartite, fixed permutation)
# ---------------------------------------------------------------------------


def _sampling_stats(samples: list[int], bound: float) -> dict:
    """Mean and standard error of the mean of integer per-trial counts; the
    gate passes when the mean is at least `bound` - 3 se."""
    trials = len(samples)
    mean = sum(samples) / trials
    var = max(sum(x * x for x in samples) / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)
    return {"mean": mean, "se": se, "bound": bound, "passed": mean >= bound - 3 * se}


def validate_vertex_sampling(
    v_count: int,
    u_count: int,
    edges: Sequence[tuple[int, int]],
    matching: Collection[tuple[int, int]],
    p: float,
    trials: int,
    seed: int = 0,
) -> dict:
    """Monte Carlo check that E[X] >= p * (|M| - 2p|V|).

    `edges` and `matching` are (v, u) pairs in one index space: the v side
    is 0..v_count-1 and the u side starts at v_count, so each pair is in
    `edge_key` order and an exact oracle's witness can be passed as it is.
    v-side vertices are kept independently with probability p, the greedy
    matching of the induced subgraph is built under one fixed edge
    permutation, and X counts edges of `matching` whose v endpoint got
    matched.  The permutation and the keep coins come from two independent
    streams spawned from `seed`.
    """
    perm_seq, coin_seq = np.random.SeedSequence(seed).spawn(2)
    order = np.random.default_rng(perm_seq).permutation(len(edges))
    ordered = [edges[i] for i in order]
    m_vs = [v for v, _ in matching]
    rng = np.random.default_rng(coin_seq)
    samples: list[int] = []
    for _ in range(trials):
        keep = (rng.random(v_count) < p).tolist()
        kept = [(v, u) for v, u in ordered if keep[v]]
        kpos, _ = bulk_greedy([v for v, _ in kept], [u for _, u in kept], v_count + u_count)
        samples.append(sum(1 for v in m_vs if kpos[v] < len(kept)))
    return _sampling_stats(samples, p * (len(matching) - 2 * p * v_count))


# ---------------------------------------------------------------------------
# per-partition augmentation counts on the 3-augmentable gadget family
# ---------------------------------------------------------------------------


@dataclass
class AugmentationGadget:
    """Disjoint paths a-b-c-d whose middle edges form the partition under test.

    The middle edges b-c are the base-matching slice S_i (all 3-augmentable,
    so delta = 0); a and d are the unmatched side.  Noise edges connect
    unmatched vertices to matched vertices of other gadgets and can steal
    matches, exactly the interference the 4p^2 slack in the bound absorbs.
    b < c by construction, so b is the lower-ID (A) endpoint.
    """

    count: int
    # candidate second-stage edges: (u_vertex, v_vertex, gadget, side)
    # side 0 means the matched endpoint is a 'b' (A side), 1 a 'c' (B side).
    candidates: list[tuple[int, int, int, int]] = field(default_factory=list)


def augmentation_bound(p: float, delta: float) -> float:
    """Expected-fraction coefficient ((1 - delta) p / 4 - 4 p^2) of middle
    edges whose both endpoints get matched at their level."""
    return (1.0 - delta) * p / 4.0 - 4.0 * p * p


def augmentation_gadget(count: int, noise: int = 0, seed: int = 0) -> AugmentationGadget:
    g = AugmentationGadget(count)
    for j in range(count):
        a, b, c, d = 4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3
        g.candidates.append((a, b, j, 0))
        g.candidates.append((d, c, j, 1))
    rng = np.random.default_rng(seed)
    for _ in range(noise):
        j = int(rng.integers(count))
        l = int(rng.integers(count))
        if j == l:
            continue
        if rng.integers(2):
            g.candidates.append((4 * j, 4 * l + 1, l, 0))  # a_j -- b_l
        else:
            g.candidates.append((4 * j + 3, 4 * l + 2, l, 1))  # d_j -- c_l
    return g


def validate_partition_augmentation(
    gadget: AugmentationGadget,
    p: float,
    trials: int,
    seed: int = 0,
) -> dict:
    """Count middle edges with both endpoints matched in the level matching.

    Per trial: fresh sampling coins for the middle edges, fresh A/B coins for
    the unmatched side, a fresh ranking of the candidate edges, then the
    greedy matching of the induced level graph.  The reported bound is
    `augmentation_bound(p, 0.01) * |S_i|`, with the published delta = 0.01.
    """
    rng = np.random.default_rng(seed)
    count = gadget.count
    cands = gadget.candidates
    samples: list[int] = []
    for _ in range(trials):
        sampled = (rng.random(count) < p).tolist()
        coin = rng.integers(0, 2, size=4 * count).tolist()  # U-side partition coins
        present = [
            (u, v) for (u, v, j, side) in cands if sampled[j] and coin[u] == side
        ]
        order = np.argsort(rng.random(len(present))).tolist()
        kpos, _ = bulk_greedy(
            [present[i][0] for i in order], [present[i][1] for i in order], 4 * count
        )
        m = len(present)  # kpos value of an unmatched vertex
        samples.append(sum(
            1 for j in range(count)
            if sampled[j] and kpos[4 * j + 1] < m and kpos[4 * j + 2] < m
        ))
    return _sampling_stats(samples, augmentation_bound(p, 0.01) * count)


# ---------------------------------------------------------------------------
# pivot level of the partition-size vector
# ---------------------------------------------------------------------------


def find_pivot_level(sizes: Sequence[int]) -> int:
    """Smallest i with |S_i| >= 2^(12i - 13L) |M_0|, checked exactly.

    Verifies both guaranteed inequalities (|S_i*| >= 2^(-13L) |M_0| and
    |S_i*| > 2^11 * sum of earlier sizes) and raises on a violation, which
    would indicate a bug rather than a legitimate input.
    """
    levels = len(sizes)
    m0 = sum(sizes)
    if m0 <= 0:
        raise ValueError("partition sizes must sum to a positive matching size")
    shift = 13 * levels
    pivot = None
    for i in range(1, levels + 1):
        if sizes[i - 1] << shift >= m0 << (12 * i):
            pivot = i
            break
    if pivot is None:
        raise ConsistencyError("no pivot level exists for this size vector")
    if sizes[pivot - 1] << shift < m0:
        raise ConsistencyError("pivot level violates the absolute size bound")
    if sizes[pivot - 1] <= sum(sizes[: pivot - 1]) << 11:
        raise ConsistencyError("pivot level violates the prefix domination bound")
    return pivot


# ---------------------------------------------------------------------------
# clique-plus-perfect-matching static experiment
# ---------------------------------------------------------------------------


@dataclass
class LayeredBuild:
    """One seed of the static layered construction over a fixed edge list.

    Edges are named by their index into the edge arrays.  The draws are
    `rank0` (each edge's base rank value), `sampled` (each M_0 edge's
    sampling bit at its own level), `coins` (coins[i][v] is vertex v's
    level-i partition coin; row 0 is unused) and `pi[i]` (the level-i rank
    values of the edges in `g[i]`, index for index).  The rest is built
    from them.
    """

    rank0: np.ndarray
    m0: np.ndarray  # M_0's edges in base rank order
    m0_level: list[int]  # level of each M_0 edge
    sampled: np.ndarray
    coins: np.ndarray
    # per level i: vertex codes (0 absent, 1 U_A, 2 U_B, 3 V_A, 4 V_B),
    # G_i's edges in index order with their rank values, and M_i's edges
    codes: dict[int, np.ndarray] = field(default_factory=dict)
    g: dict[int, np.ndarray] = field(default_factory=dict)
    pi: dict[int, np.ndarray] = field(default_factory=dict)
    m: dict[int, np.ndarray] = field(default_factory=dict)


def clique_pm_edges(n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges (lo, hi) of a clique on the first half of the vertices plus a
    pendant perfect matching."""
    if n_total % 2:
        raise ValueError("n_total must be even")
    half = n_total // 2
    cu, cv = np.triu_indices(half, 1)
    us = np.concatenate([cu, np.arange(half)]).astype(np.int64)
    vs = np.concatenate([cv, np.arange(half) + half]).astype(np.int64)
    return us, vs


def clique_pm_layers(
    n_total: int,
    us: np.ndarray,
    vs: np.ndarray,
    levels: int,
    sample_p: float,
    rng: np.random.Generator,
) -> LayeredBuild:
    """Draw fresh rankings and coins and run the layered construction on the
    clique-plus-pendants edges (`clique_pm_edges(n_total)`)."""
    # delta = n/2: the clique degree plus the pendant edge
    thresholds = thresholds_for(n_total // 2, levels)
    rank0 = rng.integers(0, RANK_SCALE, size=len(us), dtype=np.uint64)
    order = np.argsort(rank0, kind="stable")
    _, matched_pos = bulk_greedy(us[order].tolist(), vs[order].tolist(), n_total)
    m0 = order[matched_pos]
    m0_level = [level_by_scan(r << 64, thresholds) for r in rank0[m0].tolist()]
    sampled = rng.random(len(m0)) < sample_p
    coins = rng.integers(0, 2, size=(levels + 1, n_total), dtype=np.int8)
    build = LayeredBuild(rank0, m0, m0_level, sampled, coins)

    lv = np.array(m0_level, dtype=np.int8)
    a, b = us[m0], vs[m0]
    match_level = np.zeros(n_total, dtype=np.int8)
    match_level[a] = lv
    match_level[b] = lv
    # V-side codes of the sampled M_0 edges at their own level: lo is V_A
    v_role = np.zeros((levels + 1, n_total), dtype=np.int8)
    v_role[lv[sampled], a[sampled]] = 3
    v_role[lv[sampled], b[sampled]] = 4
    for i in range(1, levels + 1):
        code = np.where(match_level < i, 1 + coins[i], 0).astype(np.int8)
        at_level = v_role[i] != 0
        code[at_level] = v_role[i][at_level]
        cu = code[us]
        cv = code[vs]
        mask = (
            ((cu == 3) & (cv == 1))
            | ((cu == 1) & (cv == 3))
            | ((cu == 4) & (cv == 2))
            | ((cu == 2) & (cv == 4))
        )
        cand = np.nonzero(mask)[0]
        pi = rng.integers(0, RANK_SCALE, size=len(cand), dtype=np.uint64)
        sub = cand[np.argsort(pi, kind="stable")]
        _, taken = bulk_greedy(us[sub].tolist(), vs[sub].tolist(), n_total)
        build.codes[i] = code
        build.g[i] = cand
        build.pi[i] = pi
        build.m[i] = sub[taken]
    return build


def clique_pm_static_experiment(
    n_total: int,
    levels: int,
    seeds: int,
    base_seed: int = 0,
) -> dict:
    """Static layered build on the worst-case family, with the exact final step.

    The instance is a clique on the first half of the vertices plus a pendant
    perfect matching, so mu = n/2 analytically while the base greedy matching
    lands near mu/2.  Per seed: draw fresh rankings/coins (sample_p = 0.03),
    run the full layered construction, and take the exact maximum matching of
    the union of all produced matchings as the answer.  Reports paired ratio
    statistics.
    """
    us, vs = clique_pm_edges(n_total)
    mu = n_total // 2
    r0_list: list[float] = []
    ra_list: list[float] = []
    pivot_sizes: list[dict[int, int]] = []
    for s in range(seeds):
        rng = np.random.default_rng(base_seed + s)
        build = clique_pm_layers(n_total, us, vs, levels, 0.03, rng)
        pivot_sizes.append(
            {i: build.m0_level.count(i) for i in range(1, levels + 1)}
        )
        union_idx = np.concatenate([build.m0, *build.m.values()])
        union = set(zip(us[union_idx].tolist(), vs[union_idx].tolist()))
        answer = max_matching_exact(n_total, union, limit=max(n_total, 2000))
        r0_list.append(len(build.m0) / mu)
        ra_list.append(answer.size / mu)

    diffs = [ra - r0 for ra, r0 in zip(ra_list, r0_list)]
    mean_diff = sum(diffs) / len(diffs)
    var_diff = sum((d - mean_diff) ** 2 for d in diffs) / max(len(diffs) - 1, 1)
    se_diff = math.sqrt(var_diff / len(diffs))
    return {
        "seeds": seeds,
        "mu": mu,
        "mean_m0_ratio": sum(r0_list) / len(r0_list),
        "mean_answer_ratio": sum(ra_list) / len(ra_list),
        "mean_gain": mean_diff,
        "se_gain": se_diff,
        "m0_ratios": r0_list,
        "answer_ratios": ra_list,
        "level_sizes": pivot_sizes,
    }
