"""Statistical validators and desk-scale experiments.

Everything here is read-only with respect to its inputs and reproducible
from the seeds it is given.  Monte Carlo validators report mean and standard
error and never gate tighter than three standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import RANK_SCALE, EdgeKey
from .errors import ConfigError, ConsistencyError
from .exact import max_matching_exact


# ---------------------------------------------------------------------------
# bulk greedy helpers (array in, array out; used by the large static audits)
# ---------------------------------------------------------------------------


def _bulk_greedy(us: list[int], vs: list[int], n: int) -> tuple[list[int], list[int]]:
    """Greedy matching over edges already sorted by rank.

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


@dataclass
class AuditReport:
    """Max degree of the eliminator-filtered subgraph versus c/p * ln n."""

    n: int
    m: int
    trials: int
    seed: int
    gate: float
    max_degree: dict[float, int]
    fitted_c: float
    passed: bool


def audit_sparsification(
    n: int = 2000,
    m: int = 20000,
    trials: int = 30,
    thresholds: Sequence[float] = tuple(2.0**-i for i in range(2, 9)),
    seed: int = 0,
    gate: float = 4.0,
) -> AuditReport:
    """Measure max degree of {e : eliminator_rank(e) > p} over random rankings.

    For every trial and threshold the gate requires degree <= gate / p * ln n;
    the fitted constant (max over trials of degree * p / ln n) is reported.
    """
    rng = np.random.default_rng(seed)
    log_n = math.log(n)
    worst = {p: 0 for p in thresholds}
    for _ in range(trials):
        us, vs = _random_distinct_pairs(rng, n, m)
        ranks = rng.integers(0, RANK_SCALE, size=m, dtype=np.uint64)
        order = np.argsort(ranks, kind="stable")
        su, sv = us[order], vs[order]
        kpos, _ = _bulk_greedy(su.tolist(), sv.tolist(), n)
        kpos_arr = np.array(kpos, dtype=np.int64)
        elim_pos = np.minimum(kpos_arr[su], kpos_arr[sv])
        rank_by_pos = ranks[order]
        elim_val = rank_by_pos[elim_pos]
        for p in thresholds:
            cut = np.uint64(min(int(p * RANK_SCALE), RANK_SCALE - 1))
            mask = elim_val > cut
            deg = np.bincount(su[mask], minlength=n) + np.bincount(sv[mask], minlength=n)
            worst[p] = max(worst[p], int(deg.max()) if mask.any() else 0)
    fitted = max((worst[p] * p / log_n for p in thresholds), default=0.0)
    passed = all(worst[p] * p <= gate * log_n for p in thresholds)
    return AuditReport(n, m, trials, seed, gate, worst, fitted, passed)


# ---------------------------------------------------------------------------
# greedy matching under vertex sampling (bipartite, fixed permutation)
# ---------------------------------------------------------------------------


@dataclass
class SamplingStats:
    trials: int
    mean: float
    std_error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.mean >= self.bound - 3 * self.std_error


def validate_vertex_sampling(
    v_count: int,
    u_count: int,
    edges: Sequence[tuple[int, int]],
    matching: Sequence[tuple[int, int]],
    p: float,
    trials: int,
    seed: int = 0,
    perm_seed: int | None = None,
) -> SamplingStats:
    """Monte Carlo check that E[X] >= p * (|M| - 2p|V|).

    `edges` are (v, u) pairs over disjoint index spaces; v-side vertices are
    kept independently with probability p, the greedy matching of the induced
    subgraph is built under one fixed edge permutation, and X counts edges of
    `matching` whose v endpoint got matched.
    """
    perm_rng = np.random.default_rng(seed if perm_seed is None else perm_seed)
    order = perm_rng.permutation(len(edges))
    ordered = [edges[i] for i in order]
    m_vs = [v for v, _ in matching]
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        keep = (rng.random(v_count) < p).tolist()
        v_taken = [False] * v_count
        u_taken = [False] * u_count
        for v, u in ordered:
            if keep[v] and not v_taken[v] and not u_taken[u]:
                v_taken[v] = True
                u_taken[u] = True
        x = sum(1 for v in m_vs if v_taken[v])
        total += x
        total_sq += x * x
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)
    bound = p * (len(matching) - 2 * p * v_count)
    return SamplingStats(trials, mean, se, bound)


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

    def vertex(self, gadget: int, which: str) -> int:
        return 4 * gadget + "abcd".index(which)


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
) -> SamplingStats:
    """Count middle edges with both endpoints matched in the level matching.

    Per trial: fresh sampling coins for the middle edges, fresh A/B coins for
    the unmatched side, a fresh ranking of the candidate edges, then the
    greedy matching of the induced level graph.  The reported bound is the
    published coefficient 0.003825 (p = 0.03, delta = 0.01) times |S_i|.
    """
    rng = np.random.default_rng(seed)
    count = gadget.count
    cands = gadget.candidates
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        sampled = (rng.random(count) < p).tolist()
        coin = rng.integers(0, 2, size=4 * count).tolist()  # U-side partition coins
        present = [
            (u, v, j)
            for (u, v, j, side) in cands
            if sampled[j] and coin[u] == side
        ]
        ranks = rng.random(len(present))
        order = np.argsort(ranks).tolist()
        u_taken: set[int] = set()
        v_taken: set[int] = set()
        for idx in order:
            u, v, _ = present[idx]
            if u not in u_taken and v not in v_taken:
                u_taken.add(u)
                v_taken.add(v)
        hits = 0
        for j in range(count):
            if sampled[j] and (4 * j + 1) in v_taken and (4 * j + 2) in v_taken:
                hits += 1
        total += hits
        total_sq += hits * hits
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)
    bound = 0.003825 * count
    return SamplingStats(trials, mean, se, bound)


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
# 3-augmentable edges
# ---------------------------------------------------------------------------


def count_3_augmentable(m0: set[EdgeKey], opt: set[EdgeKey]) -> int:
    """Edges of M_0 sitting in the middle of a length-3 augmenting path of
    OPT against M_0."""
    opt_mate: dict[int, int] = {}
    for a, b in opt:
        opt_mate[a] = b
        opt_mate[b] = a
    covered: set[int] = set()
    for a, b in m0:
        covered.add(a)
        covered.add(b)
    hits = 0
    for u, v in m0:
        if (u, v) in opt or (v, u) in opt:
            continue
        a = opt_mate.get(u)
        b = opt_mate.get(v)
        if a is None or b is None:
            continue
        if a not in covered and b not in covered:
            hits += 1
    return hits


# ---------------------------------------------------------------------------
# clique-plus-perfect-matching static experiment
# ---------------------------------------------------------------------------


def clique_pm_static_experiment(
    n_total: int,
    levels: int,
    seeds: int,
    base_seed: int = 0,
    sample_p: float = 0.03,
) -> dict:
    """Static layered build on the worst-case family, with the exact final step.

    The instance is a clique on the first half of the vertices plus a pendant
    perfect matching, so mu = n/2 analytically while the base greedy matching
    lands near mu/2.  Per seed: draw fresh rankings/coins, run the full
    layered construction, and take the exact maximum matching of the union of
    all produced matchings as the answer.  Reports paired ratio statistics.
    """
    if n_total % 2:
        raise ValueError("n_total must be even")
    half = n_total // 2
    cu, cv = np.triu_indices(half, 1)
    us = np.concatenate([cu, np.arange(half)]).astype(np.int64)
    vs = np.concatenate([cv, np.arange(half) + half]).astype(np.int64)
    m = len(us)
    mu = half
    delta_cap = half  # clique degree plus the pendant edge
    t_vals = [int(delta_cap ** (-i / levels) * RANK_SCALE) for i in range(levels + 1)]

    def level_of_value(value: int) -> int:
        for i in range(1, levels):
            if value > t_vals[i]:
                return i
        return levels

    r0_list: list[float] = []
    ra_list: list[float] = []
    pivot_sizes: list[dict[int, int]] = []
    for s in range(seeds):
        rng = np.random.default_rng(base_seed + s)
        rank0 = rng.integers(0, RANK_SCALE, size=m, dtype=np.uint64)
        order = np.argsort(rank0, kind="stable")
        su = us[order]
        sv = vs[order]
        kpos, matched_pos = _bulk_greedy(su.tolist(), sv.tolist(), n_total)
        rank_by_pos = rank0[order]

        match_level = np.zeros(n_total, dtype=np.int8)
        sampled_bit = rng.random(len(matched_pos)) < sample_p
        coins = rng.integers(0, 2, size=(levels + 1, n_total), dtype=np.int8)
        m0_edges: list[EdgeKey] = []
        sizes = {i: 0 for i in range(1, levels + 1)}
        # per matched edge: its level and, if sampled, its V-side roles
        v_role = np.zeros((levels + 1, n_total), dtype=np.int8)  # 0 none, 3 VA, 4 VB
        for pos_idx, pos in enumerate(matched_pos):
            a = int(su[pos])
            b = int(sv[pos])
            lvl = level_of_value(int(rank_by_pos[pos]))
            match_level[a] = lvl
            match_level[b] = lvl
            sizes[lvl] += 1
            m0_edges.append((a, b) if a < b else (b, a))
            if sampled_bit[pos_idx]:
                lo, hi = (a, b) if a < b else (b, a)
                v_role[lvl][lo] = 3
                v_role[lvl][hi] = 4
        pivot_sizes.append(sizes)

        union: set[EdgeKey] = set(m0_edges)
        for i in range(1, levels + 1):
            code = np.where(match_level < i, 1 + coins[i], 0).astype(np.int8)
            at_level = v_role[i] != 0
            code[at_level] = v_role[i][at_level]
            cu_ = code[us]
            cv_ = code[vs]
            mask = (
                ((cu_ == 3) & (cv_ == 1))
                | ((cu_ == 1) & (cv_ == 3))
                | ((cu_ == 4) & (cv_ == 2))
                | ((cu_ == 2) & (cv_ == 4))
            )
            cand = np.nonzero(mask)[0]
            if len(cand) == 0:
                continue
            pi = rng.integers(0, RANK_SCALE, size=len(cand), dtype=np.uint64)
            sub = cand[np.argsort(pi, kind="stable")]
            taken: set[int] = set()
            for idx in sub.tolist():
                a, b = int(us[idx]), int(vs[idx])
                if a not in taken and b not in taken:
                    taken.add(a)
                    taken.add(b)
                    union.add((a, b) if a < b else (b, a))

        answer = max_matching_exact(n_total, union, limit=max(n_total, 2000))
        r0_list.append(len(m0_edges) / mu)
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
