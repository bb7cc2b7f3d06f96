import ast
import random
from pathlib import Path

import numpy as np
import pytest

from dynmatch.core import EdgeRecord, Instance, InstanceConfig, edge_key, make_rank
from dynmatch.errors import ConfigError
from dynmatch.exact import max_matching_exact
from dynmatch.pipeline import Role
from dynmatch import reference
from dynmatch.reference import static_reference
from dynmatch.validators import (
    audit_sparsification,
    augmentation_bound,
    augmentation_gadget,
    clique_pm_edges,
    clique_pm_layers,
    clique_pm_static_experiment,
    find_pivot_level,
    validate_partition_augmentation,
    validate_vertex_sampling,
)


class TestStaticReference:
    def test_imports_no_engine_module(self):
        # the oracle stays independent of the engine it checks: of the
        # package, it imports only `core` (config, thresholds and records)
        tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:
                    if not module.startswith("dynmatch"):
                        continue  # the standard library
                    module = module.partition(".")[2]
                # `from . import x` names the module x
                package.update([module] if module else [a.name for a in node.names])
            elif isinstance(node, ast.Import):
                package.update(
                    a.name.partition(".")[2] or a.name
                    for a in node.names if a.name.startswith("dynmatch")
                )
        assert package == {"core"}

    def test_empty_graph(self):
        config = InstanceConfig(4, 4, 2, algo_seed=1)
        inst = Instance(config)
        ref = static_reference([], inst.tapes, config)
        assert ref["m0"]["matching"] == set()
        assert all(not s for s in ref["members"].values())
        assert all(not m["edges"] for m in ref["m_i"].values())
        assert ref["union"] == {}

    def test_single_edge(self):
        config = InstanceConfig(4, 4, 2, algo_seed=1)
        inst = Instance(config)
        rec = inst.admit_edge(1, 2)
        ref = static_reference([rec], inst.tapes, config)
        assert ref["m0"]["matching"] == {(1, 2)}
        level = inst.level_of_rank(rec.ranks[0])
        assert ref["members"][level] == frozenset({(1, 2)})
        assert all(not m["edges"] for m in ref["m_i"].values())
        assert ref["union"] == {(1, 2): 1}

    def test_pure_function_of_inputs(self):
        config = InstanceConfig(10, 6, 2, algo_seed=3)
        inst = Instance(config)
        rng = random.Random(4)
        for _ in range(18):
            u, v = rng.randrange(10), rng.randrange(10)
            if (u != v and edge_key(u, v) not in inst.records
                    and inst.deg[u] < 6 and inst.deg[v] < 6):
                inst.admit_edge(u, v)
        a = static_reference(inst.records.values(), inst.tapes, config)
        b = static_reference(list(inst.records.values())[::-1], inst.tapes, config)
        assert a == b
        mu = max_matching_exact(config.n, a["union"].keys()).size
        assert mu >= len(a["m0"]["matching"])


class TestPivotLevel:
    def test_all_mass_in_last_level(self):
        assert find_pivot_level([0, 100]) == 2

    def test_all_mass_in_first_level(self):
        assert find_pivot_level([100, 0]) == 1

    def test_uniform(self):
        assert find_pivot_level([50, 50]) == 1

    def test_rejects_empty_matching(self):
        with pytest.raises(ValueError):
            find_pivot_level([0, 0])

    def test_guaranteed_inequalities_hold_for_returned_level(self):
        rng = random.Random(8)
        for _ in range(2000):
            levels = rng.choice((2, 3, 4))
            sizes = [rng.randint(0, 10**6) for _ in range(levels)]
            if sum(sizes) == 0:
                sizes[0] = 1
            i = find_pivot_level(sizes)  # raises on violation
            m0 = sum(sizes)
            assert sizes[i - 1] * (1 << (13 * levels)) >= m0
            assert sizes[i - 1] > sum(sizes[: i - 1]) << 11


class TestSparsificationAudit:
    def test_extreme_thresholds(self):
        report = audit_sparsification(
            n=60, m=180, trials=2, thresholds=(0.0, 1.0), seed=3, gate=1e9
        )
        # p = 1 excludes everything
        assert report["max_degree"]["1.0"] == 0
        # p = 0 keeps (essentially surely) the whole graph
        assert report["max_degree"]["0.0"] >= 3

    def test_default_audit_passes_gate(self):
        report = audit_sparsification(n=400, m=2400, trials=5, seed=5)
        assert report["passed"]
        assert report["fitted_c"] <= 4.0

    def test_more_edges_than_pairs_rejected(self):
        with pytest.raises(ConfigError, match="do not fit"):
            audit_sparsification(n=10, m=46, trials=1)


class TestVertexSampling:
    def test_single_edge_p_one(self):
        stats = validate_vertex_sampling(1, 1, [(0, 1)], [(0, 1)], 1.0, 50, seed=1)
        assert stats["mean"] == 1.0
        assert stats["bound"] == pytest.approx(-1.0)
        assert stats["passed"]

    def test_p_zero(self):
        stats = validate_vertex_sampling(4, 4, [(0, 4), (1, 5)], [(0, 4)], 0.0, 50, seed=1)
        assert stats["mean"] == 0.0
        assert stats["bound"] == 0.0
        assert stats["passed"]

    def test_k88_quarter(self):
        edges = [(v, 8 + u) for v in range(8) for u in range(8)]
        matching = [(i, 8 + i) for i in range(8)]
        stats = validate_vertex_sampling(8, 8, edges, matching, 0.25, 2000, seed=2)
        assert stats["bound"] == pytest.approx(1.0)
        assert stats["passed"]


class TestPartitionAugmentation:
    def test_bound_coefficient_published_value(self):
        assert augmentation_bound(0.03, 0.01) == pytest.approx(0.003825)
        assert augmentation_bound(0.03, 1.0) <= 0.0

    def test_gadget_shape(self):
        g = augmentation_gadget(10, noise=5, seed=1)
        assert g.count == 10
        assert len(g.candidates) >= 20
        for u, v, j, side in g.candidates:
            assert v in (4 * j + 1, 4 * j + 2)
            assert side in (0, 1)

    def test_small_family_meets_bound(self):
        g = augmentation_gadget(500, noise=250, seed=2)
        stats = validate_partition_augmentation(g, p=0.03, trials=60, seed=3)
        assert stats["bound"] == pytest.approx(0.003825 * 500)
        assert stats["passed"]

    def test_bound_follows_p(self):
        g = augmentation_gadget(200, noise=100, seed=4)
        stats = validate_partition_augmentation(g, p=0.05, trials=5, seed=1)
        assert stats["bound"] == pytest.approx(augmentation_bound(0.05, 0.01) * 200)


class TestCliquePmExperiment:
    def test_small_smoke(self):
        rep = clique_pm_static_experiment(120, levels=2, seeds=3, base_seed=9)
        assert rep["mu"] == 60
        for r0, ra, sizes in zip(
            rep["m0_ratios"], rep["answer_ratios"], rep["level_sizes"]
        ):
            assert 0.4 <= r0 <= 0.7
            assert ra >= r0
            assert sum(sizes.values()) == round(r0 * 60)

    @pytest.mark.parametrize(
        "n_total,levels,sample_p",
        [(12, 2, 0.12), (40, 3, 0.12), (60, 2, 0.03), (60, 3, 0.1)],
    )
    def test_layers_match_static_reference(self, n_total, levels, sample_p):
        # the experiment's own draws, handed to the oracle as edge records
        # and vertex tapes, must rebuild every layer the experiment built
        role_of_code = tuple(
            r.value for r in (Role.ABSENT, Role.U_A, Role.U_B, Role.V_A, Role.V_B)
        )
        us, vs = clique_pm_edges(n_total)
        keys = list(zip(us.tolist(), vs.tolist()))
        config = InstanceConfig(n_total, n_total // 2, levels, sample_p=sample_p)
        level_edges = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            build = clique_pm_layers(n_total, us, vs, levels, sample_p, rng)
            m0 = build.m0.tolist()
            values = [[r] + [0] * levels for r in build.rank0.tolist()]
            g_ranks = {}
            for i in range(1, levels + 1):
                g_ranks[i] = {}
                for j, r in zip(build.g[i].tolist(), build.pi[i].tolist()):
                    values[j][i] = r
                    g_ranks[i][keys[j]] = make_rank(r, *keys[j])
            sampled = [0] * len(keys)
            for j, lvl, bit in zip(m0, build.m0_level, build.sampled.tolist()):
                sampled[j] |= bit << lvl - 1
            records = [
                EdgeRecord(
                    key,
                    tuple(make_rank(r, *key) for r in values[j]),
                    sampled[j],
                )
                for j, key in enumerate(keys)
            ]
            tapes = [
                sum(int(build.coins[i][v]) << i - 1 for i in range(1, levels + 1))
                for v in range(n_total)
            ]
            ref = static_reference(records, tapes, config)

            assert ref["m0"]["matching"] == {keys[j] for j in m0}
            for i in range(1, levels + 1):
                assert ref["members"][i] == {
                    keys[j] for j, lvl in zip(m0, build.m0_level) if lvl == i
                }
                assert ref["roles"][i] == tuple(
                    role_of_code[c] for c in build.codes[i].tolist()
                )
                assert ref["m_i"][i]["edges"] == g_ranks[i]
                assert ref["m_i"][i]["matching"] == {
                    keys[j] for j in build.m[i].tolist()
                }
                level_edges += len(g_ranks[i])
        assert level_edges > 0
