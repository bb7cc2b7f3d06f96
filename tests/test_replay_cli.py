import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dynmatch.replay as replay_module
import dynmatch.suites as suites
from dynmatch.cli import main
from dynmatch.core import (
    MAX_LEVELS,
    MAX_VERTICES,
    VERTEX_STATE_BUDGET,
    Instance,
    InstanceConfig,
    edge_key,
)
from dynmatch.errors import ConfigError, OracleLimitError, ReplayError
from dynmatch.exact import DEFAULT_ORACLE_LIMIT, max_matching_exact
from dynmatch.pipeline import Pipeline
from dynmatch.replay import CHECKS, _percentile, replay
from dynmatch.rgmm import MatchingState
from dynmatch.streams import StreamSpec, UpdateEvent, generate_stream
from helpers import violations

#: A delta_cap far above any vertex count: 1 followed by 400 zeros.
HUGE_DELTA = 10**400


class TestReplay:
    def test_empty_stream(self):
        summary = replay([], InstanceConfig(4, 4, 2, algo_seed=1))
        assert summary["events"] == 0
        assert summary["final_m0"] == 0
        assert summary["mean_ns"] == 0.0

    def test_single_insert(self):
        events = [UpdateEvent("ins", 1, 2, 0)]
        summary = replay(events, InstanceConfig(4, 4, 2, algo_seed=1), oracle_every=1)
        assert summary["final_m0"] == 1
        assert summary["final_answer"] == 1
        assert summary["final_mu"] == 1
        assert summary["final_ratio"] == 1.0

    def test_final_level_and_union_sizes(self):
        events = generate_stream(
            StreamSpec("erdos-churn", 200, 16, 600, 31, {"target_edges": 800})
        )
        config = InstanceConfig(200, 16, 3, sample_p=0.12, algo_seed=32)
        summary = replay(events, config, oracle_every=0)
        pipe = Pipeline(Instance(config))
        for ev in events:
            pipe.handle_update(ev.op, ev.u, ev.v)
        assert summary["final_levels"] == {
            str(i): {"g_edges": len(ls.state.rank_of), "m_i": len(ls.state.matching)}
            for i, ls in pipe.levels.items()
        }
        assert summary["final_union_edges"] == len(pipe.union.edges())
        # the levels hold edges, and the union holds M_0 plus what they add
        assert sum(lv["m_i"] for lv in summary["final_levels"].values()) > 0
        assert summary["final_union_edges"] >= summary["final_m0"]

    def test_rejects_invalid_stream(self):
        events = [UpdateEvent("del", 1, 2, 0)]
        with pytest.raises(ReplayError) as err:
            replay(events, InstanceConfig(4, 4, 2, algo_seed=1))
        assert err.value.seq == 0

    @pytest.mark.parametrize(
        "bad,reason",
        [
            (("ins", 0, 1), "already present"),
            (("del", 2, 3), "not present"),
            (("ins", 0, 2), "degree bound"),
            (("ins", 0, 4), "outside universe"),
            (("ins", 2, 2), "self-loop"),
            (("upd", 2, 3), "unknown op"),
        ],
    )
    def test_engine_rejection_names_the_event(self, bad, reason):
        events = [UpdateEvent("ins", 0, 1, 0), UpdateEvent(*bad, 1)]
        with pytest.raises(ReplayError) as err:
            replay(events, InstanceConfig(4, 1, 2, algo_seed=1), oracle_every=1)
        assert err.value.seq == 1
        assert reason in str(err.value)

    def test_metrics_file_is_line_json(self, tmp_path):
        events = generate_stream(StreamSpec("erdos-churn", 12, 6, 50, seed=2))
        path = tmp_path / "metrics.jsonl"
        summary = replay(
            events, InstanceConfig(12, 6, 2, algo_seed=3),
            oracle_every=10, metrics_path=path,
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 50
        recs = [json.loads(line) for line in lines]
        assert [r["seq"] for r in recs] == list(range(50))
        oracle_recs = [r for r in recs if r["mu"] is not None]
        assert len(oracle_recs) == 5
        for r in oracle_recs:
            assert r["answer"] <= r["mu"]
            assert r["checks"] == dict.fromkeys(CHECKS, 0)
        assert all(r["checks"] is None for r in recs if r["mu"] is None)
        assert summary["min_ratio"] is not None
        assert summary["first_failure"] is None

    def test_metrics_deterministic_up_to_wall_clock(self, tmp_path):
        events = generate_stream(StreamSpec("erdos-churn", 12, 6, 60, seed=4))
        outs = []
        for run in range(2):
            path = tmp_path / f"m{run}.jsonl"
            replay(events, InstanceConfig(12, 6, 2, algo_seed=5),
                   oracle_every=20, metrics_path=path)
            recs = [json.loads(line) for line in path.read_text().splitlines()]
            for r in recs:
                r.pop("ns")
            outs.append(recs)
        assert outs[0] == outs[1]

    def test_final_mu_is_mu_of_the_final_graph(self):
        # 150 events at oracle_every=100: the last checkpoint comes after the
        # last update, not at update 100
        events = generate_stream(StreamSpec("erdos-churn", 60, 8, 150, 1))
        summary = replay(events, InstanceConfig(60, 8, 2, algo_seed=1), oracle_every=100)
        live = set()
        for ev in events:
            (live.add if ev.op == "ins" else live.discard)(edge_key(ev.u, ev.v))
        mu = max_matching_exact(60, live).size
        assert summary["checkpoints"] == 2
        assert summary["final_mu"] == mu
        assert summary["final_ratio"] == summary["final_answer"] / mu

    def test_desk_scale_stream_passes_every_check(self):
        # the sparse-levels shape: n=2000, L=4, sample_p=0.12
        events = generate_stream(
            StreamSpec("erdos-churn", 2000, 32, 6000, 1, {"target_edges": 4000})
        )
        config = InstanceConfig(2000, 32, 4, sample_p=0.12, algo_seed=1)
        summary = replay(events, config, oracle_every=1000)
        assert summary["checkpoints"] == 6
        assert violations(summary) == {}

    def test_oracle_limit_checked_before_any_event(self, tmp_path):
        events = [UpdateEvent("ins", 0, 1, 0)]
        path = tmp_path / "metrics.jsonl"
        config = InstanceConfig(DEFAULT_ORACLE_LIMIT + 1, 4, 2, algo_seed=1)
        with pytest.raises(OracleLimitError):
            replay(events, config, oracle_every=1, metrics_path=path)
        assert not path.exists()
        summary = replay(events, config, oracle_every=0)
        assert summary["events"] == 1


def test_delta_cap_above_the_vertex_limit_is_refused():
    InstanceConfig(4, MAX_VERTICES, 2).validate()
    with pytest.raises(ConfigError, match="delta_cap must lie in"):
        InstanceConfig(4, MAX_VERTICES + 1, 2).validate()
    with pytest.raises(ConfigError, match="delta_cap must lie in"):
        replay([UpdateEvent("ins", 0, 1, 0)], InstanceConfig(4, HUGE_DELTA, 2))


def test_percentile_is_nearest_rank():
    # ceil(q * n) - 1, as perfbench computes it: the p50 of two samples is
    # the smaller one
    assert _percentile([10, 20], 0.5) == 10
    assert _percentile([10, 20, 30], 0.5) == 20
    assert _percentile(list(range(1, 101)), 0.99) == 99
    assert _percentile(list(range(1, 101)), 1.0) == 100
    assert _percentile([7], 0.0) == 7
    assert _percentile([], 0.5) == 0


class TestCli:
    def test_run_above_oracle_limit_writes_nothing(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 2499}\n')
        metrics = tmp_path / "m.jsonl"
        summary = tmp_path / "summary.json"
        rc = main([
            "run", "--stream", str(stream), "--levels", "2", "--delta", "8",
            "--out", str(metrics), "--summary", str(summary),
        ])
        assert rc == 2
        assert not metrics.exists() and not summary.exists()
        captured = capsys.readouterr()
        assert "exceeds the exact oracle limit 2000" in captured.err
        assert captured.out == ""

    def test_run_exits_1_when_a_check_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(replay_module, "static_reference", lambda *args: {})
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n{"op": "ins", "u": 2, "v": 3}\n')
        assert self._run(stream, "--oracle-every", "1") == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["checkpoints"] == summary["mismatches"] == 2
        assert violations(summary) == {"mismatches": 2}
        assert summary["first_failure"] == {"seq": 0, "checks": ["mismatches"]}

    @pytest.mark.parametrize("command", [["run", "--levels", "2"]])
    def test_huge_delta_is_refused(self, tmp_path, capsys, command):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n')
        assert main([*command, "--stream", str(stream), "--delta", str(HUGE_DELTA)]) == 2
        assert "delta_cap must lie in" in self._one_error_line(capsys)

    def test_run_malformed_stream_names_the_line(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 1}\n')
        rc = main(["run", "--stream", str(stream), "--levels", "2", "--delta", "8"])
        assert rc == 2
        assert "line 1: missing field 'v'" in capsys.readouterr().err

    def test_run_rejects_levels_above_the_cap(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n')
        rc = main(["run", "--stream", str(stream), "--levels", "1500", "--delta", "8"])
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert f"levels must lie in [1, {MAX_LEVELS}], got 1500" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_gen_rejects_a_window_below_one(self, tmp_path, capsys, window):
        out = tmp_path / "s.jsonl"
        rc = main([
            "gen", "--generator", "sliding-window", "--n", "16", "--delta", "8",
            "--len", "40", "--window", window, "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert f"window >= 1, got {window}" in lines[0]

    def test_gen_rejects_a_clique_pm_with_no_clique_edge(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        rc = main([
            "gen", "--generator", "clique-pm", "--n", "2", "--delta", "1",
            "--len", "5", "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()
        assert "clique-pm needs n >= 4" in self._one_error_line(capsys)

    @pytest.mark.parametrize("generator", ["erdos-churn", "bipartite-churn"])
    def test_gen_rejects_a_negative_target_edges(self, tmp_path, capsys, generator):
        out = tmp_path / "s.jsonl"
        rc = main([
            "gen", "--generator", generator, "--n", "10", "--delta", "4",
            "--len", "10", "--target-edges", "-3", "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert f"{generator} needs target_edges >= 0, got -3" in lines[0]

    def test_run_rejects_a_negative_oracle_every(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n')
        metrics = tmp_path / "m.jsonl"
        rc = main([
            "run", "--stream", str(stream), "--levels", "2", "--delta", "8",
            "--oracle-every", "-3", "--out", str(metrics),
        ])
        assert rc == 2
        assert not metrics.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert "oracle_every must be >= 0" in lines[0] and "-3" in lines[0]

    def test_run_refuses_an_inferred_n_far_above_the_stream(self, tmp_path, capsys):
        # one edge to vertex 199999 would otherwise size the universe (tapes
        # and role lists) at 200000 vertices before the first event
        stream = tmp_path / "s.jsonl"
        stream.write_text(
            '{"op": "ins", "u": 0, "v": 1}\n{"op": "ins", "u": 0, "v": 199999}\n'
        )
        metrics = tmp_path / "m.jsonl"
        summary = tmp_path / "summary.json"
        rc = self._run(stream, "--oracle-every", "0",
                       "--out", str(metrics), "--summary", str(summary))
        assert rc == 2
        line = self._one_error_line(capsys)
        assert "line 2:" in line and "n = 200000" in line and "--n" in line
        assert not metrics.exists() and not summary.exists()
        # an explicit --n is taken as given
        assert self._run(stream, "--oracle-every", "0", "--n", "200000") == 0
        assert '"final_m0": 1' in capsys.readouterr().out

    @staticmethod
    def _one_error_line(capsys) -> str:
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        return lines[0]

    def _run(self, stream, *extra):
        return main([
            "run", "--stream", str(stream), "--levels", "2", "--delta", "8", *extra,
        ])

    def test_run_missing_stream_file(self, tmp_path, capsys):
        assert self._run(tmp_path / "missing.jsonl") == 2
        line = self._one_error_line(capsys)
        assert "No such file" in line and "missing.jsonl" in line

    def test_run_stream_that_is_not_utf8_names_the_line(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_bytes(
            b'{"op": "ins", "u": 0, "v": 1}\n\n{"op": "ins", "u": 1, "v": \xff}\n'
        )
        assert self._run(stream) == 2
        assert "line 3: not UTF-8" in self._one_error_line(capsys)

    def test_run_stream_nested_past_the_parser_limit_names_the_line(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n' + "[" * 100000 + "\n")
        assert self._run(stream) == 2
        line = self._one_error_line(capsys)
        assert "line 2: bad JSON (nested too deeply)" in line

    def test_run_stream_with_negative_ids_names_the_line(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": -5, "v": -3}\n')
        assert self._run(stream) == 2
        assert "line 1: vertex ids must be non-negative integers" in (
            self._one_error_line(capsys)
        )

    def test_gen_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "s.jsonl"
        rc = main([
            "gen", "--generator", "erdos-churn", "--n", "16", "--delta", "8",
            "--len", "40", "--out", str(out),
        ])
        assert rc == 2
        assert "No such file" in self._one_error_line(capsys)

    def test_run_out_in_missing_directory(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n')
        metrics = tmp_path / "nonexistent" / "m.jsonl"
        assert self._run(stream, "--out", str(metrics)) == 2
        assert "No such file" in self._one_error_line(capsys)

    def test_run_summary_in_missing_directory_fails_before_replay(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n')
        metrics = tmp_path / "m.jsonl"
        summary = tmp_path / "nonexistent" / "summary.json"
        rc = self._run(stream, "--out", str(metrics), "--summary", str(summary))
        assert rc == 2
        assert "No such file" in self._one_error_line(capsys)
        assert not metrics.exists()

    def test_gen_run_validate(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        rc = main([
            "gen", "--generator", "erdos-churn", "--n", "16", "--delta", "8",
            "--len", "40", "--seed", "1", "--out", str(stream),
        ])
        assert rc == 0
        metrics = tmp_path / "m.jsonl"
        summary = tmp_path / "summary.json"
        rc = main([
            "run", "--stream", str(stream), "--levels", "2", "--delta", "8",
            "--seed", "2", "--oracle-every", "10",
            "--out", str(metrics), "--summary", str(summary),
        ])
        assert rc == 0
        data = json.loads(summary.read_text())
        assert data["events"] == 40
        assert metrics.exists()
        rc = main(["validate", "--suite", "pivot-level"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"passed": true' in out

    @pytest.mark.parametrize("flag", [
        "--seeds", "--n", "--delta", "--levels", "--updates", "--trials",
    ])
    def test_validate_takes_only_the_suite(self, flag):
        # each suite runs at fixed sizes; another size is a `gen` + `run`
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--suite", "pivot-level", flag, "5"])
        assert exc.value.code == 2

    def test_run_refuses_an_n_above_the_vertex_state_budget(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"op": "ins", "u": 0, "v": 1}\n')
        summary = tmp_path / "summary.json"
        # refused by the config check, before any per-vertex table is built
        n = VERTEX_STATE_BUDGET // (28 + 9 * 4) + 1
        rc = main([
            "run", "--stream", str(stream), "--levels", "4", "--delta", "8",
            "--n", str(n), "--oracle-every", "0", "--summary", str(summary),
        ])
        assert rc == 2
        line = self._one_error_line(capsys)
        assert f"vertex count {n} at levels 4" in line
        assert str(VERTEX_STATE_BUDGET) in line
        assert not summary.exists()


def test_engine_imports_no_numpy():
    # numpy is loaded only by the statistical validators, never by the
    # engine or the replay harness
    code = (
        "import sys, dynmatch.pipeline, dynmatch.replay as m; "
        "assert m.__name__ == 'dynmatch.replay', m; "
        "assert 'numpy' not in sys.modules"
    )
    src = str(Path(replay_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_importing_core_loads_no_other_module():
    # the package re-exports nothing, so `core` brings in only `errors`
    code = (
        "import sys, dynmatch.core; "
        "loaded = {m for m in sys.modules if m.startswith('dynmatch.')}; "
        "assert loaded == {'dynmatch.core', 'dynmatch.errors'}, loaded"
    )
    src = str(Path(replay_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _small_replay() -> dict:
    events = generate_stream(StreamSpec("erdos-churn", 12, 6, 30, 1000))
    return replay(events, InstanceConfig(12, 6, 2, algo_seed=2000), oracle_every=1)


def test_equivalence_fails_on_a_short_augmenting_path(monkeypatch):
    monkeypatch.setattr(replay_module, "has_short_augmenting_path", lambda *args: True)
    summary = _small_replay()
    assert summary["short_path_violations"] == summary["events"] == 30


def test_equivalence_fails_when_m0_is_below_half_mu(monkeypatch):
    # mu cannot exceed n/2, so n + 1 is above 2|M_0| on every update
    monkeypatch.setattr(
        replay_module, "max_matching_exact",
        lambda n, edges: SimpleNamespace(size=n + 1, witness=set()),
    )
    assert _small_replay()["half_mu_violations"] == 30


def test_equivalence_fails_when_the_answer_is_not_a_matching(monkeypatch):
    # (0, 1) and (1, 2) share vertex 1, so the answer is never a matching
    monkeypatch.setattr(
        Pipeline, "current_answer", lambda self: self.union.matching() | {(0, 1), (1, 2)}
    )
    summary = _small_replay()
    assert summary["answer_matching_violations"] == summary["events"] == 30


@pytest.mark.parametrize("check", CHECKS)
def test_equivalence_suite_fails_on_any_check(monkeypatch, check):
    def one_failing_check(events, config, oracle_every):
        counts = dict.fromkeys(CHECKS, 0)
        counts[check] = 1
        return {"events": len(events), "checkpoints": len(events), **counts}

    monkeypatch.setattr(suites, "replay", one_failing_check)
    report = suites.suite_equivalence()
    # one count per replay: 10 seeds x 2 level counts
    assert report[check] == 20
    assert violations(report) == {check: 20}
    assert report["passed"] is False


def _snapshot_dropping_a_third_of_k(self):
    k = dict(self.k)
    for v in sorted(k)[::3]:
        del k[v]
    return {"edges": self.rank_of, "matching": self.matching, "k": k}


def _matching_dropping_a_fifth(self):
    keys = sorted(set(self.matched.values()))
    return set(keys) - set(keys[::5])


@pytest.mark.parametrize("attr, mutant", [
    ("snapshot", _snapshot_dropping_a_third_of_k),
    ("matching", property(_matching_dropping_a_fifth)),
])
def test_reference_equality_catches_a_broken_state_view(monkeypatch, attr, mutant):
    # the static reference builds its own state, so a view of the engine's
    # state that loses entries cannot also break the side it is compared with
    monkeypatch.setattr(MatchingState, attr, mutant)
    events = generate_stream(StreamSpec("erdos-churn", 32, 16, 200, 1000))
    summary = replay(events, InstanceConfig(32, 16, 2, algo_seed=2000), oracle_every=1)
    assert summary["mismatches"] > 0
    assert "mismatches" in summary["first_failure"]["checks"]

