import pytest

from dynmatch.core import edge_key
from dynmatch.errors import ReplayError, StreamSpecError
from dynmatch.streams import (
    StreamSpec,
    generate_stream,
    read_stream,
    write_stream,
)


def replay_valid(events, n, delta):
    present = set()
    deg = [0] * n
    for ev in events:
        key = edge_key(ev.u, ev.v)
        if ev.op == "ins":
            assert key not in present, ev
            assert deg[key[0]] < delta and deg[key[1]] < delta, ev
            present.add(key)
            deg[key[0]] += 1
            deg[key[1]] += 1
        else:
            assert key in present, ev
            present.remove(key)
            deg[key[0]] -= 1
            deg[key[1]] -= 1
    return present


class TestGenerators:
    def test_determinism(self):
        spec = StreamSpec("erdos-churn", 8, 4, 10, seed=1)
        assert generate_stream(spec) == generate_stream(spec)

    @pytest.mark.parametrize(
        "generator,params",
        [
            ("erdos-churn", {}),
            ("sliding-window", {"window": 12}),
            ("bipartite-churn", {}),
        ],
    )
    def test_replay_validity(self, generator, params):
        spec = StreamSpec(generator, 24, 6, 400, seed=3, params=params)
        replay_valid(generate_stream(spec), 24, 6)

    def test_clique_pm_build_counts(self):
        # total n = 8 means a 4-clique plus 4 pendant edges
        spec = StreamSpec("clique-pm", 8, 4, 10, seed=5)
        events = generate_stream(spec)
        build = events[: 6 + 4]
        assert all(ev.op == "ins" for ev in build)
        clique = [ev for ev in build if ev.key[1] < 4]
        pendant = [ev for ev in build if ev.key[1] >= 4]
        assert len(clique) == 6 and len(pendant) == 4
        assert len(events) == 10 + 10
        replay_valid(events, 8, 4)
        # churn touches clique edges only
        for ev in events[10:]:
            assert ev.key[1] < 4

    def test_clique_pm_rejects_small_delta(self):
        with pytest.raises(StreamSpecError):
            generate_stream(StreamSpec("clique-pm", 8, 3, 10, seed=1))
        with pytest.raises(StreamSpecError):
            generate_stream(StreamSpec("clique-pm", 7, 4, 10, seed=1))
        with pytest.raises(StreamSpecError, match="n >= 4"):
            generate_stream(StreamSpec("clique-pm", 2, 1, 5, seed=1))

    def test_sliding_window_deletes_expired_inserts(self):
        w = 9
        spec = StreamSpec("sliding-window", 32, 8, 60, seed=7, params={"window": w})
        events = generate_stream(spec)
        for t, ev in enumerate(events):
            if t >= w and events[t - w].op == "ins":
                old = events[t - w]
                assert ev.op == "del" and ev.key == old.key
        replay_valid(events, 32, 8)

    def test_bipartite_edges_cross_halves(self):
        spec = StreamSpec("bipartite-churn", 20, 6, 200, seed=9)
        for ev in generate_stream(spec):
            assert (ev.key[0] < 10) and (ev.key[1] >= 10)

    def test_unknown_generator(self):
        with pytest.raises(StreamSpecError):
            generate_stream(StreamSpec("nope", 8, 4, 10, seed=1))


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        spec = StreamSpec("erdos-churn", 10, 5, 40, seed=11)
        events = generate_stream(spec)
        path = tmp_path / "stream.jsonl"
        write_stream(events, path)
        back = read_stream(path)
        assert [(e.op, e.u, e.v) for e in back] == [(e.op, e.u, e.v) for e in events]
        assert [e.seq for e in back] == list(range(len(events)))
        # one flat JSON object per line
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(events)
        assert all(line.startswith("{") for line in lines)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ('{"op": "ins", "u": 1}', "missing field 'v'"),
            ('{"op": "ins", "u": 1, "v": ', "bad JSON"),
            ('{"op": "upd", "u": 1, "v": 2}', "unknown op 'upd'"),
            ('[1, 2]', "expected a JSON object"),
            ('{"op": "del", "u": "1", "v": 2}', "vertex ids must be integers"),
            ('{"op": "ins", "u": -5, "v": -3}',
             "vertex ids must be non-negative integers"),
            ('{"op": "del", "u": 4, "v": -1}',
             "vertex ids must be non-negative integers"),
            pytest.param(
                "[" * 100000, "bad JSON (nested too deeply)", id="deep-nesting"
            ),
            pytest.param(
                '{"op": "ins", "u": ' + "9" * 5000 + ', "v": 1}',
                "bad JSON (integer literal too long)",
                id="long-integer",
            ),
        ],
    )
    def test_malformed_line_names_its_line(self, tmp_path, bad, reason):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"op": "ins", "u": 1, "v": 2}\n\n' + bad + "\n")
        with pytest.raises(ReplayError) as err:
            read_stream(path)
        assert err.value.seq == 2
        assert f"line 3: {reason}" in str(err.value)
