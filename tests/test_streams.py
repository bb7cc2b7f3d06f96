import hashlib
import tracemalloc

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

    @pytest.mark.parametrize("n", [6796, 2**20])
    def test_clique_pm_refuses_a_build_above_the_budget(self, n):
        # 6796 is the smallest even n whose (n/2 choose 2) + n/2 build edges
        # exceed the budget at 186 bytes each
        with pytest.raises(StreamSpecError, match="-byte budget"):
            generate_stream(StreamSpec("clique-pm", n, n // 2, 1, seed=1))

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


class TestGeneratorPins:
    """Every generator's stream, pinned by its sha256 over two seeds, so a
    change to the adversaries' draw order fails here.  perfbench's digests
    cover only erdos-churn and clique-pm."""

    @pytest.mark.parametrize(
        "generator, n, delta, params, pins",
        [
            ("erdos-churn", 64, 8, {}, (
                "53c8dcbc31fa9adeb7853e09d8448524f69f13f125762a419fe572d131061cdc",
                "539126498bc60122a7c8975e37e76c23ad658c9745bd9cf6dff043b6c68a804d",
            )),
            ("erdos-churn", 200, 4, {"target_edges": 500}, (
                "9edcfae4ce201b64a58f9f491a263b819b728b40e2aaa1ac7dc27c00a31d26ff",
                "8e2eb742500c06e3ab9ee72944ad6e10b03d6eefd6498c8620b7b774ccee8bf5",
            )),
            ("sliding-window", 64, 8, {"window": 40}, (
                "b930e0e6ee723dd982ca4f2aa23b1fd13039de4db2593ddca52d2b74ba57023f",
                "ce22b522b3c35b9ca81898157089f606b3ddea03f900e3ba106e9f64ecfab44e",
            )),
            ("sliding-window", 300, 16, {}, (
                "8a8fec211d26f899a0b030fae98d430d1b43249213030a9f3d5157f07c3d517f",
                "24ad3a68f17be2244f24d9c86164a0e1013ff756299b1b98cce8cae7fa9b0a07",
            )),
            ("clique-pm", 40, 20, {}, (
                "d4343139487cd2026f8bc55a96744083a218b41fc05ac402f8db5933f8fe7619",
                "3351447fac8de1982682f7d1f4448c58a41172d4f41ac9adb6a926de218e8c50",
            )),
            ("bipartite-churn", 64, 8, {}, (
                "3b0b116964bdd921bd2bc0440f18265ecfecfa5e5d9386f59c9e9084890a5776",
                "f87d27b48cd041ffe11d891000eae46ea6aec4909843e315198cb4f1e68c9fc6",
            )),
            ("bipartite-churn", 201, 6, {"target_edges": 400}, (
                "facfc70955a334b215aae393bdd7e662c60f6812f1cc722bf67749d6feebad11",
                "3131a6ff727c5512dc3c3aa060b3c268cb6ed7db7af311e58a77c1b1f2f8ed5f",
            )),
        ],
    )
    def test_stream_matches_its_pin(self, generator, n, delta, params, pins):
        got = []
        for seed in (1, 2):
            h = hashlib.sha256()
            spec = StreamSpec(generator, n, delta, 3000, seed, dict(params))
            for ev in generate_stream(spec):
                h.update(f"{ev.op} {ev.u} {ev.v} {ev.seq}\n".encode())
            got.append(h.hexdigest())
        assert tuple(got) == pins


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

    def test_mixed_line_breaks_number_lines(self, tmp_path):
        # "\r", "\r\n" and "\n" each end a line, and a blank line counts
        path = tmp_path / "stream.jsonl"
        path.write_bytes(
            b'{"op": "ins", "u": 0, "v": 1}\r{"op": "ins", "u": 0, "v": 2}\r\n'
            b'\r\n{"op": "del", "u": 0, "v": 1}\n\r{"op": "del", "u": 0, "v": 2}'
        )
        assert [e.seq for e in read_stream(path)] == [0, 1, 3, 5]

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (b"\xff", "invalid start byte"),
            # a multi-byte sequence cut short by the line break
            (b"\xe2\x82", "invalid continuation byte"),
        ],
    )
    def test_bad_byte_after_mixed_line_breaks_names_its_line(
        self, tmp_path, bad, reason
    ):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(
            b'{"op": "ins", "u": 0, "v": 1}\r{"op": "ins", "u": 0, "v": 2}\r\n'
            b'\r\n{"op": "del", "u": 0, "v": ' + bad + b'\r\n'
        )
        with pytest.raises(ReplayError) as err:
            read_stream(path)
        assert err.value.seq == 3
        assert f"line 4: not UTF-8 ({reason})" in str(err.value)

    def test_cr_line_breaks_cost_what_newlines_cost(self, tmp_path):
        # a file whose lines end in "\r" alone is read one line at a time
        # too: beyond the parsed events, no copy of the file is held
        events = generate_stream(StreamSpec("erdos-churn", 200, 8, 20_000, seed=3))
        lf = tmp_path / "lf.jsonl"
        write_stream(events, lf)
        cr = tmp_path / "cr.jsonl"
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        peaks = []
        for path in (lf, cr):
            tracemalloc.start()
            try:
                assert len(read_stream(path)) == len(events)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_bad_byte_past_the_first_64_kib_names_its_line(self, tmp_path):
        line = b'{"op": "ins", "u": 0, "v": 1}\n'
        lines = 3000
        assert lines * len(line) > 64 * 1024
        path = tmp_path / "stream.jsonl"
        path.write_bytes(line * lines + b'{"op": "del", "u": \xff, "v": 1}\n' + line)
        with pytest.raises(ReplayError) as err:
            read_stream(path)
        assert err.value.seq == lines
        assert f"line {lines + 1}: not UTF-8 (invalid start byte)" in str(err.value)

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
