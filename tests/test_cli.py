import gc
import weakref

import pytest

from hushrelay import cli
from hushrelay.cli import main
from hushrelay.graph import ChannelGraph
from hushrelay.netfile import MAX_NODES, save_network

from .conftest import five_node_graph


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.pcn"
    save_network(five_node_graph(), path)
    return str(path)


class TestGen:
    def test_writes_network(self, tmp_path, capsys):
        out = tmp_path / "net.pcn"
        assert main(["gen", "--nodes", "50", "--attach", "2", "--seed", "7", "--out", str(out)]) == 0
        assert "97 channels" in capsys.readouterr().out

    def test_same_flags_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.pcn", tmp_path / "b.pcn"
        args = ["gen", "--nodes", "40", "--seed", "3", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_small_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.pcn"
        assert main(["gen", "--nodes", "1", "--out", str(out)]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_nodes_above_loader_bound_rejected(self, tmp_path, capsys):
        # a generated network obeys the bound that route --network enforces
        out = tmp_path / "x.pcn"
        assert main(["gen", "--nodes", str(MAX_NODES + 1), "--out", str(out)]) == 2
        assert f"node count must be in 0..{MAX_NODES}" in capsys.readouterr().err
        assert not out.exists()


class TestRoute:
    def test_full_delivery_exit_zero(self, example_file, capsys):
        code = main(["route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered 15 of 15" in out
        assert "0-1-3-4 : 10" in out
        assert "0-2-3-4 : 5" in out

    def test_partial_delivery_exit_one(self, example_file, capsys):
        code = main(["route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "21"])
        assert code == 1
        assert "delivered 20 of 21" in capsys.readouterr().out

    def test_zero_amount_is_usage_error(self, example_file):
        assert main(["route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "0"]) == 2

    def test_delay_above_max_delay_is_usage_error(self, example_file, capsys):
        # the event ring has one slot per tick of delay, so the bound is checked
        # before any simulator is built
        assert main([
            "route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "15",
            "--latency", "uniform:1:1000000000",
        ]) == 2
        assert "MAX_DELAY (1000)" in capsys.readouterr().err

    def test_missing_network_is_io_error(self, tmp_path):
        assert main(["route", "--network", str(tmp_path / "nope.pcn"), "--source", "0", "--sink", "4", "--amount", "5"]) == 3

    def test_malformed_network_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.pcn"
        bad.write_text("pcn 2\nchan 0 1 oops 0\n")
        assert main(["route", "--network", str(bad), "--source", "0", "--sink", "1", "--amount", "5"]) == 3

    def test_oversized_network_is_io_error(self, tmp_path):
        big = tmp_path / "big.pcn"
        big.write_text(f"pcn {MAX_NODES + 1}\n")
        assert main(["route", "--network", str(big), "--source", "0", "--sink", "1", "--amount", "5"]) == 3

    def test_trace_deterministic(self, example_file, tmp_path):
        traces = []
        for name in ("t1", "t2"):
            path = tmp_path / name
            assert main([
                "route", "--network", example_file, "--source", "0", "--sink", "4",
                "--amount", "15", "--seed", "5", "--trace", str(path),
            ]) == 0
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

    def test_report_demo_round_trips(self, example_file, capsys):
        code = main([
            "route", "--network", example_file, "--source", "0", "--sink", "4",
            "--amount", "15", "--report-demo",
        ])
        assert code == 0
        assert "reconstruction ok" in capsys.readouterr().out

    def test_report_value_beyond_u64_is_usage_error(self, tmp_path, capsys):
        g = ChannelGraph(3)
        g.open_channel(0, 1, 2**65, 0)
        g.open_channel(1, 2, 2**65, 0)
        net = tmp_path / "huge.pcn"
        save_network(g, net)
        code = main([
            "route", "--network", str(net), "--source", "0", "--sink", "2",
            "--amount", str(2**64), "--report-demo",
        ])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_env_seed_fallback(self, example_file, monkeypatch, capsys):
        monkeypatch.setenv("HUSHRELAY_SEED", "9")
        assert main(["route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "15"]) == 0

    def test_non_integer_env_seed_is_usage_error(self, example_file, monkeypatch, capsys):
        monkeypatch.setenv("HUSHRELAY_SEED", "nine")
        assert main(["route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "15"]) == 2
        assert "HUSHRELAY_SEED must be an integer, got 'nine'" in capsys.readouterr().err

    def test_source_out_of_range_is_usage_error(self, example_file, capsys):
        assert main(["route", "--network", example_file, "--source", "99", "--sink", "4", "--amount", "15"]) == 2
        assert "usage error: node 99 out of range 0..4" in capsys.readouterr().err

    def test_check_flag_is_usage_error(self, example_file):
        # per-event invariant checks are a test oracle (tests/oracles.py), not an option
        assert main([
            "route", "--network", example_file, "--source", "0", "--sink", "4", "--amount", "15", "--check",
        ]) == 2


class TestBench:
    def test_csv_output_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main([
                "bench", "--nodes", "20", "--txns", "15", "--seed", "3",
                "--out", str(path),
            ]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0].startswith(b"txn,source,sink,value,feasible")

    def test_summary_printed(self, tmp_path, capsys):
        assert main(["bench", "--nodes", "20", "--txns", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "success_ratio" in out

    def test_seed_sweep_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main([
            "bench", "--nodes", "15", "--txns", "5", "--seeds", "1..5",
            "--out", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("seed,")
        assert len(lines) == 6  # header + one aggregate row per seed

    def test_seed_sweep_keeps_no_old_reports(self, tmp_path, monkeypatch):
        # a sweep writes one row per seed, so a seed's full report must not
        # outlive the next seed's routing
        route = cli.run_bench
        reports = []

        def run_bench(*args, **kwargs):
            if len(reports) >= 2:
                gc.collect()
                assert reports[-2]() is None, f"report of seed {len(reports) - 1} still held"
            report = route(*args, **kwargs)
            reports.append(weakref.ref(report))
            return report

        monkeypatch.setattr(cli, "run_bench", run_bench)
        path = tmp_path / "sweep.csv"
        assert main([
            "bench", "--nodes", "15", "--txns", "5", "--seeds", "1..5",
            "--out", str(path),
        ]) == 0
        assert len(reports) == 5

    def test_json_format(self, tmp_path):
        import json

        path = tmp_path / "r.json"
        assert main([
            "bench", "--nodes", "15", "--txns", "5", "--seed", "2",
            "--out", str(path), "--format", "json",
        ]) == 0
        doc = json.loads(path.read_text())
        assert doc["aggregate"]["txn_count"] == 5

    def test_single_seed_spec_is_one_report(self, tmp_path, capsys):
        # a one-seed --seeds is no sweep: one report, and JSON is allowed
        paths = tmp_path / "seeds.json", tmp_path / "seed.json"
        for flags, path in ((["--seeds", "5"], paths[0]), (["--seed", "5"], paths[1])):
            assert main([
                "bench", "--nodes", "15", "--txns", "5", *flags,
                "--format", "json", "--out", str(path),
            ]) == 0
            out = capsys.readouterr().out
            assert [line for line in out.splitlines() if line.startswith("seed ")] == ["seed 5:"]
        assert paths[0].read_text() == paths[1].read_text()

    @pytest.mark.parametrize("spec", ["5..4", "x..3", "x"])
    def test_bad_seed_spec_is_usage_error(self, spec, capsys):
        assert main(["bench", "--nodes", "10", "--txns", "5", "--seeds", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{spec!r}" in err

    def test_check_flag_is_usage_error(self):
        assert main(["bench", "--nodes", "10", "--txns", "5", "--check"]) == 2

    def test_json_seed_sweep_is_usage_error(self, tmp_path, capsys):
        # a sweep writes one CSV row per seed; it is refused before any seed is routed
        path = tmp_path / "sw.json"
        assert main([
            "bench", "--nodes", "15", "--txns", "5", "--seeds", "1..3",
            "--format", "json", "--out", str(path),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage error" in err
        assert not path.exists()

    @pytest.mark.parametrize("top", [10**18, 10**20])
    def test_huge_json_seed_sweep_is_usage_error(self, top, capsys):
        # refused without building the sweep's list of seeds
        assert main([
            "bench", "--nodes", "10", "--seeds", f"0..{top}", "--format", "json",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage error" in err

    def test_nodes_above_loader_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main([
            "bench", "--nodes", str(MAX_NODES + 1), "--txns", "5", "--out", str(path),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"node count must be in 0..{MAX_NODES}" in err
        assert not path.exists()

    def test_needs_network_or_nodes(self, capsys):
        assert main(["bench", "--txns", "5"]) == 2

    def test_workload_file(self, tmp_path, example_file):
        wl = tmp_path / "w.txt"
        wl.write_text("txn 0 4 15\ntxn 0 4 21\n")
        path = tmp_path / "out.csv"
        assert main([
            "bench", "--network", example_file, "--workload", str(wl),
            "--out", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[6] == "1"  # 15 units deliver fully
        assert lines[2].split(",")[6] == "0"  # 21 exceeds the 20-unit cut

    @pytest.mark.parametrize("row", ["txn 7 2 5", "txn 2 7 5"])
    def test_workload_node_out_of_range_is_parse_error(self, tmp_path, example_file, capsys, row):
        # rejected when the file is loaded, before any row is routed
        wl = tmp_path / "w.txt"
        wl.write_text(f"txn 0 4 15\n{row}\n")
        assert main(["bench", "--network", example_file, "--workload", str(wl)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "parse error: line 2: node 7 out of range 0..4" in err

    def test_workload_zero_value_is_parse_error(self, tmp_path, example_file, capsys):
        # used to route row 1 and then die on row 2 without writing --out
        wl = tmp_path / "w.txt"
        wl.write_text("txn 0 4 15\ntxn 0 4 0\n")
        path = tmp_path / "out.csv"
        assert main([
            "bench", "--network", example_file, "--workload", str(wl), "--out", str(path),
        ]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "parse error: line 2: value must be > 0, got 0" in err
        assert not path.exists()

    def test_zero_val_min_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main([
            "bench", "--nodes", "10", "--txns", "20", "--val-min", "0", "--val-max", "3",
            "--seed", "1", "--out", str(path),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage error: bad value range (0, 3)" in err
        assert not path.exists()


class TestVersion:
    def test_version_printed(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "hushrelay 0.1.0\n"
