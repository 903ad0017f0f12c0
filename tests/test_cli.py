import json
import os
import types

import pytest

from lwerng import cli
from lwerng.cli import bench_rates, main
from lwerng.sampling import EntropyInput
from lwerng.stats import TestReport, run_battery
from lwerng.stream import Generator

SEED = "00" * 32
SEED2 = "11" * 32


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_to_file_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    assert main(["generate", "--seed-hex", SEED, "--bytes", "64", "--out", str(p1)]) == 0
    assert main(["generate", "--seed-hex", SEED, "--bytes", "64", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_bytes()) == 64


def test_generate_matches_library(tmp_path):
    path = tmp_path / "c.bin"
    main(["generate", "--seed-hex", SEED, "--bytes", "128", "--out", str(path)])
    assert path.read_bytes() == Generator(EntropyInput(bytes(32))).next_bytes(128)


def test_generate_bad_hex_exits_1(capsys):
    code, _, err = run(["generate", "--seed-hex", "XYZ", "--bytes", "8"], capsys)
    assert code == 1
    assert "error" in err and "usage" in err


def test_generate_short_hex_exits_1(capsys):
    code, _, err = run(["generate", "--seed-hex", "aabb", "--bytes", "8"], capsys)
    assert code == 1


def test_generate_stdout_non_tty(capsysbinary):
    # pytest capture is not a tty, so raw stdout is allowed
    code = main(["generate", "--seed-hex", SEED, "--bytes", "16"])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == Generator(EntropyInput(bytes(32))).next_bytes(16)


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_command_exits_1(capsys):
    assert main([]) == 1


def test_seed_file(tmp_path, capsys):
    seed_path = tmp_path / "seed.bin"
    seed_path.write_bytes(bytes(32))
    out_path = tmp_path / "out.bin"
    assert main(["generate", "--seed-file", str(seed_path), "--bytes", "32",
                 "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == Generator(EntropyInput(bytes(32))).next_bytes(32)


def test_seed_file_env_var(tmp_path, capsys, monkeypatch):
    seed_path = tmp_path / "seed.bin"
    seed_path.write_bytes(bytes(32))
    monkeypatch.setenv("LWERNG_SEED_FILE", str(seed_path))
    out_path = tmp_path / "out.bin"
    assert main(["generate", "--bytes", "16", "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == Generator(EntropyInput(bytes(32))).next_bytes(16)


def test_seed_file_missing_exits_1(tmp_path, capsys):
    code, _, err = run(["generate", "--seed-file", str(tmp_path / "nope"),
                        "--bytes", "8"], capsys)
    assert code == 1


def test_seed_hex_wins_over_stale_env_seed_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LWERNG_SEED_FILE", str(tmp_path / "nope"))
    out_path = tmp_path / "out.bin"
    assert main(["generate", "--seed-hex", SEED, "--bytes", "16",
                 "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == Generator(EntropyInput(bytes(32))).next_bytes(16)


def test_stats_command(capsys):
    code, out, _ = run(["stats", "--seed-hex", SEED, "--bits", "1000000"], capsys)
    assert code == 0
    assert out.count("\n") == 6
    assert "monobit" in out and "serial_corr_64" in out


def test_stats_reseed_interval(capsys):
    # past 2^20 bits the default interval has reseeded and interval 0 has not
    bits = 1_100_000
    code, out, _ = run(["stats", "--seed-hex", SEED, "--bits", str(bits),
                        "--reseed-interval", "0"], capsys)
    ent = EntropyInput(bytes(32))
    expected = [rep.line() for rep in run_battery(Generator(ent, reseed_interval=0), bits)]
    assert code == 0
    assert out.splitlines() == expected
    assert expected != [rep.line() for rep in run_battery(Generator(ent), bits)]


def test_stats_json(capsys):
    code, out, _ = run(["stats", "--seed-hex", SEED, "--bits", "1000000", "--json"], capsys)
    expected = run_battery(Generator(EntropyInput(bytes(32))), 1_000_000)
    assert code == 0
    assert json.loads(out) == [
        {"test_name": r.test_name, "statistic": r.statistic, "p_value": r.p_value,
         "verdict": r.verdict} for r in expected]


def failing_battery(source, nbits):
    # all-zero input: runs fails its frequency precondition with an inf statistic
    return [TestReport.from_p("monobit", 1000.0, 0.0),
            TestReport.from_p("runs", float("inf"), 0.0),
            TestReport.from_p("serial_2bit", 1.0, 0.5)]


def test_stats_failed_test_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("lwerng.cli.run_battery", failing_battery)
    code, out, _ = run(["stats", "--seed-hex", SEED, "--bits", "1000000"], capsys)
    assert code == 2
    assert out.count("FAIL") == 2 and "PASS" in out


def test_stats_exit_code_follows_the_verdict(monkeypatch, capsys):
    # the exit code reads each report's verdict, not its p-value
    monkeypatch.setattr("lwerng.cli.run_battery",
                        lambda source, nbits: [TestReport("x", 0.0, 0.5, "fail")])
    code, out, _ = run(["stats", "--seed-hex", SEED, "--bits", "1000000"], capsys)
    assert code == 2 and "FAIL" in out
    monkeypatch.setattr("lwerng.cli.run_battery",
                        lambda source, nbits: [TestReport("x", 0.0, 0.0, "pass")])
    code, _, _ = run(["stats", "--seed-hex", SEED, "--bits", "1000000"], capsys)
    assert code == 0


def test_stats_json_writes_inf_statistic_as_null(monkeypatch, capsys):
    monkeypatch.setattr("lwerng.cli.run_battery", failing_battery)
    code, out, _ = run(["stats", "--seed-hex", SEED, "--bits", "1000000", "--json"], capsys)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    reports = json.loads(out, parse_constant=reject)
    assert code == 2
    assert [r["statistic"] for r in reports] == [1000.0, None, 1.0]
    assert [r["verdict"] for r in reports] == ["fail", "fail", "pass"]


def test_dieharder_dump(tmp_path, capsys):
    path = tmp_path / "dump.bin"
    code, _, err = run(["dieharder-dump", "--seed-hex", SEED, "--bytes", "1024",
                        "--out", str(path)], capsys)
    assert code == 0
    assert path.stat().st_size == 1024
    assert "dieharder -a -g 201" in err
    # dump is the exact generator stream
    assert path.read_bytes() == Generator(EntropyInput(bytes(32))).next_bytes(1024)


def test_scatter_csv(tmp_path, capsys):
    path = tmp_path / "sc.csv"
    code, _, _ = run(["scatter", "--seed-hex", SEED, "--count", "100",
                      "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "position,index"
    assert len(lines) == 101


def test_scatter_count_defaults_to_a_million(tmp_path, monkeypatch):
    counts = []
    monkeypatch.setattr(cli, "scatter_indexes", lambda gen, count: counts.append(count) or [])
    monkeypatch.setattr(cli, "write_scatter_csv", lambda indexes, out: None)
    assert main(["scatter", "--seed-hex", SEED, "--out", str(tmp_path / "sc.csv")]) == 0
    assert counts == [1_000_000]


def test_distinguish_command(capsys):
    code, out, _ = run(["distinguish", "--trials", "1000",
                        "--mode", "uniform_vs_uniform"], capsys)
    assert code == 0
    assert "coef_chi2" in out and "advantage=" in out


def test_distinguish_json_agrees_with_text(capsys):
    argv = ["distinguish", "--trials", "1000", "--mode", "uniform_vs_uniform", "--seed", "5"]
    code, text, _ = run(argv, capsys)
    json_code, out, _ = run(argv + ["--json"], capsys)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=reject)
    assert code == json_code == 0
    assert (report["mode"], report["trials"], report["seed"]) == ("uniform_vs_uniform", 1000, 5)
    lines = text.splitlines()
    assert lines[0] == "mode=uniform_vs_uniform trials=1000"
    for res, line in zip(report["results"], lines[1:], strict=True):
        fields = dict(token.split("=") for token in line.split()[1:])
        assert line.split()[0] == res["name"]
        assert isinstance(res["hits_a"], int) and isinstance(res["hits_b"], int)
        assert res["hit_rate_a"] == res["hits_a"] / 1000
        assert res["hit_rate_b"] == res["hits_b"] / 1000
        assert fields["hit_rate_a"] == f"{res['hit_rate_a']:.4f}"
        assert fields["hit_rate_b"] == f"{res['hit_rate_b']:.4f}"
        assert "hits_a" not in fields and "hits_b" not in fields
        assert fields["advantage"] == f"{res['advantage']:.6f}"
        assert fields["ci3s"] == f"±{3 * res['sigma']:.6f}"


def test_distinguish_rejects_positive_control_mode(capsys):
    code, out, err = run(["distinguish", "--trials", "1000",
                          "--mode", "positive_control"], capsys)
    assert code == 1
    assert "invalid choice" in err
    assert out == ""


def test_qkd_demo(capsys):
    code, out, _ = run(["qkd-demo", "--photons", "20000",
                        "--alice-seed-hex", SEED, "--bob-seed-hex", SEED2], capsys)
    assert code == 0
    assert "qber=0.000000" in out


def test_qkd_demo_intercept(capsys):
    code, out, _ = run([
        "qkd-demo", "--photons", "200000", "--adversary", "intercept",
        "--alice-seed-hex", SEED, "--bob-seed-hex", SEED2,
        "--eve-seed-hex", "22" * 32,
    ], capsys)
    assert code == 0
    qber = float(out.splitlines()[0].split("qber=")[1])
    assert abs(qber - 0.25) < 0.01


def test_qkd_demo_eve_with_bobs_seed_exits_2(capsys):
    # Eve seeded as Bob would draw Bob's bases and disturb no sifted photon
    code, out, err = run([
        "qkd-demo", "--photons", "1000", "--adversary", "intercept",
        "--alice-seed-hex", SEED, "--bob-seed-hex", SEED2, "--eve-seed-hex", SEED2,
    ], capsys)
    assert code == 2
    assert "error" in err and out == ""


@pytest.mark.parametrize("adversary", ["none", "intercept"])
def test_qkd_demo_json_agrees_with_text(adversary, capsys):
    argv = ["qkd-demo", "--photons", "20000", "--adversary", adversary,
            "--alice-seed-hex", SEED, "--bob-seed-hex", SEED2, "--eve-seed-hex", "22" * 32]
    code, text, _ = run(argv, capsys)
    json_code, out, _ = run(argv + ["--json"], capsys)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(out, parse_constant=reject)
    assert code == json_code == 0
    assert list(summary) == ["photons", "adversary", "sifted", "sift_fraction", "qber"]
    fields = dict(token.split("=") for token in text.splitlines()[0].split())
    assert list(fields) == list(summary)
    assert isinstance(summary["photons"], int) and isinstance(summary["sifted"], int)
    assert fields["photons"] == str(summary["photons"]) == "20000"
    assert fields["adversary"] == summary["adversary"] == (
        "intercept_resend" if adversary == "intercept" else "none")
    assert fields["sifted"] == str(summary["sifted"])
    assert summary["sift_fraction"] == summary["sifted"] / 20000
    assert fields["sift_fraction"] == f"{summary['sift_fraction']:.6f}"
    assert fields["qber"] == f"{summary['qber']:.6f}"
    assert (summary["qber"] == 0.0) == (adversary == "none")


@pytest.mark.parametrize("bad", ["zz" * 32, "aabb"], ids=["not_hex", "short"])
@pytest.mark.parametrize("party", ["alice", "bob", "eve"])
def test_qkd_demo_bad_party_hex_exits_1(party, bad, capsys):
    # Eve's seed is checked even without --adversary intercept
    hexes = {"alice": SEED, "bob": SEED2, "eve": "22" * 32, party: bad}
    argv = ["qkd-demo", "--photons", "1000"]
    for name, value in hexes.items():
        argv += [f"--{name}-seed-hex", value]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "usage" in err
    assert out == ""


def test_generate_tty_guard(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    assert main(["generate", "--seed-hex", SEED, "--bytes", "8"]) == 1
    capsys.readouterr()


def test_generate_tty_force(monkeypatch, capsysbinary):
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    assert main(["generate", "--seed-hex", SEED, "--bytes", "8", "--force"]) == 0
    assert len(capsysbinary.readouterr().out) == 8


def test_dump_io_error_exits_2(capsys):
    code, _, err = run(["dieharder-dump", "--seed-hex", SEED, "--bytes", "8",
                        "--out", "/nonexistent-dir/x.bin"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--seed-hex", SEED, "--bytes", "-5", "--out", "{out}"],
    ["generate", "--seed-hex", SEED, "--reseed-interval", "-1", "--out", "{out}"],
    ["dieharder-dump", "--seed-hex", SEED, "--bytes", "-5", "--out", "{out}"],
    ["scatter", "--seed-hex", SEED, "--count", "0", "--out", "{out}"],
    ["stats", "--seed-hex", SEED, "--bits", "10"],
    ["distinguish", "--trials", "10"],
    ["qkd-demo", "--photons", "0", "--alice-seed-hex", SEED, "--bob-seed-hex", SEED2],
    ["bench", "--seed-hex", SEED, "--runs", "0"],
    ["bench", "--seed-hex", SEED, "--bytes", "0"],
    ["stats", "--seed-hex", SEED, "--reseed-interval", "-1"],
    ["dieharder-dump", "--seed-hex", SEED, "--reseed-interval", "-1", "--out", "{out}"],
    ["scatter", "--seed-hex", SEED, "--reseed-interval", "-1", "--out", "{out}"],
    ["distinguish", "--seed", "-1"],
    ["bench", "--seed-hex", SEED, "--reseed-interval", "-1"],
])
def test_bad_count_exits_1(argv, tmp_path, capsys):
    out = tmp_path / "out.bin"
    code, stdout, err = run([str(out) if a == "{out}" else a for a in argv], capsys)
    assert code == 1
    assert "must be >=" in err
    assert stdout == ""
    assert not out.exists()


def test_bench_command(capsys):
    code, out, _ = run(["bench", "--seed-hex", SEED, "--bytes", "200000",
                        "--runs", "2"], capsys)
    assert code == 0
    assert "median:" in out and "Mbit/s" in out


def test_bench_json(capsys):
    code, out, _ = run(["bench", "--seed-hex", SEED, "--bytes", "100000", "--runs", "3",
                        "--reseed-interval", "4096", "--json"], capsys)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=reject)
    assert code == 0
    assert set(report) == {"rates_mbit_s", "median_mbit_s", "nbytes", "reseed_interval"}
    assert len(report["rates_mbit_s"]) == 3 and all(r > 0 for r in report["rates_mbit_s"])
    assert report["median_mbit_s"] == sorted(report["rates_mbit_s"])[1]
    assert report["nbytes"] == 100000 and report["reseed_interval"] == 4096


def test_bench_rates_function():
    rates = bench_rates(EntropyInput(bytes(32)), 100_000, 2)
    assert len(rates) == 2 and all(r > 0 for r in rates)


def test_bench_rates_formula(monkeypatch):
    # a stubbed clock gives each run an exact binary duration: 125000 bits in
    # 1/16 s and in 1/8 s are 2 and 1 decimal Mbit/s
    ticks = iter([1.0, 1.0625, 2.0, 2.125])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert bench_rates(EntropyInput(bytes(32)), 15_625, 2) == [2.0, 1.0]
