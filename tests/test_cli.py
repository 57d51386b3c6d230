"""Command-line interface: exit codes, outputs, determinism."""

import json
from pathlib import Path

import hasim.cli
from hasim.cli import main
from test_engine import WAITING_SCENARIO

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

VALID_CONFIG = {
    "hosts": [{"host_id": "alfa01", "cpu_count": 4, "ram_mb": 8192},
              {"host_id": "alfa02", "cpu_count": 4, "ram_mb": 8192},
              {"host_id": "alfa03", "cpu_count": 4, "ram_mb": 8192},
              {"host_id": "alfa04", "cpu_count": 4, "ram_mb": 8192}],
    "vms": [{"vm_id": "gridce", "mac": "52:54:00:00:00:01",
             "bound_host": "alfa01", "boot_profile": "default"}],
    "profiles": {"default": {}},
}


def write_config(tmp_path, doc=None):
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc if doc is not None else VALID_CONFIG))
    return path


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", str(write_config(tmp_path))]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_dangling_ref_exit_1(tmp_path, capsys):
    doc = json.loads(json.dumps(VALID_CONFIG))
    doc["vms"][0]["bound_host"] = "ghost"
    assert main(["validate", str(write_config(tmp_path, doc))]) == 1
    out = capsys.readouterr().out
    assert "ghost" in out


def test_validate_malformed_parameter_prints_one_line(tmp_path, capsys):
    path = write_config(tmp_path, {"timing": {"boot_jitter_s": "x"}})
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "timing.boot_jitter_s: expected an integer\n"


def test_validate_rejects_a_load_beyond_milli_units(tmp_path, capsys):
    doc = json.loads(json.dumps(VALID_CONFIG))
    doc["vms"][0]["load_contribution"] = 1e308
    doc["hosts"][1]["load_threshold"] = 1e308
    assert main(["validate", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().out == (
        "hosts[1].load_threshold: expected a number below 1e305\n"
        "vms[0].load_contribution: expected a number below 1e305\n")


def test_validate_unreadable_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_run_ends_when_nothing_can_change(tmp_path, capsys, monkeypatch):
    # The VM of a failed host waits for capacity from the scan at 180 s on.
    # Untraced, the run ends there, not at the horizon 10**12 s away.
    scans = []

    class CountedSimulation(hasim.cli.Simulation):
        def _on_scan(self):
            scans.append(self.now)
            assert len(scans) < 100, "the run goes on with nothing left to change"
            super()._on_scan()

    path = tmp_path / "waiting.json"
    path.write_text(json.dumps({**WAITING_SCENARIO, "horizon_s": 10**12}))
    monkeypatch.setattr(hasim.cli, "Simulation", CountedSimulation)
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == "1 episode(s) not recovered within the horizon\n"
    assert scans[-1] == 240


def test_traced_run_ends_when_nothing_can_change(tmp_path, capsys, monkeypatch):
    # Traced, the same run ends at the same scan: that scan writes the
    # `scan` lines of every grid instant it jumps over, up to the horizon.
    scans = []

    class CountedSimulation(hasim.cli.Simulation):
        def _on_scan(self):
            scans.append(self.now)
            assert len(scans) < 100, "the run goes on with nothing left to change"
            super()._on_scan()

    path = tmp_path / "waiting.json"
    path.write_text(json.dumps({**WAITING_SCENARIO, "horizon_s": 10**6}))
    monkeypatch.setattr(hasim.cli, "Simulation", CountedSimulation)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.endswith(
        "1 episode(s) not recovered within the horizon\n")
    assert scans[-1] == 240
    trace = (tmp_path / "out" / "trace.txt").read_text().splitlines()
    scan_lines = [line for line in trace if line.endswith(" scan")]
    assert len(scan_lines) == 16_667
    assert scan_lines == [f"{at} scan" for at in range(0, 10**6 + 1, 60)]


def test_run_bounds_the_scan_lines_of_its_trace(tmp_path, capsys, monkeypatch):
    # Two replications of 16 667 scans each, at the bound and one above it.
    path = tmp_path / "waiting.json"
    path.write_text(json.dumps({**WAITING_SCENARIO, "horizon_s": 10**6,
                                "replications": 2}))
    monkeypatch.setattr(hasim.cli, "MAX_TRACE_SCANS", 2 * 16_667)
    assert main(["run", str(path), "--out", str(tmp_path / "at")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(hasim.cli, "MAX_TRACE_SCANS", 2 * 16_667 - 1)
    _fails_with_one_line(capsys, ["run", str(path), "--out", str(tmp_path / "above")],
                         "hasim run: the trace would hold 33334 scan lines, more "
                         "than 33333; shorten horizon_s")
    assert not (tmp_path / "above").exists()


def test_run_scenario_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", str(SCENARIOS / "power_glitch.json"),
               "--out", str(out_dir), "--emit-monitor-log"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("kind,count,mean_s,stddev_s,min_s,max_s")
    for name in ("trace.txt", "episodes.csv", "report.csv", "summary.txt",
                 "monitor_log.xml", "histogram_power_glitch.csv"):
        assert (out_dir / name).exists(), name
    summary = (out_dir / "summary.txt").read_text()
    assert "gridce" in summary and "alfa04" in summary


def test_run_invalid_scenario_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cluster": VALID_CONFIG, "horizon_s": 100,
                               "injections": [{"at": 10, "kind": "nope"}]}))
    assert main(["run", str(bad)]) == 1
    assert "kind" in capsys.readouterr().out


def test_run_missing_scenario_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "none.json")]) == 2


def test_run_same_seed_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = main(["run", str(SCENARIOS / "power_glitch.json"),
                   "--out", str(d), "--emit-monitor-log", "--seed", "7"])
        assert rc == 0
    for name in ("trace.txt", "episodes.csv", "report.csv", "summary.txt",
                 "monitor_log.xml", "histogram_power_glitch.csv"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_run_seed_override_changes_outputs(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, seed in zip(dirs, ["7", "8"]):
        main(["run", str(SCENARIOS / "power_glitch.json"), "--out", str(d),
              "--seed", seed])
    assert (dirs[0] / "trace.txt").read_bytes() != (dirs[1] / "trace.txt").read_bytes()


def test_replicate_small_run(tmp_path, capsys):
    rc = main(["replicate", "nondestructive", "--n", "5", "--seed", "42",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "kind,count,mean_s,stddev_s,min_s,max_s"
    assert lines[1].startswith("non_destructive_crash,5,")
    episodes = (tmp_path / "out" / "episodes.csv").read_text()
    assert episodes.count("\n") == 6  # header + 5 rows


def test_replicate_single_episode(capsys):
    assert main(["replicate", "destructive", "--n", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[1].startswith("destructive_crash,1,")


def test_report_resummarizes_run_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["replicate", "nondestructive", "--n", "5", "--seed", "42",
          "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(["report", str(out_dir), "--bin-width", "5"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("kind,count,mean_s")
    hist = (out_dir / "histogram_non_destructive_crash.csv").read_text()
    starts = [int(line.split(",")[0]) for line in hist.strip().split("\n")[1:]]
    assert all(s % 5 == 0 for s in starts)


def test_report_rejects_a_bad_row_and_writes_nothing(tmp_path, capsys):
    # Once a kind with a comma wrote histogram_a,b.csv and a 7-field report
    # row, a kind with a slash failed after other histograms were written,
    # and a recovery before the failure gave a negative mean.
    header = "vm_id,kind,failure_at,detected_at,recovered_at,recovery_s,recovered_on"
    good = "v,non_destructive_crash,0,70,180,180,h"
    for row, problem in [('w,"a,b",10,80,190,180,h', "kind 'a,b' is no injection kind"),
                         ("w,x/y,10,80,190,180,h", "kind 'x/y' is no injection kind"),
                         ("w,power_glitch,10,80,5,-5,h",
                          "detected_at or recovered_at before failure_at")]:
        episodes = tmp_path / "episodes.csv"
        episodes.write_text(f"{header}\n{good}\n{row}\n")
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{episodes}: row 2: {problem}\n"
        assert captured.err == ""
        assert [p.name for p in tmp_path.iterdir()] == ["episodes.csv"]


def test_report_missing_dir_exit_2(tmp_path):
    assert main(["report", str(tmp_path / "nowhere")]) == 2


def test_report_with_an_unwritable_histogram_prints_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["replicate", "nondestructive", "--n", "5", "--out", str(out_dir)])
    capsys.readouterr()
    blocked = out_dir / "histogram_non_destructive_crash.csv"
    blocked.unlink()
    blocked.mkdir()
    assert main(["report", str(out_dir)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"cannot write {out_dir}: ")
    assert captured.out == ""


def _fails_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_replicate_rejects_zero_episodes(capsys):
    _fails_with_one_line(capsys, ["replicate", "destructive", "--n", "0"],
                         "hasim replicate: n must be >= 1")


def test_replicate_rejects_negative_seed(capsys):
    _fails_with_one_line(capsys, ["replicate", "nondestructive", "--seed", "-1"],
                         "hasim replicate: seed must be >= 0")


def test_run_rejects_negative_seed_override(capsys):
    _fails_with_one_line(capsys, ["run", str(SCENARIOS / "power_glitch.json"),
                                  "--seed", "-1"],
                         "hasim run: seed must be >= 0")


def test_run_rejects_monitor_log_without_out(capsys):
    _fails_with_one_line(capsys, ["run", str(SCENARIOS / "power_glitch.json"),
                                  "--emit-monitor-log"],
                         "hasim run: --emit-monitor-log needs --out")


def test_run_without_out_prints_the_same_report(tmp_path, capsys):
    # Without --out no trace is collected; stdout is the same report.csv.
    assert main(["run", str(SCENARIOS / "power_glitch.json")]) == 0
    alone = capsys.readouterr().out
    assert main(["run", str(SCENARIOS / "power_glitch.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == alone
    assert alone == (tmp_path / "out" / "report.csv").read_text()


def test_run_rejects_negative_scenario_seed(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"cluster": VALID_CONFIG, "horizon_s": 100,
                                "seed": -5}))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().out == "seed: must be >= 0\n"


NOT_UTF8 = b'{"hosts": "\xe9"}'


def test_undecodable_input_is_one_problem(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(NOT_UTF8)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("parse error: 'utf-8' codec can't decode byte 0xe9")
        assert captured.out.count("\n") == 1 and captured.err == ""


def test_too_deep_input_is_one_problem(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("parse error: maximum recursion depth exceeded")
        assert captured.out.count("\n") == 1 and captured.err == ""


def test_too_long_integer_is_one_problem(tmp_path, capsys):
    # Also in a cluster file a scenario names by path.
    (tmp_path / "cluster.json").write_text('{"hosts": [], "vms": ' + "9" * 5000 + "}")
    (tmp_path / "scenario.json").write_text(
        json.dumps({"cluster": "cluster.json", "horizon_s": 100}))
    for command, name, where in (("validate", "cluster.json", ""),
                                 ("run", "scenario.json", "cluster: ")):
        assert main([command, str(tmp_path / name)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"{where}parse error: Exceeds the limit (4300 digits)")
        assert captured.out.count("\n") == 1 and captured.err == ""


def test_report_of_an_overlong_field_is_one_problem(tmp_path, capsys):
    header = "vm_id,kind,failure_at,detected_at,recovered_at,recovery_s,recovered_on"
    good = "v,non_destructive_crash,0,70,180,180,h"
    long = "v" * 140_000
    episodes = tmp_path / "episodes.csv"
    for text, row in ((f"{header}\n{good}\n{long},power_glitch,0,,,,\n", 2),
                      (f"{long}{header}\n{good}\n", 0)):
        episodes.write_text(text)
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == \
            f"{episodes}: row {row}: field larger than field limit (131072)\n"
        assert captured.err == ""


def test_report_of_undecodable_episodes_is_one_problem(tmp_path, capsys):
    (tmp_path / "episodes.csv").write_bytes(NOT_UTF8)
    assert main(["report", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{tmp_path / 'episodes.csv'}: 'utf-8' codec can't decode")
    assert out.count("\n") == 1


def test_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    for argv, where in (
            (["replicate", "destructive", "--n", "1", "--out", str(blocker)], blocker),
            (["run", str(SCENARIOS / "power_glitch.json"), "--out", str(blocker / "x")],
             blocker / "x")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"cannot write {where}: ")
        assert captured.out == ""


def test_unwritable_out_is_refused_before_the_first_simulation(tmp_path, capsys,
                                                               monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(hasim.cli, "Simulation", no_simulation)
    monkeypatch.setattr(hasim.cli, "replicate_experiment", no_simulation)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["run", str(SCENARIOS / "power_glitch.json"), "--out", str(blocker)]) == 2
    assert main(["replicate", "destructive", "--out", str(blocker / "x")]) == 2
    assert capsys.readouterr().out == ""
    # Bad arguments are still reported first, with exit 1.
    _fails_with_one_line(capsys, ["replicate", "destructive", "--n", "0", "--out",
                                  str(blocker)], "hasim replicate: n must be >= 1")


def test_report_rejects_bin_width_below_one(tmp_path, capsys):
    for width in ("0", "-5"):
        _fails_with_one_line(capsys, ["report", str(tmp_path), "--bin-width", width],
                             "hasim report: --bin-width must be >= 1")


# One host, no VM, nothing to do for 10**12 s.
IDLE_SCENARIO = {
    "cluster": {"hosts": [{"host_id": "h0", "cpu_count": 1, "ram_mb": 1}]},
    "horizon_s": 10**12}


def test_run_with_nothing_to_do_ends_at_its_first_scan(tmp_path, monkeypatch):
    sims = []

    class RecordingSimulation(hasim.cli.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(hasim.cli, "Simulation", RecordingSimulation)
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(IDLE_SCENARIO))
    assert main(["run", str(path)]) == 0
    assert len(sims) == 1
    assert sims[0].now < sims[0].params.scan_period_s


def test_run_refuses_a_trace_it_cannot_hold(tmp_path, capsys, monkeypatch):
    # Traced to the horizon, the idle run would hold 16 666 666 667 scan lines.
    sims = []
    monkeypatch.setattr(hasim.cli, "Simulation",
                        lambda *args, **kwargs: sims.append(args))
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(IDLE_SCENARIO))
    _fails_with_one_line(capsys, ["run", str(path), "--out", str(tmp_path / "out")],
                         "hasim run: the trace would hold 16666666667 scan lines, "
                         "more than 1000000; shorten horizon_s")
    assert sims == []
    assert not (tmp_path / "out").exists()
