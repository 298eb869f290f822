from __future__ import annotations

from ailtl.cli import main


def test_scenario_then_run_exits_clean(tmp_path, capsys):
    assert main(["scenario", "queue", "--size", "30", "--seed", "7", "--out", str(tmp_path)]) == 0
    report = tmp_path / "report.txt"
    code = main(
        [
            "run",
            "--program",
            str(tmp_path / "queue.ailtl"),
            "--trace",
            str(tmp_path / "queue.trace"),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    assert "summary violations=0" in report.read_text()


def test_injected_duplicate_exits_with_one(tmp_path):
    main(
        [
            "scenario",
            "queue",
            "--size",
            "30",
            "--seed",
            "7",
            "--inject-duplicate",
            "--out",
            str(tmp_path),
        ]
    )
    code = main(
        ["run", "--program", str(tmp_path / "queue.ailtl"), "--trace", str(tmp_path / "queue.trace")]
    )
    assert code == 1


def test_injected_queue_too_large_exits_two(tmp_path, capsys):
    args = ["scenario", "queue", "--size", "301", "--inject-duplicate", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_check_accepts_valid_program(tmp_path, capsys):
    path = tmp_path / "ok.ailtl"
    path.write_text("facts:\nquantity(r, 7).\n", encoding="utf-8")
    assert main(["check", "--program", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_rejects_inverted_interval(tmp_path, capsys):
    path = tmp_path / "bad.ailtl"
    path.write_text("expr:\nALWAYS(5,3) p.\n", encoding="utf-8")
    assert main(["check", "--program", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path):
    assert main(["check", "--program", str(tmp_path / "missing.ailtl")]) == 2


def test_usage_error_exits_two(capsys):
    assert main(["run"]) == 2
    capsys.readouterr()


def test_run_with_metrics_appends_csv(tmp_path, capsys):
    main(["scenario", "supply", "--out", str(tmp_path)])
    code = main(
        [
            "run",
            "--program",
            str(tmp_path / "supply.ailtl"),
            "--trace",
            str(tmp_path / "supply.trace"),
            "--metrics",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1  # the supply scenario violates once by design
    assert "f,m,if_eval,max_eval,if_viol_or_broken,total" in out


def test_bench_emits_a_metrics_table(capsys):
    assert main(["bench", "--exprs", "2,4", "--ticks", "5", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "f,m,if_eval,max_eval,if_viol_or_broken,total"
    assert len(lines) == 3
    assert lines[1].startswith("2,") and lines[2].startswith("4,")


def test_ethics_scenario_round_trips_through_cli(tmp_path):
    main(["scenario", "ethics", "--context", "reality", "--role", "citizen", "--out", str(tmp_path)])
    code = main(
        ["run", "--program", str(tmp_path / "ethics.ailtl"), "--trace", str(tmp_path / "ethics.trace")]
    )
    assert code == 0
