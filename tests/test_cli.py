import io

import pytest

from polaris.cli import main
from polaris.verify import CheckReport


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_build_records():
    code, out, err = run_cli(["build", "--preset", "Q4_2"])
    assert code == 0 and err == ""
    assert "record: space" in out
    assert "points: 15" in out and "lines: 15" in out
    assert "embedding-tag: universal" in out


def test_build_verbose_prints_conway():
    code, out, _ = run_cli(["build", "--preset", "H3_4", "--verbose"])
    assert code == 0
    assert "conway: x^2 + x + 1" in out


def test_points_and_lines_listings():
    code, out, _ = run_cli(["points", "--preset", "Qp3_2"])
    assert code == 0
    assert out.count("point: ") == 9
    code, out, _ = run_cli(["lines", "--preset", "Qp3_2"])
    assert code == 0
    assert out.count("line: ") == 6


def test_closure_of_collinear_pair():
    # pick a collinear pair from the first line listing
    code, out, _ = run_cli(["lines", "--preset", "W3_2"])
    first_line = next(l for l in out.splitlines() if l.startswith("line: "))
    ids = first_line.split(": ")[1].split(",")[1:]
    code, out, _ = run_cli(["closure", "--preset", "W3_2",
                            "--points", ",".join(ids[:2])])
    assert code == 0
    assert "size: 3" in out
    assert f"points: {','.join(ids)}" in out


def test_perp_command():
    code, out, _ = run_cli(["perp", "--preset", "W3_2", "--points", "0"])
    assert code == 0
    assert "size: 7" in out


def test_frame_commands():
    code, out, _ = run_cli(["frame", "find", "--preset", "W3_2", "--k", "2"])
    assert code == 0
    assert "a: 0,3" in out and "b: 1,7" in out and "span-size: 9" in out
    code, out, _ = run_cli(["frame", "check", "--preset", "W3_2",
                            "--a", "0,3", "--b", "1,7"])
    assert code == 0
    code, out, err = run_cli(["frame", "check", "--preset", "W3_2",
                              "--a", "0", "--b", "1"])
    assert code == 2 and "rank 1 < 2" in err
    # extend a found rank-2 frame of Q6_2 to rank 3
    code, out, _ = run_cli(["frame", "find", "--preset", "Q6_2", "--k", "2"])
    assert code == 0
    fields = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
    code, out, _ = run_cli(["frame", "extend", "--preset", "Q6_2",
                            "--a", fields["a"], "--b", fields["b"]])
    assert code == 0 and "rank: 3" in out


def test_check_theorem1_exhaustive_exit0():
    code, out, _ = run_cli(["check", "theorem1", "--preset", "Q4_2",
                            "--samples", "0"])
    assert code == 0
    assert "failed: 0" in out and "mode: exhaustive" in out


def test_check_theorem1_quotient_guard_exit2():
    code, out, err = run_cli(["check", "theorem1", "--preset", "W3_2"])
    assert code == 2
    assert "proper quotient" in err and "hull" in err


def test_quotient_of_non_quadratic_space_exits_2():
    code, out, err = run_cli(["quotient", "--preset", "W3_2"])
    assert code == 2 and out == ""
    assert "quotients are taken from the universal quadratic embedding" in err


def test_exit_code_1_on_failing_report(monkeypatch):
    # the shipped checks hold on every catalog space, so force a failing
    # report through the real command path to pin the exit-code mapping
    def fake_check(space, emb, plan):
        report = CheckReport("theorem1", "X", "random", plan.seed, plan.samples)
        report.sampled = report.applicable = report.failed = 1
        report.witnesses.append({"kind": "forced", "points": (0,), "witness": 1})
        return report

    import polaris.cli as cli_mod
    monkeypatch.setattr(cli_mod, "check_theorem1", fake_check)
    code, out, _ = run_cli(["check", "theorem1", "--preset", "Q4_2"])
    assert code == 1
    assert "status: fail" in out and "witness:" in out


def test_usage_errors_exit2():
    code, _, err = run_cli(["closure", "--preset", "W3_2", "--points", "zap"])
    assert code == 2 and "comma-separated" in err
    code, _, err = run_cli(["build", "--preset", "NOPE"])
    assert code == 2 and "unknown preset" in err
    code, _, err = run_cli(["build"])
    assert code == 2 and "--preset" in err
    code, _, _ = run_cli(["definitely-not-a-command"])
    assert code == 2


def test_spec_file_input(tmp_path):
    from polaris.catalog import preset_text
    f = tmp_path / "w32.spec"
    f.write_text(preset_text("W3_2"))
    code, out, _ = run_cli(["build", "--spec", str(f)])
    assert code == 0 and "points: 15" in out
    bad = tmp_path / "bad.spec"
    bad.write_text("field p=2 k=1\n")
    code, _, err = run_cli(["build", "--spec", str(bad)])
    assert code == 2 and "missing form block" in err
    code, _, err = run_cli(["build", "--spec", str(tmp_path / "missing.spec")])
    assert code == 2


def test_degenerate_spec_exits_2(tmp_path):
    f = tmp_path / "degenerate.spec"
    f.write_text("field p=2 k=1\n"
                 "form kind=quadratic dim=3\n"
                 "row 0 1 0\n"
                 "row 0 0 0\n"
                 "row 0 0 0\n")
    code, _, err = run_cli(["build", "--spec", str(f)])
    assert code == 2 and "degenerate" in err


def test_preset_alias():
    code, out, _ = run_cli(["build", "--preset", "W3_3"])
    assert code == 0 and "space: Sp4_3" in out


def test_quotient_and_hull_commands():
    code, out, _ = run_cli(["quotient", "--preset", "Q4_2"])
    assert code == 0
    assert "quotient-points: 15" in out and "bijective: true" in out
    code, out, _ = run_cli(["hull", "--preset", "W3_2"])
    assert code == 0
    assert "quadric-points: 15" in out and "universal-dim: 5" in out
    code, _, err = run_cli(["hull", "--preset", "Sp4_3"])
    assert code == 2 and "already universal" in err


def test_mingen_command():
    code, out, _ = run_cli(["mingen", "--preset", "Q4_2", "--points", "all"])
    assert code == 0
    assert "size: 5" in out and "regenerates: true" in out


def test_search_and_explore_exit0():
    code, out, _ = run_cli(["search", "rank1-nonarising", "--preset", "Q4_2",
                            "--samples", "20"])
    assert code == 0 and "status: experimental" in out
    code, out, _ = run_cli(["explore", "problem5", "--preset", "W3_2",
                            "--samples", "0"])
    assert code == 0
    assert "info-ovoid-hyperplanes: 6" in out


COMMANDS = [
    ["build", "--preset", "Q4_2"],
    ["points", "--preset", "W3_2"],
    ["lines", "--preset", "Qp3_2"],
    ["closure", "--preset", "W3_2", "--points", "0,2"],
    ["perp", "--preset", "W3_2", "--points", "0,1"],
    ["frame", "find", "--preset", "Q4_2", "--k", "2"],
    ["check", "theorem1", "--preset", "Q4_2", "--samples", "0"],
    ["check", "theorem1", "--preset", "Q4_3", "--samples", "40", "--seed", "11"],
    ["check", "corollary2", "--preset", "W3_2", "--samples", "0"],
    ["check", "corollary3", "--preset", "Q6_2", "--samples", "10"],
    ["check", "prop5", "--preset", "H3_4", "--samples", "50"],
    ["search", "rank1-nonarising", "--preset", "Q4_2", "--samples", "10"],
    ["explore", "problem5", "--preset", "W3_2", "--samples", "0"],
    ["quotient", "--preset", "Q4_2"],
    ["hull", "--preset", "W3_2"],
    ["mingen", "--preset", "Q4_2", "--points", "all"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_record_stream_determinism(argv):
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "duration" not in out1  # records mode carries no timing


def test_record_stream_determinism_across_processes():
    import subprocess
    import sys
    argv = [sys.executable, "-m", "polaris.cli", "check", "theorem1",
            "--preset", "Q4_2", "--samples", "25", "--seed", "3"]
    runs = [subprocess.run(argv, capture_output=True, text=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_text_format_adds_timing_only():
    base = ["check", "theorem1", "--preset", "Q4_2", "--samples", "0"]
    _, records, _ = run_cli(base)
    _, text, _ = run_cli(base + ["--format", "text"])
    stripped = "\n".join(l for l in text.splitlines()
                         if not l.startswith("duration"))
    assert stripped.strip() == records.strip()
