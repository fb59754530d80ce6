import io
import os

import pytest

from polaris.cli import build_parser, main
from polaris.records import RecordWriter
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


@pytest.mark.parametrize("a,b,why", [
    ("0,0", "1,7", "distinct points"),      # used to shrink to |A| = 1
    ("0,3,3", "1,7", "|A| = 3 != |B| = 2"),  # used to pass as A = 0,3
    ("-15,3", "1,7", "point index -15 out of range"),
], ids=["repeat", "repeat-accepted", "range"])
def test_frame_indices_reach_the_check_as_typed(a, b, why):
    for action in ("check", "extend"):
        code, out, err = run_cli(["frame", action, "--preset", "W3_2",
                                  f"--a={a}", f"--b={b}"])
        assert code == 2 and out == "" and why in err


def test_check_theorem1_exhaustive_exit0():
    code, out, _ = run_cli(["check", "theorem1", "--preset", "Q4_2",
                            "--samples", "0"])
    assert code == 0
    assert "failed: 0" in out and "mode: exhaustive" in out


def test_check_theorem1_char2_symplectic_runs_on_the_hull_embedding():
    # the natural embedding of W(2n-1,2) is a proper quotient; the check
    # judges against the universal one, x -> (sqrt(Q0(x)), x)
    code, out, err = run_cli(["check", "theorem1", "--preset", "W3_2",
                              "--samples", "0"])
    assert code == 0 and err == ""
    assert "mode: exhaustive" in out
    assert "sampled: 278\napplicable: 10\npassed: 10\nfailed: 0\n" in out


def test_char2_symmetric_spec_with_zero_diagonal_is_alternating(tmp_path):
    # in characteristic 2 the pair (id, 1) is (id, -1), so the W5_2 gram
    # written as kind=symmetric is the symplectic space W(5,2)
    from polaris.catalog import preset_text
    f = tmp_path / "w52sym.spec"
    f.write_text(preset_text("W5_2").replace("kind=alternating", "kind=symmetric"))
    code, out, _ = run_cli(["build", "--spec", str(f)])
    assert code == 0
    assert "kind: alternating" in out and "embedding-tag: quotient" in out
    code, out, err = run_cli(["check", "theorem1", "--spec", str(f), "--samples", "100"])
    assert code == 0 and err == "" and "failed: 0" in out and "status: pass" in out
    code, out, _ = run_cli(["check", "corollary3", "--spec", str(f)])
    assert code == 0 and "sampled: 127" in out and "failed: 0" in out
    code, out, _ = run_cli(["hull", "--spec", str(f)])
    assert code == 0 and "quadric-points: 63" in out and "universal-dim: 7" in out


GRID_REFUSAL = "no designated universal embedding for this space (grid case)"


@pytest.mark.parametrize("preset,why", [
    ("W3_2", "this space's universal embedding has vector dimension 5"),
    ("Qp3_2", GRID_REFUSAL),
])
def test_prop5_refusals_name_the_universal_embedding(preset, why):
    code, out, err = run_cli(["check", "prop5", "--preset", preset])
    assert code == 2 and out == "" and why in err


@pytest.mark.parametrize("argv", [
    ["check", "theorem1"],
    ["search", "rank1-nonarising"],
], ids=["theorem1", "search"])
def test_grid_refusal_has_prop5s_wording(argv):
    code, out, err = run_cli(argv + ["--preset", "Qp3_2"])
    assert code == 2 and out == "" and GRID_REFUSAL in err


def test_mingen_runs_on_a_grid():
    # a minimal generating subset is a closure walk; it needs no embedding
    code, out, err = run_cli(["mingen", "--preset", "Qp3_2", "--points", "all"])
    assert code == 0 and err == ""
    assert "minimal: 0,1,2,5\nsize: 4\nclosure-size: 9\nregenerates: true\n" in out


def test_quotient_of_non_quadratic_space_exits_2():
    code, out, err = run_cli(["quotient", "--preset", "W3_2"])
    assert code == 2 and out == ""
    assert "quotients are taken from the universal quadratic embedding" in err


@pytest.mark.parametrize("preset", ["Q4_3", "Qm5_2", "Qp5_2", "Qp3_2"])
def test_quotient_of_non_degenerate_bilinearization_exits_2(preset):
    code, out, err = run_cli(["quotient", "--preset", preset])
    assert code == 2 and out == ""
    assert "rad(f_Q) = 0" in err and "no quotient" in err


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


class GoneReader(io.StringIO):
    """An output stream whose reader has gone: every write is a broken pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failed,status", [(0, 0), (1, 1)])
def test_gone_reader_keeps_the_exit_status(monkeypatch, failed, status):
    def fake_check(space, emb, plan):
        report = CheckReport("theorem1", "X", "random", plan.seed, plan.samples)
        report.sampled = report.applicable = 1
        report.failed = failed
        report.passed = 1 - failed
        return report

    import polaris.cli as cli_mod
    monkeypatch.setattr(cli_mod, "check_theorem1", fake_check)
    err = io.StringIO()
    code = main(["check", "theorem1", "--preset", "Q4_2"], out=GoneReader(), err=err)
    assert code == status and err.getvalue() == ""
    code = main(["points", "--preset", "Q4_2"], out=GoneReader(), err=err)
    assert code == 0 and err.getvalue() == ""


def test_a_closed_pipe_drops_the_record_and_points_the_fd_at_devnull():
    # a stream with a file descriptor, unlike the one above: after the
    # first broken pipe, later records and the final flush go nowhere
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as out:
        writer = RecordWriter(out)
        writer.emit("point", [("index", 0)])
        assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        writer.emit("point", [("index", 1)])


def test_usage_errors_exit2():
    code, _, err = run_cli(["closure", "--preset", "W3_2", "--points", "zap"])
    assert code == 2 and "comma-separated" in err
    code, _, err = run_cli(["build", "--preset", "NOPE"])
    assert code == 2 and "unknown preset" in err
    code, _, err = run_cli(["build"])
    assert code == 2 and "--preset" in err
    code, _, _ = run_cli(["definitely-not-a-command"])
    assert code == 2


SP43 = ("field p=3 k=1\nform kind=alternating dim=4\n"
        "row 0 1 0 0\nrow 2 0 0 0\nrow 0 0 0 1\nrow 0 0 2 0\n")


def _spec(old, new):
    text = SP43.replace(old, new, 1)
    assert text != SP43
    return text


# (argv, spec text written to the file that SPEC names, the whole error
# message): one bad input per exit-2 message of the command line, the
# spec parser and the frame commands
EXIT_2 = {
    "preset-and-spec": (["build", "--preset", "W3_2", "--spec", "SPEC"], SP43,
                        "give either --preset or --spec, not both"),
    "negative-samples": (["check", "theorem1", "--preset", "Q4_2", "--samples", "-1"], None,
                         "--samples must be >= 0"),
    "no-equals": (None, _spec("k=1", "k1"), "line 1: expected key=value, got 'k1'"),
    "unknown-key": (None, _spec("k=1", "k=1 r=2"), "line 1: unknown key 'r'"),
    "not-integer": (None, _spec("k=1", "k=one"), "line 1: k must be an integer, got 'one'"),
    "duplicate-form": (None, _spec("row 0 1", "form kind=alternating dim=4\nrow 0 1"),
                       "line 3: duplicate form block"),
    "unknown-directive": (None, _spec("row 0 0 0 1", "col 0 0 0 1"),
                          "line 5: unknown directive 'col'"),
    "field-without-k": (None, _spec("p=3 k=1", "p=3"), "line 1: field block needs both p= and k="),
    "field-without-p": (None, _spec("p=3 k=1", "k=1"), "line 1: field block needs both p= and k="),
    "k-zero": (None, _spec("k=1", "k=0"), "line 1: k = 0 is not a positive integer"),
    "dim-zero": (None, _spec("dim=4", "dim=0"), "line 2: dim must be in [1, 8], got 0"),
    "dim-nine": (None, _spec("dim=4", "dim=9"), "line 2: dim must be in [1, 8], got 9"),
    "short-row": (None, _spec("row 2 0 0 0", "row 2 0 0"), "line 4: row 1 has 3 entries, expected 4"),
    "degenerate-sesquilinear": (None, _spec("row 0 0 0 1\nrow 0 0 2 0", "row 0 0 0 0\nrow 0 0 0 0"),
                                "degenerate sesquilinear form (rad(f) != 0)"),
    # (81^8 - 1)/80 projective points, refused before any sweep
    "ambient-too-large": (None, "field p=3 k=4\nform kind=hermitian dim=8\n" + "".join(
        "row " + " ".join("1" if i == j else "0" for j in range(8)) + "\n" for i in range(8)),
        "ambient projective space too large to enumerate"),
    "frame-rank-1": (["frame", "find", "--preset", "W3_2", "--k", "1"], None, "rank 1 < 2"),
    "frame-rank-above-space": (["frame", "find", "--preset", "W3_2", "--k", "3"], None,
                               "subspace rank 2 < requested 3"),
}


@pytest.mark.parametrize("case", sorted(EXIT_2))
def test_each_bad_input_exits_2_with_its_message(case, tmp_path):
    argv, text, message = EXIT_2[case]
    f = tmp_path / "case.spec"
    if text is not None:
        f.write_text(text)
    argv = [str(f) if a == "SPEC" else a for a in argv or ["build", "--spec", "SPEC"]]
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"polaris: error: {message}\n")


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


def test_huge_field_degree_in_spec_exits_2(tmp_path):
    # 2^(10^8) has some 30 million digits: the cap must refuse it unformed
    f = tmp_path / "huge-field.spec"
    f.write_text("field p=2 k=100000000\nform kind=alternating dim=2\nrow 0 1\nrow 1 0\n")
    code, out, err = run_cli(["build", "--spec", str(f)])
    assert code == 2 and out == ""
    assert "line 1" in err and "exceeds the cap 81" in err


def test_spec_file_encoding(tmp_path):
    from polaris.catalog import preset_text
    text = preset_text("W3_2")
    # a byte-order mark is not part of the first directive
    bom = tmp_path / "bom.spec"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, out, err = run_cli(["build", "--spec", str(bom)])
    assert code == 0 and "points: 15" in out and err == ""
    # bytes that are not UTF-8 are a usage error, not a traceback
    bad = tmp_path / "latin1.spec"
    bad.write_bytes(b"\xff" + text.encode("utf-8"))
    code, out, err = run_cli(["build", "--spec", str(bad)])
    assert code == 2 and out == ""
    assert "cannot read spec file" in err and "0xff" in err


def test_degenerate_spec_exits_2(tmp_path):
    f = tmp_path / "degenerate.spec"
    f.write_text("field p=2 k=1\n"
                 "form kind=quadratic dim=3\n"
                 "row 0 1 0\n"
                 "row 0 0 0\n"
                 "row 0 0 0\n")
    code, _, err = run_cli(["build", "--spec", str(f)])
    assert code == 2 and "degenerate" in err


@pytest.mark.parametrize("text,key", [
    # the GF(4) grid: a quadratic form takes no pair, so only (0, 1) is accepted
    ("field p=2 k=2\nform kind=quadratic dim=4 sigma=1 epsilon=3\n"
     "row 0 1 0 0\nrow 0 0 0 0\nrow 0 0 0 1\nrow 0 0 0 0\n", "sigma=1"),
    ("field p=2 k=2\nform kind=hermitian dim=3 sigma=0\n"
     "row 1 0 0\nrow 0 1 0\nrow 0 0 1\n", "sigma=0"),
    ("field p=3 k=1\nform kind=alternating dim=4 epsilon=1\n"
     "row 0 1 0 0\nrow 2 0 0 0\nrow 0 0 0 1\nrow 0 0 2 0\n", "epsilon=1"),
], ids=["quadratic", "hermitian", "alternating"])
def test_spec_pair_other_than_the_kinds_exits_2(text, key, tmp_path):
    f = tmp_path / "pair.spec"
    f.write_text(text)
    code, out, err = run_cli(["build", "--spec", str(f)])
    assert code == 2 and out == ""
    assert "line 2" in err and key in err


@pytest.mark.parametrize("field_line,form_line,line,key", [
    ("field p=3 k=1 p=2", "form kind=alternating dim=4", "line 1", "'p'"),
    ("field p=3 k=1", "form kind=alternating dim=4 dim=4", "line 2", "'dim'"),
    ("field p=3 k=1", "form kind=alternating kind=symmetric dim=4", "line 2", "'kind'"),
], ids=["field", "form-int", "form-kind"])
def test_repeated_spec_key_exits_2(field_line, form_line, line, key, tmp_path):
    # a repeated key must not quietly override the first: `p=3 ... p=2`
    # used to build over GF(2)
    f = tmp_path / "repeated.spec"
    f.write_text(f"{field_line}\n{form_line}\n"
                 "row 0 1 0 0\nrow 2 0 0 0\nrow 0 0 0 1\nrow 0 0 2 0\n")
    code, out, err = run_cli(["build", "--spec", str(f)])
    assert code == 2 and out == ""
    assert f"{line}: repeated key {key}" in err


@pytest.mark.parametrize("kind", ["symmetric", "hermitian"])
def test_oversized_spec_exits_2_at_once(kind, tmp_path):
    # GF(16)^8 has 286,331,153 projective points: the size guard must
    # refuse it before any sweep over the ambient vectors starts
    import os
    import subprocess
    import sys
    from pathlib import Path
    f = tmp_path / "big.spec"
    rows = "".join("row " + " ".join("1" if i == j else "0" for j in range(8)) + "\n"
                   for i in range(8))
    f.write_text(f"field p=2 k=4\nform kind={kind} dim=8\n{rows}")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "polaris", "build", "--spec", str(f)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "ambient projective space too large to enumerate" in proc.stderr


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
    assert code == 2 and "in characteristic 3 the alternating embedding is already universal" in err
    code, _, err = run_cli(["hull", "--preset", "Q6_2"])
    assert code == 2 and "takes an alternating space, and this space is quadratic" in err
    assert "universal" not in err


def test_mingen_command():
    code, out, _ = run_cli(["mingen", "--preset", "Q4_2", "--points", "all"])
    assert code == 0
    assert "size: 5" in out and "regenerates: true" in out


@pytest.mark.parametrize("argv", [
    ["build", "--preset", "Q4_2", "--seed", "3"],
    ["closure", "--preset", "W3_2", "--points", "0,2", "--seed", "3"],
    ["frame", "find", "--preset", "Q4_2", "--k", "2", "--seed", "3"],
    ["mingen", "--preset", "Q4_2", "--points", "all", "--seed", "3"],
    # corollary3 walks the whole dual space, so it samples nothing either
    ["check", "corollary3", "--preset", "Q6_2", "--seed", "3"],
    ["check", "corollary3", "--preset", "Q6_2", "--samples", "20"],
], ids=["build", "closure", "frame", "mingen", "corollary3-seed", "corollary3-samples"])
def test_seed_is_refused_where_nothing_is_sampled(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_parser_errors_go_to_the_given_streams(capsys):
    code, out, err = run_cli(["check", "theorem1", "--preset", "W3_2", "--samples", "x"])
    assert code == 2 and out == ""
    assert "argument --samples: invalid int value: 'x'" in err
    code, out, err = run_cli(["build", "--help"])
    assert code == 0 and err == "" and "--preset" in out
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [
    ["check", "theorem1", "--preset", "W3_2"],
    ["check", "corollary2", "--preset", "Q4_2", "--samples", "0", "--seed", "5"],
    ["explore", "problem5", "--preset", "W3_2", "--samples", "0"],
], ids=lambda a: a[1])
def test_exhaustive_reports_carry_no_seed(argv):
    code, out, _ = run_cli(argv)
    assert code == 0 and "mode: exhaustive\n" in out
    assert "seed: -\n" in out and "samples-requested: -\n" in out


def test_search_and_explore_exit0():
    code, out, _ = run_cli(["search", "rank1-nonarising", "--preset", "Q4_2",
                            "--samples", "20"])
    assert code == 0 and "status: experimental" in out
    code, out, _ = run_cli(["explore", "problem5", "--preset", "W3_2",
                            "--samples", "0"])
    assert code == 0
    assert "info-ovoid-hyperplanes: 6" in out


def test_opposite_seeds_give_different_records():
    argv = ["check", "theorem1", "--preset", "Q6_2", "--samples", "5"]
    code, plus, _ = run_cli(argv + ["--seed", "3"])
    code_neg, minus, _ = run_cli(argv + ["--seed", "-3"])
    assert code == code_neg == 0
    assert "seed: 3\n" in plus and "seed: -3\n" in minus
    body = [line for line in plus.splitlines() if not line.startswith("seed:")]
    assert body != [line for line in minus.splitlines() if not line.startswith("seed:")]


def test_seed_help_names_what_it_accepts(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "theorem1", "--help"])
    out = capsys.readouterr().out
    assert "any integer" in out and "64-bit" not in out


@pytest.mark.parametrize("size", ["-1", "0", "1"])
def test_search_max_set_size_below_2_exits_2(size):
    code, out, err = run_cli(["search", "rank1-nonarising", "--preset", "Q4_2",
                              "--samples", "5", "--max-set-size", size])
    assert code == 2 and out == ""
    assert "--max-set-size" in err


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
    ["check", "corollary3", "--preset", "Q6_2"],
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
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "polaris.cli", "check", "theorem1",
            "--preset", "Q4_2", "--samples", "25", "--seed", "3"]
    runs = [subprocess.run(argv, capture_output=True, text=True, env=env) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_text_format_adds_timing_only():
    base = ["check", "theorem1", "--preset", "Q4_2", "--samples", "0"]
    _, records, _ = run_cli(base)
    _, text, _ = run_cli(base + ["--format", "text"])
    stripped = "\n".join(l for l in text.splitlines()
                         if not l.startswith("duration"))
    assert stripped.strip() == records.strip()
