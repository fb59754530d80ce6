import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaris.catalog import (
    ALIASES,
    PRESETS,
    build_preset,
    point_cap,
    preset_text,
    resolve_preset,
)
from polaris.cli import main
from polaris.errors import GeometryError, SpecError, UsageError
from polaris.field import CONWAY
from polaris.specfile import (
    FORM_KINDS,
    SpaceSpec,
    build_form,
    build_space_from_spec,
    format_spec,
    parse_spec,
)


def test_w32_spec_round_trip():
    text = preset_text("W3_2")
    spec = parse_spec(text)
    assert (spec.p, spec.k, spec.kind, spec.dim) == (2, 1, "alternating", 4)
    assert parse_spec(format_spec(spec)) == spec
    assert format_spec(spec) == text  # preset texts are canonical


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_all_presets_round_trip_and_build(name):
    text = preset_text(name)
    spec = parse_spec(text)
    assert parse_spec(format_spec(spec)) == spec
    assert format_spec(spec) == text
    sp = build_preset(name)
    sp2 = build_space_from_spec(spec, cap=point_cap(), label=name)
    assert sp.points == sp2.points
    assert sp.lines == sp2.lines


# the first 16 hex digits of each preset text's sha256, measured on the
# hand-typed texts the generated ones replace
PRESET_TEXT_SHA256 = {
    "W3_2": "fe5c4e61377803b4",
    "Sp4_3": "daca4dfc81ef05dc",
    "Q4_2": "ba29f8c0ea40e44a",
    "Q4_3": "9d9e4a83656910f8",
    "Qm5_2": "9c8a80e364c5f823",
    "Qp5_2": "9c145dc8ff96bf14",
    "H3_4": "ab0d649d5fc8f636",
    "H4_4": "b1265060146b8c1a",
    "Q6_2": "d5969a1bedfa1a1b",
    "W5_2": "74d21eaff7d12d90",
    "Qp3_2": "b857f6713d13746b",
    "Qp3_4": "961af8e19f908b45",
}


def test_generated_preset_texts_are_pinned():
    # the round trip above holds by construction; this pins the conventions
    # of each family's standard form (W's -1, Qm's nu, ...)
    got = {name: hashlib.sha256(preset_text(name).encode()).hexdigest()[:16]
           for name in PRESETS}
    assert got == PRESET_TEXT_SHA256


FIELDS = sorted(set(CONWAY) | {(p, 1) for p in (2, 3, 5, 7, 11, 13)})


@st.composite
def space_specs(draw):
    p, k = draw(st.sampled_from(FIELDS))
    q = p**k
    kind = draw(st.sampled_from([kd for kd in FORM_KINDS if kd != "hermitian" or k % 2 == 0]))
    dim = draw(st.integers(1, 8))
    code = st.integers(0, q - 1)
    rows = tuple(
        tuple(draw(code) if kind != "quadratic" or c >= r else 0 for c in range(dim))
        for r in range(dim))
    return SpaceSpec(p, k, kind, dim, rows)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spec=space_specs())
def test_spec_round_trip_property(spec):
    assert parse_spec(format_spec(spec)) == spec


def own_pair(spec):
    """The (sigma, epsilon) codes a form of the spec's kind takes, from the
    kind alone: sigma is t -> t^sqrt(q) for hermitian and the identity
    otherwise; epsilon is -1, code p - 1, for alternating and 1 otherwise."""
    return (spec.k // 2 if spec.kind == "hermitian" else 0,
            spec.p - 1 if spec.kind == "alternating" else 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spec=space_specs(), data=st.data())
def test_spelled_out_pair_must_be_the_kinds_own(spec, data):
    field_line, form_line, *rows = format_spec(spec).splitlines(keepends=True)

    def with_keys(keys):
        return "".join([field_line, form_line.rstrip("\n") + keys + "\n", *rows])

    sigma, epsilon = own_pair(spec)
    assert parse_spec(with_keys(f" sigma={sigma} epsilon={epsilon}")) == spec
    choices = [("epsilon", epsilon, spec.p**spec.k)]
    if spec.k > 1:
        choices.append(("sigma", sigma, spec.k))
    key, own, size = data.draw(st.sampled_from(choices))
    other = data.draw(st.integers(0, size - 1).filter(lambda v: v != own))
    with pytest.raises(SpecError, match=f"{key}={other} .* fixes {key}={own}") as exc:
        parse_spec(with_keys(f" {key}={other}"))
    assert exc.value.line == 2


def test_w32_spec_builds_15_points():
    sp = build_space_from_spec(parse_spec(preset_text("W3_2")))
    assert len(sp.points) == 15


def test_hermitian_spec_defaults_sigma():
    form = build_form(parse_spec(preset_text("H3_4")))
    assert form.kind == "hermitian"
    assert (form.sigma, form.epsilon) == (1, 1)


def test_parse_errors():
    with pytest.raises(SpecError, match="missing field block"):
        parse_spec("")
    with pytest.raises(SpecError, match="missing form block"):
        parse_spec("field p=2 k=1\n")
    with pytest.raises(SpecError, match="unknown kind"):
        parse_spec("field p=2 k=1\nform kind=weird dim=2\nrow 0 1\nrow 1 0\n")
    with pytest.raises(SpecError, match="expected 2 row lines"):
        parse_spec("field p=2 k=1\nform kind=symmetric dim=2\nrow 1 0\n")
    with pytest.raises(SpecError, match="out of range for GF"):
        parse_spec("field p=2 k=1\nform kind=symmetric dim=2\nrow 1 0\nrow 0 7\n")
    with pytest.raises(SpecError, match="not prime"):
        parse_spec("field p=6 k=1\nform kind=symmetric dim=2\nrow 1 0\nrow 0 1\n")


def test_parse_error_names_subdiagonal_entry():
    bad = ("field p=2 k=1\n"
           "form kind=quadratic dim=3\n"
           "row 1 0 0\n"
           "row 0 1 0\n"
           "row 0 1 1\n")
    with pytest.raises(SpecError, match=r"row 2 col 1.*below the diagonal"):
        parse_spec(bad)


def test_parse_error_carries_line_number():
    bad = "field p=2 k=1\nform kind=symmetric dim=2\nrow 1 0\nrow 0 x\n"
    with pytest.raises(SpecError) as exc:
        parse_spec(bad)
    assert exc.value.line == 4


def test_hermitian_spec_over_odd_degree_carries_line_number():
    bad = "field p=3 k=1\nform kind=hermitian dim=1\nrow 1\n"
    with pytest.raises(SpecError, match="GF.3. admits no hermitian involution") as exc:
        parse_spec(bad)
    assert exc.value.line == 2


def test_comments_and_blanks_ignored():
    text = "# a space\n\n" + preset_text("Qp3_2") + "\n# trailing\n"
    assert parse_spec(text) == parse_spec(preset_text("Qp3_2"))


def test_duplicate_blocks_rejected():
    text = preset_text("W3_2") + "field p=2 k=1\n"
    with pytest.raises(SpecError, match="duplicate field"):
        parse_spec(text)


def test_aliases():
    assert resolve_preset("W3_3") == "Sp4_3"
    assert ALIASES["W3_3"] == "Sp4_3"
    with pytest.raises(UsageError, match="unknown preset"):
        resolve_preset("nope")
    # names are looked up, not parsed: a well-formed family name is refused
    with pytest.raises(UsageError) as exc:
        resolve_preset("W7_2")
    assert str(exc.value) == (
        "unknown preset 'W7_2'; known presets: H3_4, H4_4, Q4_2, Q4_3, Q6_2, Qm5_2, "
        "Qp3_2, Qp3_4, Qp5_2, Sp4_3, W3_2, W5_2, W3_3")


def test_point_cap_env(monkeypatch):
    monkeypatch.setenv("POLARIS_POINT_CAP", "123")
    assert point_cap() == 123
    for raw in ("junk", "-5", "0"):
        monkeypatch.setenv("POLARIS_POINT_CAP", raw)
        with pytest.raises(UsageError, match=re.escape(
                f"POLARIS_POINT_CAP must be a positive integer, got '{raw}'")):
            point_cap()
    monkeypatch.delenv("POLARIS_POINT_CAP")
    assert point_cap() == 1000


def test_cli_refuses_a_non_positive_point_cap(monkeypatch):
    monkeypatch.setenv("POLARIS_POINT_CAP", "-5")
    out, err = io.StringIO(), io.StringIO()
    assert main(["build", "--preset", "W3_2"], out=out, err=err) == 2
    assert "POLARIS_POINT_CAP must be a positive integer, got '-5'" in err.getvalue()
    assert out.getvalue() == ""


def test_build_preset_honours_a_changed_point_cap(monkeypatch):
    monkeypatch.delenv("POLARIS_POINT_CAP", raising=False)
    assert len(build_preset("H4_4").points) == 165
    monkeypatch.setenv("POLARIS_POINT_CAP", "50")
    with pytest.raises(GeometryError, match="cap"):
        build_preset("H4_4")


def test_build_is_deterministic_across_rebuilds():
    spec = parse_spec(preset_text("Qm5_2"))
    a = build_space_from_spec(spec)
    b = build_space_from_spec(spec)
    assert a.points == b.points and a.lines == b.lines and a.adj == b.adj


def _polaris(argv, shell_tail=""):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = " ".join(shlex.quote(a) for a in [sys.executable, "-m", "polaris", *argv])
    return subprocess.run(["bash", "-c", cmd + shell_tail], capture_output=True,
                          text=True, env=env, timeout=60)


def test_output_piped_into_a_reader_that_leaves_early():
    argv = ["check", "prop5", "--preset", "H3_4", "--samples", "5"]
    # head -3 keeps three lines; `true` leaves before a byte is written
    proc = _polaris(argv, ' | head -3; exit "${PIPESTATUS[0]}"')
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["record: check-report", "check: prop5", "space: H3_4"]
    proc = _polaris(argv, ' | true; exit "${PIPESTATUS[0]}"')
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "")
    proc = _polaris(["points", "--preset", "H4_4"], ' | head -1; exit "${PIPESTATUS[0]}"')
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "record: points\n")
