"""Line-oriented space-spec text: parsing, canonical printing, building.

Grammar (blank lines and '#' comments are ignored):

    field p=<prime> k=<int>
    form kind=<alternating|symmetric|hermitian|quadratic> dim=<int>
    row <code> <code> ... <code>     (dim rows of dim codes each)

Codes are the integer element codes of the field module.  For
sesquilinear kinds the rows are the gram matrix; for quadratic they are
the upper-triangular coefficient matrix, and any nonzero entry below
the diagonal is a parse error naming the entry.  The kind fixes the
admissible pair (`forms.kind_pair`): a form line may spell it out as
sigma=<int> epsilon=<code>, and any other value is a parse error that
names the key, as is a key given twice on one line.  The format is
plain text on purpose: golden files diff cleanly and round-trip
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormError, SpecError
from .field import field_make
from .forms import KINDS, kind_pair, quadratic_form, sesquilinear_form
from .polar import build_polar_space

FORM_KINDS = KINDS + ("quadratic",)


@dataclass(frozen=True)
class SpaceSpec:
    p: int
    k: int
    kind: str
    dim: int
    rows: tuple


def _parse_kv(tokens, allowed, line):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecError(f"expected key=value, got {tok!r}", line)
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise SpecError(f"unknown key {key!r}", line)
        if key in out:
            raise SpecError(f"repeated key {key!r}", line)
        if key == "kind":
            out[key] = val
        else:
            try:
                out[key] = int(val)
            except ValueError:
                raise SpecError(f"{key} must be an integer, got {val!r}", line)
    return out


def parse_spec(text: str) -> SpaceSpec:
    field_line = form_line = None
    field_kv = form_kv = None
    rows = []
    row_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        head, rest = tokens[0], tokens[1:]
        if head == "field":
            if field_kv is not None:
                raise SpecError("duplicate field block", ln)
            field_kv = _parse_kv(rest, {"p", "k"}, ln)
            field_line = ln
        elif head == "form":
            if form_kv is not None:
                raise SpecError("duplicate form block", ln)
            form_kv = _parse_kv(rest, {"kind", "dim", "sigma", "epsilon"}, ln)
            form_line = ln
        elif head == "row":
            rows.append(rest)
            row_lines.append(ln)
        else:
            raise SpecError(f"unknown directive {head!r}", ln)

    if field_kv is None:
        raise SpecError("missing field block")
    if "p" not in field_kv or "k" not in field_kv:
        raise SpecError("field block needs both p= and k=", field_line)
    try:
        F = field_make(field_kv["p"], field_kv["k"])
    except Exception as exc:
        raise SpecError(str(exc), field_line)

    if form_kv is None:
        raise SpecError("missing form block")
    kind = form_kv.get("kind")
    if kind not in FORM_KINDS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {FORM_KINDS}", form_line)
    dim = form_kv.get("dim")
    if not isinstance(dim, int) or not 1 <= dim <= 8:
        raise SpecError(f"dim must be in [1, 8], got {dim!r}", form_line)
    try:
        pair = kind_pair(F, kind)
    except FormError as exc:
        raise SpecError(str(exc), form_line)
    for key, need in zip(("sigma", "epsilon"), pair):
        if form_kv.get(key, need) != need:
            raise SpecError(f"{key}={form_kv[key]} does not fit kind={kind} over "
                            f"GF({F.q}), which fixes {key}={need}", form_line)

    if len(rows) != dim:
        raise SpecError(f"expected {dim} row lines, found {len(rows)}",
                        row_lines[-1] if rows else form_line)
    matrix = []
    for ridx, (toks, ln) in enumerate(zip(rows, row_lines)):
        if len(toks) != dim:
            raise SpecError(f"row {ridx} has {len(toks)} entries, expected {dim}", ln)
        vals = []
        for cidx, tok in enumerate(toks):
            try:
                v = int(tok)
            except ValueError:
                raise SpecError(f"row {ridx} col {cidx}: bad element code {tok!r}", ln)
            if not 0 <= v < F.q:
                raise SpecError(
                    f"row {ridx} col {cidx}: code {v} out of range for GF({F.q})", ln)
            if kind == "quadratic" and cidx < ridx and v != 0:
                raise SpecError(
                    f"row {ridx} col {cidx}: nonzero entry below the diagonal "
                    "of a quadratic coefficient matrix", ln)
            vals.append(v)
        matrix.append(tuple(vals))
    return SpaceSpec(F.p, F.k, kind, dim, tuple(matrix))


def format_spec(spec: SpaceSpec) -> str:
    """Canonical printer; parse(format_spec(s)) == s."""
    lines = [f"field p={spec.p} k={spec.k}", f"form kind={spec.kind} dim={spec.dim}"]
    for row in spec.rows:
        lines.append("row " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def build_form(spec: SpaceSpec):
    F = field_make(spec.p, spec.k)
    if spec.kind == "quadratic":
        return quadratic_form(F, spec.rows)
    return sesquilinear_form(F, spec.rows, spec.kind)


def build_space_from_spec(spec: SpaceSpec, cap: int | None = None, label: str | None = None):
    return build_polar_space(build_form(spec), cap=cap, label=label)
