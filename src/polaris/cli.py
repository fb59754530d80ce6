"""Command-line front end.

Each leaf subcommand names its handler with `set_defaults(handler=...)`.
`run` loads the space once, calls the handler and writes what it
returns: one record, or one `verify.CheckReport`.

Exit codes: 0 success, 1 a report counted failures, 2 usage or parse
errors (including violated command preconditions).  Only the theorem
checks count failures; search and explore reports are experimental and
file what they find as exhibits.  All output in `--format records` mode
is deterministic given identical flags and seed; `--format text` adds a
`duration-ms` line to check, search and explore reports.  A reader that
closes standard output early ends the run quietly, with the exit code
the command would have had.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import catalog
from .embed import (
    hull_of_symplectic_char2,
    minimal_generating_subset,
    natural_embedding,
    quotient_embedding,
    universal_embedding,
)
from .errors import PolarisError, UsageError
from .polar import (
    PointSet,
    check_partial_frame,
    closure,
    extend_frame,
    find_partial_frame,
    frame_span,
    perp,
    rank_nd,
    rank_of,
)
from .records import RecordWriter
from .specfile import build_space_from_spec, parse_spec
from .verify import (
    CheckReport,
    SamplePlan,
    check_corollary2,
    check_corollary3,
    check_prop5,
    check_theorem1,
    explore_problem5,
    search_nonarising_rank1,
)


def _leaf(sub, name, handler, samples=False, **kw):
    """A leaf subcommand: the space flags, the output format and the
    handler that `run` calls."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(handler=handler)
    p.add_argument("--spec", help="path of a space-spec file")
    p.add_argument("--preset", help="name of a built-in space")
    p.add_argument("--format", choices=("records", "text"), default="records")
    if samples:
        p.add_argument("--seed", type=int, default=0,
                       help="sampling seed: any integer; distinct values give "
                            "distinct sample streams")
        p.add_argument("--samples", type=int, default=None,
                       help="sample count; 0 forces exhaustive mode")
    return p


def _parse_ids(raw, space, flag):
    """The indices of a comma list, ascending with repeats kept, or
    every point for `all`."""
    if raw == "all":
        return list(range(len(space.points)))
    try:
        return sorted(int(tok) for tok in raw.split(",") if tok != "")
    except ValueError:
        raise UsageError(f"{flag} wants comma-separated point indices, got {raw!r}")


def _parse_points(raw, space):
    return PointSet.of(space, _parse_ids(raw, space, "--points"))


def _load_space(args):
    if args.preset and args.spec:
        raise UsageError("give either --preset or --spec, not both")
    if args.preset:
        return catalog.build_preset(args.preset)
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read spec file: {exc}")
        spec = parse_spec(text)
        return build_space_from_spec(spec, cap=catalog.point_cap(), label=args.spec)
    raise UsageError("a space is required: --preset NAME or --spec FILE")


def _plan(args) -> SamplePlan:
    if args.samples is None:
        return SamplePlan(seed=args.seed)
    if args.samples == 0:
        return SamplePlan(seed=args.seed, samples=0, mode="exhaustive")
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    return SamplePlan(seed=args.seed, samples=args.samples, mode="random")


def _space_fields(space):
    return [
        ("kind", space.kind),
        ("field", space.q),
        ("ambient-dim", space.dim),
        ("points", len(space.points)),
        ("lines", len(space.lines)),
        ("rank", space.n),
        ("grid", space.is_grid),
        ("embedding-tag", natural_embedding(space).tag),
    ]


# handlers: (args, space) -> a CheckReport, or (record type, fields), which
# `run` writes after the space label that opens every record

def _build(args, space):
    fields = _space_fields(space)
    if args.verbose:
        fields += [("conway", space.field.conway_str()),
                   ("conway-coeffs", space.field.conway)]
    return "space", fields


def _points(args, space):
    return "points", _space_fields(space) + [
        ("point", (i,) + tuple(v)) for i, v in enumerate(space.points)]


def _lines(args, space):
    return "lines", _space_fields(space) + [
        ("line", (i,) + pts) for i, pts in enumerate(space.lines)]


def _closure(args, space):
    X = _parse_points(args.points, space)
    c = closure(space, X)
    r = rank_nd(space, c)
    return "closure", [
        ("input", X.indices()),
        ("points", c.indices()),
        ("size", len(c)),
        ("is-singular", r == 0),
        ("rank", rank_of(space, c)),
        ("rank-nd", r),
    ]


def _perp(args, space):
    X = _parse_points(args.points, space)
    pp = perp(space, X)
    return "perp", [
        ("input", X.indices()),
        ("points", pp.indices()),
        ("size", len(pp)),
    ]


def _given_frame(args, space):
    return check_partial_frame(space, _parse_ids(args.a, space, "--a"),
                               _parse_ids(args.b, space, "--b"))


def _extended_frame(args, space):
    return extend_frame(space, _given_frame(args, space))


def _found_frame(args, space):
    return find_partial_frame(space, closure(space, _parse_points(args.points, space)),
                              args.k)


def _frame(make):
    """The handler that reports the frame `make(args, space)` returns."""
    def handler(args, space):
        fr = make(args, space)
        return "frame", [
            ("action", args.action),
            ("rank", fr.rank),
            ("a", fr.a),
            ("b", fr.b),
            ("span-size", len(frame_span(space, fr))),
            ("span-rank", fr.rank),
        ]
    return handler


def _sampled(check):
    """The handler of a check that takes the space and the sample plan."""
    return lambda args, space: check(space, _plan(args))


def _theorem1(space, plan):
    return check_theorem1(space, universal_embedding(space), plan)


def _search(args, space):
    if args.max_set_size < 2:
        raise UsageError("--max-set-size must be >= 2")
    return search_nonarising_rank1(space, _plan(args), args.max_set_size)


def _quotient(args, space):
    res = quotient_embedding(space)
    return "quotient", [
        ("kernel-dim", len(res.kernel)),
        ("quotient-ambient-dim", res.embedding.dim),
        ("quotient-points", len(res.quotient_space.points)),
        ("quotient-lines", len(res.quotient_space.lines)),
        ("bijective", sorted(res.point_map) == list(range(len(space.points)))),
        ("point-map", res.point_map),
    ]


def _hull(args, space):
    res = hull_of_symplectic_char2(space)
    return "hull", [
        ("quadric-points", len(res.quad_space.points)),
        ("quadric-ambient-dim", res.quad_space.dim),
        ("universal-dim", universal_embedding(space).dim),
        ("to-quad", res.to_quad),
    ]


def _mingen(args, space):
    X = _parse_points(args.points, space)
    Y = minimal_generating_subset(space, X)
    target = closure(space, X)
    return "mingen", [
        ("input", X.indices()),
        ("minimal", Y.indices()),
        ("size", len(Y)),
        ("closure-size", len(target)),
        ("regenerates", closure(space, Y).bits == target.bits),
    ]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polaris",
        description="construct finite classical polar spaces and verify their "
                    "subspace-embedding properties")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "build", _build, help="build a space and report its shape")
    p.add_argument("--verbose", action="store_true",
                   help="also print the Conway polynomial of the field")
    _leaf(sub, "points", _points, help="list the canonical points")
    _leaf(sub, "lines", _lines, help="list the lines as point-index tuples")
    p = _leaf(sub, "closure", _closure, help="subspace generated by --points")
    p.add_argument("--points", required=True)
    p = _leaf(sub, "perp", _perp, help="common collinearity set of --points")
    p.add_argument("--points", required=True)

    fsub = sub.add_parser("frame", help="frame operations").add_subparsers(
        dest="action", required=True)
    for action, make in (("check", _given_frame), ("extend", _extended_frame)):
        p = _leaf(fsub, action, _frame(make))
        p.add_argument("--a", required=True, help="comma indices of A")
        p.add_argument("--b", required=True, help="comma indices of B")
    p = _leaf(fsub, "find", _frame(_found_frame))
    p.add_argument("--points", default="all",
                   help="generators of the subspace to search (default all)")
    p.add_argument("--k", type=int, required=True, help="frame rank")

    csub = sub.add_parser("check", help="run a verification check").add_subparsers(
        dest="what", required=True)
    _leaf(csub, "theorem1", _sampled(_theorem1), samples=True)
    _leaf(csub, "corollary2", _sampled(check_corollary2), samples=True)
    # exhaustive over the dual space: nothing to seed or count
    _leaf(csub, "corollary3", lambda args, space: check_corollary3(space, SamplePlan()))
    _leaf(csub, "prop5", _sampled(check_prop5), samples=True)

    ssub = sub.add_parser("search", help="experimental searches").add_subparsers(
        dest="what", required=True)
    p = _leaf(ssub, "rank1-nonarising", _search, samples=True)
    p.add_argument("--max-set-size", type=int, default=4)

    esub = sub.add_parser("explore", help="experimental open-problem surveys") \
        .add_subparsers(dest="what", required=True)
    _leaf(esub, "problem5", _sampled(explore_problem5), samples=True)

    _leaf(sub, "quotient", _quotient,
          help="project the universal quadratic embedding from rad(f_Q)")
    _leaf(sub, "hull", _hull,
          help="rebuild the quadric above a characteristic-2 symplectic space")
    p = _leaf(sub, "mingen", _mingen, help="minimal generating subset of --points")
    p.add_argument("--points", required=True)
    return ap


def run(args, out) -> int:
    space = _load_space(args)
    result = args.handler(args, space)
    w = RecordWriter(out, args.format)
    if isinstance(result, CheckReport):
        w.emit_report(result)
        return 1 if result.failed else 0
    rtype, fields = result
    w.emit(rtype, [("space", space.label)] + fields)
    return 0


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return run(args, out)
    except PolarisError as exc:
        print(f"polaris: error: {exc}", file=err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
