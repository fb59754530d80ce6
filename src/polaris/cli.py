"""Command-line front end.

Exit codes: 0 success, 1 a theorem check reported failures, 2 usage or
parse errors (including violated command preconditions).  All output in
`--format records` mode is deterministic given identical flags and
seed; `--format text` adds timing lines.
"""

from __future__ import annotations

import argparse
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
from .forms import radical_of_form
from .polar import (
    PointSet,
    check_partial_frame,
    closure,
    extend_frame,
    find_partial_frame,
    frame_span,
    perp,
)
from .records import RecordWriter
from .specfile import build_space_from_spec, parse_spec
from .verify import (
    SamplePlan,
    check_corollary2,
    check_corollary3,
    check_prop5,
    check_theorem1,
    explore_problem5,
    search_nonarising_rank1,
)


def _add_common(p, samples=False):
    p.add_argument("--spec", help="path of a space-spec file")
    p.add_argument("--preset", help="name of a built-in space")
    p.add_argument("--format", choices=("records", "text"), default="records")
    p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    if samples:
        p.add_argument("--samples", type=int, default=None,
                       help="sample count; 0 forces exhaustive mode")


def _parse_points(raw, space, flag="--points"):
    if raw is None:
        raise UsageError(f"{flag} is required for this command")
    if raw == "all":
        return space.universe()
    try:
        ids = [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"{flag} wants comma-separated point indices, got {raw!r}")
    return PointSet.of(space, ids)


def _load_space(args):
    if getattr(args, "preset", None) and getattr(args, "spec", None):
        raise UsageError("give either --preset or --spec, not both")
    if getattr(args, "preset", None):
        return catalog.build_preset(args.preset)
    if getattr(args, "spec", None):
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read spec file: {exc}")
        spec = parse_spec(text)
        return build_space_from_spec(spec, cap=catalog.point_cap(), label=args.spec)
    raise UsageError("a space is required: --preset NAME or --spec FILE")


def _plan(args) -> SamplePlan:
    samples = getattr(args, "samples", None)
    if samples is None:
        return SamplePlan(seed=args.seed, samples=500, mode="auto")
    if samples == 0:
        return SamplePlan(seed=args.seed, samples=0, mode="exhaustive")
    if samples < 0:
        raise UsageError("--samples must be >= 0")
    return SamplePlan(seed=args.seed, samples=samples, mode="random")


def _space_fields(space):
    return [
        ("space", space.label or "custom"),
        ("kind", space.kind),
        ("field", space.q),
        ("ambient-dim", space.dim),
        ("points", len(space.points)),
        ("lines", len(space.lines)),
        ("rank", space.n),
        ("grid", space.is_grid),
        ("embedding-tag", natural_embedding(space).tag),
    ]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polaris",
        description="construct finite classical polar spaces and verify their "
                    "subspace-embedding properties")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a space and report its shape")
    _add_common(p)
    p.add_argument("--verbose", action="store_true",
                   help="also print the Conway polynomial of the field")

    p = sub.add_parser("points", help="list the canonical points")
    _add_common(p)

    p = sub.add_parser("lines", help="list the lines as point-index tuples")
    _add_common(p)

    p = sub.add_parser("closure", help="subspace generated by --points")
    _add_common(p)
    p.add_argument("--points", required=True)

    p = sub.add_parser("perp", help="common collinearity set of --points")
    _add_common(p)
    p.add_argument("--points", required=True)

    p = sub.add_parser("frame", help="frame operations")
    fsub = p.add_subparsers(dest="action", required=True)
    for action in ("check", "extend", "find"):
        fp = fsub.add_parser(action)
        _add_common(fp)
        if action in ("check", "extend"):
            fp.add_argument("--a", required=True, help="comma indices of A")
            fp.add_argument("--b", required=True, help="comma indices of B")
        else:
            fp.add_argument("--points", default="all",
                            help="generators of the subspace to search (default all)")
            fp.add_argument("--k", type=int, required=True, help="frame rank")

    p = sub.add_parser("check", help="run a verification check")
    csub = p.add_subparsers(dest="what", required=True)
    for what in ("theorem1", "corollary2", "corollary3", "prop5"):
        cp = csub.add_parser(what)
        _add_common(cp, samples=True)

    p = sub.add_parser("search", help="experimental searches")
    ssub = p.add_subparsers(dest="what", required=True)
    sp = ssub.add_parser("rank1-nonarising")
    _add_common(sp, samples=True)
    sp.add_argument("--max-set-size", type=int, default=4)

    p = sub.add_parser("explore", help="experimental open-problem surveys")
    esub = p.add_subparsers(dest="what", required=True)
    ep = esub.add_parser("problem5")
    _add_common(ep, samples=True)

    p = sub.add_parser("quotient",
                       help="project the universal quadratic embedding from rad(f_Q)")
    _add_common(p)

    p = sub.add_parser("hull",
                       help="rebuild the quadric above a characteristic-2 symplectic space")
    _add_common(p)

    p = sub.add_parser("mingen", help="minimal generating subset of --points")
    _add_common(p)
    p.add_argument("--points", required=True)

    return ap


def run(args, out) -> int:
    w = RecordWriter(out, args.format)
    cmd = args.command

    if cmd == "build":
        space = _load_space(args)
        fields = _space_fields(space)
        if args.verbose:
            F = space.field
            fields.append(("conway", F.conway_str()))
            fields.append(("conway-coeffs", F.conway))
        w.emit("space", fields)
        return 0

    if cmd == "points":
        space = _load_space(args)
        fields = _space_fields(space)
        for i, v in enumerate(space.points):
            fields.append(("point", (i,) + tuple(v)))
        w.emit("points", fields)
        return 0

    if cmd == "lines":
        space = _load_space(args)
        fields = _space_fields(space)
        for i, pts in enumerate(space.lines):
            fields.append(("line", (i,) + pts))
        w.emit("lines", fields)
        return 0

    if cmd == "closure":
        space = _load_space(args)
        X = _parse_points(args.points, space)
        c = closure(space, X)
        w.emit("closure", [
            ("space", space.label or "custom"),
            ("input", X.indices()),
            ("points", c.indices()),
            ("size", len(c)),
            ("is-singular", c.is_singular),
            ("rank", c.rank),
            ("rank-nd", c.rank_nd),
        ])
        return 0

    if cmd == "perp":
        space = _load_space(args)
        X = _parse_points(args.points, space)
        pp = perp(space, X)
        w.emit("perp", [
            ("space", space.label or "custom"),
            ("input", X.indices()),
            ("points", pp.indices()),
            ("size", len(pp)),
        ])
        return 0

    if cmd == "frame":
        space = _load_space(args)
        if args.action == "check":
            a = _parse_points(args.a, space, "--a").indices()
            b = _parse_points(args.b, space, "--b").indices()
            fr = check_partial_frame(space, a, b)
        elif args.action == "extend":
            a = _parse_points(args.a, space, "--a").indices()
            b = _parse_points(args.b, space, "--b").indices()
            fr = extend_frame(space, check_partial_frame(space, a, b))
        else:
            S = closure(space, _parse_points(args.points, space))
            fr = find_partial_frame(space, S, args.k)
        span = frame_span(space, fr)
        w.emit("frame", [
            ("space", space.label or "custom"),
            ("action", args.action),
            ("rank", fr.rank),
            ("a", fr.a),
            ("b", fr.b),
            ("span-size", len(span)),
            ("span-rank", fr.rank),
        ])
        return 0

    if cmd == "check":
        space = _load_space(args)
        plan = _plan(args)
        if args.what == "theorem1":
            report = check_theorem1(space, natural_embedding(space), plan)
        elif args.what == "corollary2":
            report = check_corollary2(space, plan)
        elif args.what == "corollary3":
            report = check_corollary3(space, plan)
        else:
            report = check_prop5(space, plan)
        w.emit_report(report)
        return 0 if report.failed == 0 else 1

    if cmd == "search":
        space = _load_space(args)
        report = search_nonarising_rank1(space, universal_embedding(space),
                                         _plan(args), args.max_set_size)
        w.emit_report(report)
        return 0

    if cmd == "explore":
        space = _load_space(args)
        report = explore_problem5(space, _plan(args))
        w.emit_report(report)
        return 0

    if cmd == "quotient":
        space = _load_space(args)
        emb = natural_embedding(space)
        res = quotient_embedding(emb, radical_of_form(space.bilinear))
        w.emit("quotient", [
            ("space", space.label or "custom"),
            ("kernel-dim", len(res.embedding.kernel)),
            ("quotient-ambient-dim", res.embedding.dim),
            ("quotient-points", len(res.quotient_space.points)),
            ("quotient-lines", len(res.quotient_space.lines)),
            ("bijective", sorted(res.point_map) == list(range(len(space.points)))),
            ("point-map", res.point_map),
        ])
        return 0

    if cmd == "hull":
        space = _load_space(args)
        res = hull_of_symplectic_char2(space)
        w.emit("hull", [
            ("space", space.label or "custom"),
            ("quadric-points", len(res.quad_space.points)),
            ("quadric-ambient-dim", res.quad_space.dim),
            ("universal-dim", res.universal.dim),
            ("to-quad", res.to_quad),
        ])
        return 0

    if cmd == "mingen":
        space = _load_space(args)
        emb = universal_embedding(space)
        X = _parse_points(args.points, space)
        Y = minimal_generating_subset(emb, X)
        target = closure(space, X)
        w.emit("mingen", [
            ("space", space.label or "custom"),
            ("input", X.indices()),
            ("minimal", Y.indices()),
            ("size", len(Y)),
            ("closure-size", len(target)),
            ("regenerates", closure(space, Y).bits == target.bits),
        ])
        return 0

    raise UsageError(f"unknown command {cmd!r}")  # unreachable


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return run(args, out)
    except (PolarisError, OSError) as exc:
        print(f"polaris: error: {exc}", file=err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
