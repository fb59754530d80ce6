"""In-memory span tracer for polaris, installed from outside the package.

Each traced function is replaced by a wrapper that records one span:
name, start, end, parent span and check-call id.  Modules such as
`verify`, `embed` and `cli` import `closure`, `preimage` and others by
name, so the tracer rebinds every module-level name in `polaris.*` that
is bound to an original, not only the defining module's.  `Field`
arithmetic runs about a million times per second of work, so those
methods are counted but get no span.  `restore()` puts every original
back.

Self time of a span is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
from array import array

from polaris import field, records, verify

SPANNED = {
    "polar": ("closure", "is_maximal_subspace", "is_hyperplane", "rank_of",
              "rank_nd", "is_subspace", "enumerate_subspaces", "build_polar_space"),
    "embed": ("preimage", "arises_from", "projective_span", "universal_embedding"),
    "linalg": ("reduce_mod", "in_span", "rref", "right_kernel"),
    "forms": ("witt_index",),
    "specfile": ("parse_spec", "build_space_from_spec"),
    "verify": ("check_theorem1", "check_corollary2", "check_corollary3",
               "check_prop5", "explore_problem5"),
}
SPANNED_METHODS = (
    (verify.SamplePlan, "rng_for", "verify.rng_for"),
    (records.RecordWriter, "emit_report", "records.emit_report"),
)
FIELD_OPS = ("add", "sub", "mul", "inv")

SETUP_CALL = -1   # check-call id of spans recorded outside a check call


class Tracer:
    def __init__(self):
        self.names = []           # span name of each name index
        self.name_of = array("i")
        self.parent = array("q")
        self.call = array("q")
        self.start = array("d")
        self.end = array("d")
        self.call_id = SETUP_CALL
        self.subsets_scanned = 0
        self.subspaces_found = 0
        self._stack = [-1]
        self._field_counters = {}
        self._saved = []          # (owner, attribute, original) in patch order

    # -- installation ------------------------------------------------------

    def _span(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        name_of, parent, call = self.name_of, self.parent, self.call
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(idx)
            parent.append(stack[-1])
            call.append(tracer.call_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def _count_enumeration(self, fn):
        def enumerate_subspaces(space, *args, **kwargs):
            out = fn(space, *args, **kwargs)
            self.subsets_scanned += 1 << len(space.points)
            self.subspaces_found += len(out)
            return out
        return enumerate_subspaces

    def _counted(self, op: str, fn):
        counter = itertools.count()
        self._field_counters[op] = counter
        tick = counter.__next__
        if op == "inv":
            def counted(self, a):
                tick()
                return fn(self, a)
        else:
            def counted(self, a, b):
                tick()
                return fn(self, a, b)
        return counted

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function and rebind each name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "polaris" or n.startswith("polaris."))]
        replacement = {}
        for mod, names in SPANNED.items():
            module = sys.modules[f"polaris.{mod}"]
            for name in names:
                orig = getattr(module, name)
                fn = orig
                if (mod, name) == ("polar", "enumerate_subspaces"):
                    fn = self._count_enumeration(orig)
                replacement[id(orig)] = (orig, self._span(f"{mod}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for owner, attr, name in SPANNED_METHODS:
            self._set(owner, attr, self._span(name, vars(owner)[attr]))
        for op in FIELD_OPS:
            self._set(field.Field, op, self._counted(op, vars(field.Field)[op]))
        return self

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def field_counts(self) -> dict:
        """Calls of each counted Field op.  Reading advances the counters,
        so read once, after the traced work."""
        return {op: next(c) for op, c in self._field_counters.items()}

    def self_times(self) -> list:
        return self_times(self.start, self.end, self.parent)

    def write(self, path):
        """Spans as gzip'd tab-separated text, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tname\tparent\tcall\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{names[self.name_of[i]]}\t{self.parent[i]}\t"
                          f"{self.call[i]}\t{self.start[i] - t0:.9f}\t"
                          f"{self.end[i] - t0:.9f}\n")


def self_times(start, end, parent) -> list:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span.  Spans are indexed by position; parent -1 is none."""
    n = len(start)
    covered = [0.0] * n
    reach = list(start)   # end of the covered prefix of each parent
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# -- per-layer metrics ------------------------------------------------------

LAYERS = ("polar", "embed", "linalg", "forms", "verify", "records")
CALL_FUNCTIONS = tuple(f"{m}.{f}" for m, fs in SPANNED.items() if m != "specfile"
                       for f in fs) + tuple(name for _, _, name in SPANNED_METHODS)
SETUP_FUNCTIONS = ("specfile.parse_spec", "specfile.build_space_from_spec",
                   "forms.witt_index", "polar.build_polar_space",
                   "embed.universal_embedding")


def per_layer_spec() -> list:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for fn in CALL_FUNCTIONS:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("polar.enumerate_subspaces.subsets_scanned", "count", "lower"),
            ("polar.enumerate_subspaces.subspaces_found", "count", "higher"),
            ("polar.enumerate_subspaces.yield", "ratio", "higher")]
    out += [(f"field.{op}.calls", "count", "lower") for op in FIELD_OPS]
    out += [("field.ops", "count", "lower")]
    out += [("verify.sampled", "count", "lower"),
            ("verify.applicable", "count", "higher"),
            ("verify.skipped_duplicate", "count", "lower"),
            ("verify.yield", "ratio", "higher")]
    out += [(f"setup.{fn}.self_s", "s", "lower") for fn in SETUP_FUNCTIONS]
    out += [("setup.wall_s", "s", "lower"),
            ("trace.spans", "count", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


def _by_name(tracer: Tracer):
    calls, self_s = {}, {}
    for i, s in enumerate(tracer.self_times()):
        name = tracer.names[tracer.name_of[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
    return calls, self_s


def layer_metrics(setup_tracer: Tracer, setup_wall: float, tracer: Tracer,
                  outcomes, overhead_ratio: float) -> dict:
    """Every metric of per_layer_spec(): function metrics over the traced
    check calls, `setup.*` over one traced set-up."""
    calls, self_s = _by_name(tracer)
    m = {}
    for fn in CALL_FUNCTIONS:
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum((v for k, v in self_s.items()
                                          if k.split(".")[0] == layer), 0.0)
    scanned, found = tracer.subsets_scanned, tracer.subspaces_found
    m["polar.enumerate_subspaces.subsets_scanned"] = scanned
    m["polar.enumerate_subspaces.subspaces_found"] = found
    m["polar.enumerate_subspaces.yield"] = found / scanned if scanned else 0.0
    ops = tracer.field_counts()
    for op in FIELD_OPS:
        m[f"field.{op}.calls"] = ops[op]
    m["field.ops"] = sum(ops.values())
    sampled = sum(o.sampled for o in outcomes)
    m["verify.sampled"] = sampled
    m["verify.applicable"] = sum(o.applicable for o in outcomes)
    m["verify.skipped_duplicate"] = sum(o.skipped_duplicate for o in outcomes)
    m["verify.yield"] = m["verify.applicable"] / sampled if sampled else 0.0
    _, setup_self = _by_name(setup_tracer)
    for fn in SETUP_FUNCTIONS:
        m[f"setup.{fn}.self_s"] = setup_self.get(fn, 0.0)
    m["setup.wall_s"] = setup_wall
    m["trace.spans"] = len(tracer.start)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
