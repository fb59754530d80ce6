"""Seeded samplers and exhaustive enumerators for the subspace-embedding
checks.

Each check is a candidate stream and a judge, run by one driver
(`_drive`) that does all the report bookkeeping.  Every candidate counts
as sampled; one whose dedup key the run has met before is skipped as a
duplicate.  The judge returns a skip reason when the candidate fails a
hypothesis, None when it passes, or a witness dict when it fails.  The
open-problem commands are experimental: their reports file the dicts as
exhibits, count those candidates as passed and never count failures.

Every sampled check draws each sample from its own deterministic
substream (indexed by sample number), so identical plans replay
identical sample sequences and reports.  Candidate subspaces are
closures of random seed sets with sizes uniform in [2, 2n+2].
Exhaustive mode enumerates the full subspace lattice and is selected
automatically on spaces with at most 15 points.

Failure witnesses carry enough indices to replay the failing call in
isolation.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from operator import attrgetter

from . import linalg
from .embed import (
    Embedding,
    arises_from,
    natural_embedding,
    preimage,
    universal_embedding,
)
from .errors import UsageError
from .polar import (
    PointSet,
    PolarSpace,
    _iter_bits,
    closure,
    enumerate_subspaces,
    is_hyperplane,
    is_maximal_subspace,
    rank_nd,
    rank_of,
    singular_hyperplane,
)

EXHAUSTIVE_POINT_LIMIT = 15   # auto-exhaustive at or below this many points
ENUMERATION_COST_LIMIT = 2**20


@dataclass(frozen=True)
class SamplePlan:
    seed: int = 0
    samples: int = 500
    min_size: int = 2
    max_size: int | None = None   # defaults to 2n + 2 at run time
    mode: str = "auto"            # auto | random | exhaustive

    def rng_for(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)

    def resolved_mode(self, space: PolarSpace) -> str:
        if self.mode == "exhaustive":
            if 1 << len(space.points) > ENUMERATION_COST_LIMIT:
                raise UsageError(
                    f"exhaustive mode would enumerate 2^{len(space.points)} subsets; "
                    "use sampling on this space")
            return "exhaustive"
        if self.mode == "random":
            return "random"
        if self.mode == "auto":
            return "exhaustive" if len(space.points) <= EXHAUSTIVE_POINT_LIMIT \
                else "random"
        raise UsageError(f"unknown sample mode {self.mode!r}")


@dataclass
class CheckReport:
    check: str
    space: str
    mode: str
    seed: int
    samples_requested: int
    sampled: int = 0
    applicable: int = 0
    passed: int = 0
    failed: int = 0
    skipped: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    exhibits: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    experimental: bool = False
    duration: float = 0.0

    def skip(self, reason: str):
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def skip_total(self) -> int:
        return sum(self.skipped.values())

    def consistent(self) -> bool:
        return self.sampled == self.applicable + self.skip_total() \
            and self.applicable == self.passed + self.failed


def _label(space: PolarSpace) -> str:
    return space.label or f"{space.kind}-{space.dim}-q{space.q}"


def _drive(check: str, space: PolarSpace, plan: SamplePlan, mode: str, candidates,
           judge, key=attrgetter("bits"), experimental: bool = False) -> CheckReport:
    """Judge every candidate and file the verdicts in one timed report.

    Each candidate counts as sampled; one whose `key` was met before is
    skipped as a duplicate without being judged.  `judge(candidate)`
    returns a skip reason, None for a pass, or a witness dict for a
    failure; an experimental report files the dict as an exhibit and
    counts the candidate as passed."""
    report = CheckReport(check, _label(space), mode, plan.seed, plan.samples,
                         experimental=experimental)
    seen = set()
    start = time.perf_counter()
    for cand in candidates:
        report.sampled += 1
        k = key(cand)
        verdict = "duplicate" if k in seen else judge(cand)
        seen.add(k)
        if isinstance(verdict, str):
            report.skip(verdict)
            continue
        report.applicable += 1
        if verdict is None:
            report.passed += 1
        elif experimental:
            report.passed += 1
            report.exhibits.append(verdict)
        else:
            report.failed += 1
            report.witnesses.append(verdict)
    report.duration = time.perf_counter() - start
    return report


def _subspaces(space: PolarSpace, plan: SamplePlan, mode: str):
    """Every subspace in exhaustive mode, else closures of random seed sets."""
    if mode == "exhaustive":
        for bits in enumerate_subspaces(space, ENUMERATION_COST_LIMIT):
            yield PointSet(space, bits)
        return
    N = len(space.points)
    hi = plan.max_size if plan.max_size is not None else 2 * space.n + 2
    hi = max(plan.min_size, min(hi, N))
    for idx in range(plan.samples):
        rng = plan.rng_for(idx)
        size = rng.randint(plan.min_size, hi)
        yield closure(space, rng.sample(range(N), size))


def classify_subspace(space: PolarSpace, S: PointSet) -> str | None:
    """Skip reason for the main-theorem hypotheses, None when applicable."""
    if S.bits == space.all_bits:
        return "improper"
    if S.is_singular:
        return "singular"
    if S.rank_nd < 2:
        return "rank_nd_lt_2"
    return None


def _non_arising(emb: Embedding, S: PointSet, kind: str) -> dict | None:
    """None when S arises from emb, else a witness of the given kind."""
    verdict = arises_from(emb, S)
    if verdict.arises:
        return None
    return {
        "kind": kind,
        "points": S.indices(),
        "preimage": verdict.preimage.indices(),
        "witness": verdict.witness,
    }


def check_theorem1(space: PolarSpace, emb: Embedding, plan: SamplePlan) -> CheckReport:
    """Every proper non-singular subspace of non-degenerate rank >= 2 must
    equal the preimage of the span of its image under the universal
    embedding."""
    if emb.tag != "universal":
        raise UsageError(
            "embedding is a proper quotient; use --preset Q4_2 or `hull`"
            if emb.tag == "quotient" else
            "no universal embedding designated for this space (grid case)")
    if emb.space is not space:
        raise UsageError("embedding belongs to a different space")
    mode = plan.resolved_mode(space)

    def judge(S):
        return classify_subspace(space, S) or \
            _non_arising(emb, S, "non-arising subspace")

    return _drive("theorem1", space, plan, mode, _subspaces(space, plan, mode), judge)


def _grow_to_maximal(space: PolarSpace, S: PointSet) -> PointSet:
    """Extend a proper subspace by closure steps until no point keeps it proper."""
    while True:
        grown = None
        for p in _iter_bits(space.all_bits & ~S.bits):
            c = closure(space, 1 << p, S.bits)
            if c.bits != space.all_bits:
                grown = c
                break
        if grown is None:
            return S
        S = grown


def check_corollary2(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """Every maximal proper subspace of rank >= 2 must meet all lines.

    Exhaustive mode tests each subspace for maximality; sampled mode
    grows each candidate to a maximal subspace and skips a grown
    subspace met before as a duplicate."""
    mode = plan.resolved_mode(space)
    exhaustive = mode == "exhaustive"
    grown = set()

    def judge(S):
        if S.bits == space.all_bits:
            return "improper"
        if not exhaustive:
            S = _grow_to_maximal(space, S)
            if S.bits in grown:
                return "duplicate"
            grown.add(S.bits)
        if rank_of(space, S) < 2:
            return "rank_lt_2"
        if exhaustive and not is_maximal_subspace(space, S):
            return "not_maximal"
        if is_hyperplane(space, S):
            return None
        return {
            "kind": "maximal non-hyperplane",
            "points": S.indices(),
            "missed_line": next(li for li, lb in enumerate(space.line_bits)
                                if not lb & S.bits),
        }

    return _drive("corollary2", space, plan, mode, _subspaces(space, plan, mode), judge)


def check_corollary3(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """In rank n > 2, every hyperplane must be maximal of rank n-1 or n:
    scanned over all singular hyperplanes plus sampled hyperplane
    preimages under the universal embedding, deduplicated on the
    normalized functional."""
    if space.n <= 2:
        raise UsageError("corollary3 needs ambient rank > 2")
    emb = universal_embedding(space)
    F, d = space.field, emb.dim
    rank_hist: dict = {}

    def hyperplanes():
        for p in range(len(space.points)):
            yield "singular", p
        for idx in range(plan.samples):
            rng = plan.rng_for(idx)
            while True:
                functional = tuple(rng.randrange(F.q) for _ in range(d))
                if any(functional):
                    break
            yield "preimage", linalg.normalize_point(F, functional)

    def judge(item):
        origin, x = item
        H = singular_hyperplane(space, x) if origin == "singular" \
            else preimage(emb, linalg.right_kernel(F, (x,), d))
        if H.bits == space.all_bits:
            return "improper"
        r = rank_of(space, H)
        if r in (space.n - 1, space.n) and is_hyperplane(space, H) \
                and is_maximal_subspace(space, H):
            rank_hist[r] = rank_hist.get(r, 0) + 1
            return None
        return {"kind": f"bad hyperplane ({origin})", "points": H.indices(), "rank": r}

    report = _drive("corollary3", space, plan, "mixed", hyperplanes(), judge,
                    key=lambda item: item)
    report.info["rank_histogram"] = dict(sorted(rank_hist.items()))
    return report


def check_prop5(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """A generalized quadrangle whose universal embedding has projective
    dimension 3 admits no proper subspace of non-degenerate rank >= 2."""
    emb = natural_embedding(space)
    if emb.tag != "universal" or emb.dim != 4:
        raise UsageError(
            "prop5 needs a universal embedding of projective dimension 3 "
            f"(vector dimension 4); this space has vector dimension {emb.dim}")
    mode = plan.resolved_mode(space)

    def judge(S):
        if S.bits == space.all_bits:
            return "improper"
        if S.rank_nd <= 1:
            return None
        return {"kind": "proper subspace of rank_nd >= 2", "points": S.indices(),
                "rank_nd": S.rank_nd}

    return _drive("prop5", space, plan, mode, _subspaces(space, plan, mode), judge)


def _noncollinear_sets(space: PolarSpace, max_size: int, budget: int):
    """DFS over pairwise non-collinear index sets of size 2..max_size."""
    N = len(space.points)
    out = []
    count = 0

    def rec(chain, allowed, lo):
        nonlocal count
        if count > budget:
            return
        if len(chain) >= 2:
            out.append(tuple(chain))
        if len(chain) == max_size:
            return
        for p in range(lo, N):
            if (allowed >> p) & 1:
                count += 1
                rec(chain + [p], allowed & ~space.adj[p], p + 1)

    rec([], space.all_bits, 0)
    return out


def search_nonarising_rank1(space: PolarSpace, emb: Embedding,
                            plan: SamplePlan, max_set_size: int = 4) -> CheckReport:
    """Hunt for low-rank subspaces that fail to arise: exhaustively over
    small pairwise non-collinear sets, plus sampled closures of
    non-degenerate rank at most 1, all deduplicated on one set of point
    sets.  Experimental; exhibits, not failures."""
    if emb.tag != "universal":
        raise UsageError("the search runs against the universal embedding")
    sets = ((PointSet.of(space, ids), "non-collinear set")
            for ids in _noncollinear_sets(space, max_set_size, ENUMERATION_COST_LIMIT))
    closures = ((S, "sampled closure")
                for S in _subspaces(space, plan, plan.resolved_mode(space)))

    def judge(item):
        S, origin = item
        if S.bits == space.all_bits:
            return "improper"
        if origin == "sampled closure" and rank_nd(space, S) > 1:
            return "rank_nd_gt_1"
        exhibit = _non_arising(emb, S, f"non-arising low-rank subspace ({origin})")
        if exhibit is not None:
            exhibit.update(rank=rank_of(space, S), rank_nd=rank_nd(space, S))
        return exhibit

    report = _drive("rank1-nonarising", space, plan, "mixed",
                    itertools.chain(sets, closures), judge,
                    key=lambda item: item[0].bits, experimental=True)
    report.info["exhibit_count"] = len(report.exhibits)
    return report


def explore_problem5(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """Classify maximal rank-1 subspaces of a generalized quadrangle as
    hyperplanes (ovoids) or counterexamples.  Exhaustive mode takes the
    rank-1 subspaces; sampled mode saturates a random point to a maximal
    pairwise non-collinear set.  Experimental; no verdict."""
    if space.n != 2:
        raise UsageError("problem5 concerns rank-2 spaces only")
    mode = plan.resolved_mode(space)
    exhaustive = mode == "exhaustive"

    def saturations():
        for idx in range(plan.samples):
            bits = 1 << plan.rng_for(idx).randrange(len(space.points))
            while True:
                allowed = space.all_bits & ~bits
                for p in _iter_bits(bits):
                    allowed &= ~space.adj[p]
                if not allowed:
                    break
                bits |= allowed & -allowed
            yield PointSet(space, bits)

    def judge(S):
        if exhaustive:
            if S.bits == space.all_bits:
                return "improper"
            if rank_of(space, S) != 1:
                return "rank_ne_1"
        if not is_maximal_subspace(space, S):
            return "not_maximal"
        if is_hyperplane(space, S):
            return None
        return {"kind": "maximal rank-1 subspace that is not a hyperplane",
                "points": S.indices()}

    candidates = _subspaces(space, plan, mode) if exhaustive else saturations()
    report = _drive("problem5", space, plan, mode, candidates, judge, experimental=True)
    report.info["ovoid_hyperplanes"] = report.applicable - len(report.exhibits)
    report.info["non_hyperplane_maximals"] = len(report.exhibits)
    return report
