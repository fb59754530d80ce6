"""Seeded samplers and exhaustive enumerators for the subspace-embedding
checks.

Every sampled check draws each sample from its own deterministic
substream (indexed by sample number), so identical plans replay
identical sample sequences and reports, and samples may be evaluated in
any order.  Candidate subspaces are closures of random seed sets with
sizes uniform in [2, 2n+2]; duplicates within a run are skipped.
Exhaustive mode enumerates the full subspace lattice and is selected
automatically on spaces with at most 15 points.

Failure witnesses carry enough indices to replay the failing call in
isolation.  The open-problem commands are experimental: they report
exhibits and never count failures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .embed import Embedding, arises_from, natural_embedding, preimage
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

SKIP_REASONS = ("improper", "singular", "rank_nd_lt_2", "duplicate")


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


def iter_candidate_subspaces(space: PolarSpace, plan: SamplePlan, report: CheckReport):
    """Candidate subspaces with duplicate accounting already applied."""
    mode = plan.resolved_mode(space)
    if mode == "exhaustive":
        for bits in enumerate_subspaces(space, ENUMERATION_COST_LIMIT):
            report.sampled += 1
            yield PointSet(space, bits)
        return
    N = len(space.points)
    hi = plan.max_size if plan.max_size is not None else 2 * space.n + 2
    hi = max(plan.min_size, min(hi, N))
    seen = set()
    for idx in range(plan.samples):
        rng = plan.rng_for(idx)
        size = rng.randint(plan.min_size, hi)
        ids = rng.sample(range(N), size)
        S = closure(space, ids)
        report.sampled += 1
        if S.bits in seen:
            report.skip("duplicate")
            continue
        seen.add(S.bits)
        yield S


def classify_subspace(space: PolarSpace, S: PointSet) -> str | None:
    """Skip reason for the main-theorem hypotheses, None when applicable."""
    if S.bits == space.all_bits:
        return "improper"
    if S.is_singular:
        return "singular"
    if S.rank_nd < 2:
        return "rank_nd_lt_2"
    return None


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
    report = CheckReport("theorem1", _label(space), plan.resolved_mode(space),
                         plan.seed, plan.samples)
    start = time.perf_counter()
    for S in iter_candidate_subspaces(space, plan, report):
        reason = classify_subspace(space, S)
        if reason:
            report.skip(reason)
            continue
        report.applicable += 1
        verdict = arises_from(emb, S)
        if verdict.arises:
            report.passed += 1
        else:
            report.failed += 1
            report.witnesses.append({
                "kind": "non-arising subspace",
                "points": S.indices(),
                "preimage": verdict.preimage.indices(),
                "witness": verdict.witness,
            })
    report.duration = time.perf_counter() - start
    return report


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
    """Every maximal proper subspace of rank >= 2 must meet all lines."""
    report = CheckReport("corollary2", _label(space), plan.resolved_mode(space),
                         plan.seed, plan.samples)
    start = time.perf_counter()
    mode = plan.resolved_mode(space)
    if mode == "exhaustive":
        for bits in enumerate_subspaces(space, ENUMERATION_COST_LIMIT):
            report.sampled += 1
            S = PointSet(space, bits)
            if S.bits == space.all_bits:
                report.skip("improper")
                continue
            if rank_of(space, S) < 2:
                report.skip("rank_lt_2")
                continue
            if not is_maximal_subspace(space, S):
                report.skip("not_maximal")
                continue
            report.applicable += 1
            if is_hyperplane(space, S):
                report.passed += 1
            else:
                report.failed += 1
                report.witnesses.append({
                    "kind": "maximal non-hyperplane",
                    "points": S.indices(),
                    "missed_line": next(li for li, lb in enumerate(space.line_bits)
                                        if not lb & S.bits),
                })
    else:
        seen = set()
        for S in iter_candidate_subspaces(space, plan, report):
            if S.bits == space.all_bits:
                report.skip("improper")
                continue
            M = _grow_to_maximal(space, S)
            if M.bits in seen:
                report.skip("duplicate")
                continue
            seen.add(M.bits)
            if rank_of(space, M) < 2:
                report.skip("rank_lt_2")
                continue
            report.applicable += 1
            if is_hyperplane(space, M):
                report.passed += 1
            else:
                report.failed += 1
                report.witnesses.append({
                    "kind": "maximal non-hyperplane",
                    "points": M.indices(),
                    "missed_line": next(li for li, lb in enumerate(space.line_bits)
                                        if not lb & M.bits),
                })
    report.duration = time.perf_counter() - start
    return report


def _sampled_hyperplanes(space: PolarSpace, emb: Embedding, plan: SamplePlan,
                         report: CheckReport):
    """Preimages of sampled projective hyperplanes, deduplicated."""
    F = space.field
    d = emb.dim
    seen = set()
    for idx in range(plan.samples):
        rng = plan.rng_for(idx)
        while True:
            functional = tuple(rng.randrange(F.q) for _ in range(d))
            if any(functional):
                break
        from . import linalg
        functional = linalg.normalize_point(F, functional)
        report.sampled += 1
        if functional in seen:
            report.skip("duplicate")
            continue
        seen.add(functional)
        kernel = linalg.right_kernel(F, (functional,), d)
        H = preimage(emb, kernel)
        yield H


def check_corollary3(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """In rank n > 2, every hyperplane must be maximal of rank n-1 or n:
    scanned over all singular hyperplanes plus sampled hyperplane
    preimages under the universal embedding."""
    if space.n <= 2:
        raise UsageError("corollary3 needs ambient rank > 2")
    from .embed import universal_embedding
    emb = universal_embedding(space)
    report = CheckReport("corollary3", _label(space), "mixed",
                         plan.seed, plan.samples)
    start = time.perf_counter()
    rank_hist: dict = {}

    def handle(H: PointSet, origin: str):
        if H.bits == space.all_bits:
            report.skip("improper")
            return
        report.applicable += 1
        r = rank_of(space, H)
        ok = r in (space.n - 1, space.n) and is_hyperplane(space, H) \
            and is_maximal_subspace(space, H)
        if ok:
            report.passed += 1
            rank_hist[r] = rank_hist.get(r, 0) + 1
        else:
            report.failed += 1
            report.witnesses.append({
                "kind": f"bad hyperplane ({origin})",
                "points": H.indices(),
                "rank": r,
            })

    for p in range(len(space.points)):
        report.sampled += 1
        handle(singular_hyperplane(space, p), "singular")
    for H in _sampled_hyperplanes(space, emb, plan, report):
        handle(H, "preimage")
    report.info["rank_histogram"] = dict(sorted(rank_hist.items()))
    report.duration = time.perf_counter() - start
    return report


def check_prop5(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """A generalized quadrangle whose universal embedding has projective
    dimension 3 admits no proper subspace of non-degenerate rank >= 2."""
    emb = natural_embedding(space)
    if emb.tag != "universal" or emb.dim != 4:
        raise UsageError(
            "prop5 needs a universal embedding of projective dimension 3 "
            f"(vector dimension 4); this space has vector dimension {emb.dim}")
    report = CheckReport("prop5", _label(space), plan.resolved_mode(space),
                         plan.seed, plan.samples)
    start = time.perf_counter()
    for S in iter_candidate_subspaces(space, plan, report):
        if S.bits == space.all_bits:
            report.skip("improper")
            continue
        report.applicable += 1
        if S.rank_nd <= 1:
            report.passed += 1
        else:
            report.failed += 1
            report.witnesses.append({
                "kind": "proper subspace of rank_nd >= 2",
                "points": S.indices(),
                "rank_nd": S.rank_nd,
            })
    report.duration = time.perf_counter() - start
    return report


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
    non-degenerate rank at most 1.  Experimental; exhibits, not failures."""
    if emb.tag != "universal":
        raise UsageError("the search runs against the universal embedding")
    report = CheckReport("rank1-nonarising", _label(space), "mixed",
                         plan.seed, plan.samples, experimental=True)
    start = time.perf_counter()
    seen = set()
    budget = ENUMERATION_COST_LIMIT

    def consider(S: PointSet, origin: str):
        if S.bits in seen:
            report.skip("duplicate")
            return
        seen.add(S.bits)
        if S.bits == space.all_bits:
            report.skip("improper")
            return
        report.applicable += 1
        report.passed += 1
        verdict = arises_from(emb, S)
        if not verdict.arises:
            report.exhibits.append({
                "kind": f"non-arising low-rank subspace ({origin})",
                "points": S.indices(),
                "preimage": verdict.preimage.indices(),
                "witness": verdict.witness,
                "rank": rank_of(space, S),
                "rank_nd": rank_nd(space, S),
            })

    for ids in _noncollinear_sets(space, max_set_size, budget):
        report.sampled += 1
        consider(PointSet.of(space, ids), "non-collinear set")
    for S in iter_candidate_subspaces(space, plan, report):
        if S.bits == space.all_bits:
            report.skip("improper")
            continue
        if rank_nd(space, S) > 1:
            report.skip("rank_nd_gt_1")
            continue
        consider(S, "sampled closure")
    report.info["exhibit_count"] = len(report.exhibits)
    report.duration = time.perf_counter() - start
    return report


def explore_problem5(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """Classify maximal rank-1 subspaces of a generalized quadrangle as
    hyperplanes (ovoids) or counterexamples.  Experimental; no verdict."""
    if space.n != 2:
        raise UsageError("problem5 concerns rank-2 spaces only")
    report = CheckReport("problem5", _label(space), plan.resolved_mode(space),
                         plan.seed, plan.samples, experimental=True)
    start = time.perf_counter()
    mode = plan.resolved_mode(space)
    ovoids = counterexamples = 0

    def saturate_noncollinear(S: PointSet) -> PointSet:
        bits = S.bits
        while True:
            allowed = space.all_bits & ~bits
            for p in list(_iter_bits(bits)):
                allowed &= ~space.adj[p]
            if not allowed:
                return PointSet(space, bits)
            bits |= allowed & -allowed

    candidates = []
    if mode == "exhaustive":
        for bits in enumerate_subspaces(space, ENUMERATION_COST_LIMIT):
            report.sampled += 1
            S = PointSet(space, bits)
            if bits == space.all_bits:
                report.skip("improper")
                continue
            if rank_of(space, S) != 1:
                report.skip("rank_ne_1")
                continue
            candidates.append(S)
    else:
        seen = set()
        for idx in range(plan.samples):
            rng = plan.rng_for(idx)
            report.sampled += 1
            start_pt = rng.randrange(len(space.points))
            S = saturate_noncollinear(PointSet(space, 1 << start_pt))
            if S.bits in seen:
                report.skip("duplicate")
                continue
            seen.add(S.bits)
            candidates.append(S)

    for S in candidates:
        if not is_maximal_subspace(space, S):
            report.skip("not_maximal")
            continue
        report.applicable += 1
        report.passed += 1
        if is_hyperplane(space, S):
            ovoids += 1
        else:
            counterexamples += 1
            report.exhibits.append({
                "kind": "maximal rank-1 subspace that is not a hyperplane",
                "points": S.indices(),
            })
    report.info["ovoid_hyperplanes"] = ovoids
    report.info["non_hyperplane_maximals"] = counterexamples
    report.duration = time.perf_counter() - start
    return report
