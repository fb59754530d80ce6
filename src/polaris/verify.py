"""Seeded samplers and exhaustive enumerators for the subspace-embedding
checks.

Each check is a candidate stream and a judge, run by one driver
(`_drive`) that does all the report bookkeeping.  Every candidate counts
as sampled; one whose point set the run has met before is skipped as a
duplicate, and the whole point set, which every check's hypotheses
exclude, as improper.  The judge returns a skip reason when the
candidate fails a hypothesis, None when it passes, or a witness dict
when it fails.  The open-problem commands are experimental: their reports file the dicts as
exhibits, count those candidates as passed and never count failures.

A sampled check call seeds one random stream from its plan, once, and
draws every sample from it in order: identical plans replay identical
sample sequences and reports, and a k-sample run is a prefix of a
longer one.  The stream's key is the text `polaris-sample/<seed>`,
which is injective in the seed, so distinct seeds (negative ones
included) give distinct streams.  Candidate subspaces are closures of
random seed sets with sizes uniform in [2, 2n+2].  `arises_from` judges
a candidate by its points alone, so a sampled and an exhaustive
candidate with the same points get the same verdict.
Exhaustive mode walks the full subspace lattice by in/out branching on
the highest free point, whose line class prunes the in-branch before
any closure and whose class walk stops at the first point ruled out;
each subspace's in-branches pop lowest first, so the subspaces are
judged in ascending order with no sort.  It is the default at 15
points or fewer; corollary3 walks the dual space and sorts it with one
`embed.line_meetings` pass.

A check that needs an embedding judges against
`embed.universal_embedding(space)`: theorem1 takes it as an argument
and refuses any other; corollary3, prop5 and the search build it.

Failure witnesses carry enough indices to replay the failing call in
isolation.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .embed import Embedding, arises_from, line_meetings, universal_embedding
from .errors import UsageError
from .polar import (
    PointSet,
    PolarSpace,
    _line_class,
    closure,
    enumerate_subspaces,
    is_hyperplane,
    is_maximal_subspace,
    rank_nd,
    rank_of,
)

EXHAUSTIVE_POINT_LIMIT = 15   # auto-exhaustive at or below this many points
FORCED_EXHAUSTIVE_POINT_LIMIT = 20   # forced exhaustive allowed at or below this


@dataclass(frozen=True)
class SamplePlan:
    seed: int = 0
    samples: int = 500
    mode: str = "auto"            # auto | random | exhaustive

    def rng_for(self) -> random.Random:
        """The plan's one sample stream.  `random.Random` seeds from a str
        key's own bytes plus their SHA-512 digest, so distinct integer
        seeds give distinct streams."""
        return random.Random(f"polaris-sample/{self.seed}")

    def resolved_mode(self, space: PolarSpace) -> str:
        if self.mode == "exhaustive":
            if len(space.points) > FORCED_EXHAUSTIVE_POINT_LIMIT:
                raise UsageError(
                    f"exhaustive mode allows at most {FORCED_EXHAUSTIVE_POINT_LIMIT} "
                    f"points, and this space has {len(space.points)}; use sampling")
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
    seed: int | None
    samples_requested: int | None
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
           judge, experimental: bool = False) -> CheckReport:
    """Judge every candidate and file the verdicts in one timed report.

    Each candidate counts as sampled; one whose point set was met before
    is skipped as a duplicate, and else the whole space as improper,
    without being judged.  `judge(candidate)`
    returns a skip reason, None for a pass, or a witness dict for a
    failure; an experimental report files the dict as an exhibit and
    counts the candidate as passed.  An exhaustive walk draws nothing, so
    its report carries no seed and no sample count."""
    sampled = mode != "exhaustive"
    report = CheckReport(check, _label(space), mode, plan.seed if sampled else None,
                         plan.samples if sampled else None, experimental=experimental)
    seen = set()
    start = time.perf_counter()
    for cand in candidates:
        report.sampled += 1
        bits = cand.bits
        verdict = "duplicate" if bits in seen else \
            "improper" if bits == space.all_bits else judge(cand)
        seen.add(bits)
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
        yield from enumerate_subspaces(space)
        return
    N = len(space.points)
    hi = max(2, min(2 * space.n + 2, N))
    rng = plan.rng_for()
    for _ in range(plan.samples):
        size = rng.randint(2, hi)
        yield closure(space, rng.sample(range(N), size))


def classify_subspace(space: PolarSpace, S: PointSet) -> str | None:
    """Skip reason for the main-theorem hypotheses, None when applicable.
    A subspace is singular exactly when its non-degenerate rank is 0, so
    one radical decides both skips."""
    if S.bits == space.all_bits:
        return "improper"
    r = rank_nd(space, S)
    if r == 0:
        return "singular"
    if r == 1:
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
    if emb.tag != "universal" or emb.space is not space:
        raise UsageError(f"theorem1 needs the universal embedding of this space, got {emb!r}")
    mode = plan.resolved_mode(space)

    def judge(S):
        return classify_subspace(space, S) or \
            _non_arising(emb, S, "non-arising subspace")

    return _drive("theorem1", space, plan, mode, _subspaces(space, plan, mode), judge)


def _grow_to_maximal(space: PolarSpace, S: PointSet) -> PointSet:
    """Extend a proper subspace to a maximal one in one ascending pass,
    adding each point whose closure with S stays proper.  Closure is
    monotone, so a point rejected once stays rejected as S grows, and a
    rejected point takes its whole `_line_class` with it: each member
    has the same closure with S, the whole space.

    `out` holds the points rejected so far.  Until the first rejection
    each point is closed at once.  After it, each point's class is
    walked first, as the lattice walk does: a class that reaches `out`
    is rejected with no closure, since its closure with S holds a point
    whose closure with a smaller S was already the whole space, and the
    part walked joins `out`.  Any other class is closed with S under
    `avoid=out`, and a closure that meets `out` rejects the class.  The
    decisions and their order are those of closing every point."""
    all_bits = space.all_bits
    todo = all_bits & ~S.bits
    out = 0
    while todo:
        p = (todo & -todo).bit_length() - 1
        if not out:
            c = closure(space, 1 << p, S.bits)
            if c.bits == all_bits:
                out = _line_class(space, S.bits, p)
                todo &= ~out
                continue
        else:
            cls = _line_class(space, S.bits, p, out)
            c = None if cls & out else closure(space, cls, S.bits, out)
            if c is None:
                out |= cls
                todo &= ~cls
                continue
        S = c
        todo &= ~c.bits
    return S


def check_corollary2(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """Every maximal proper subspace of rank >= 2 must meet all lines.

    Exhaustive mode tests each subspace for maximality; sampled mode
    grows each candidate to a maximal subspace in the candidate stream,
    so the driver's dedup sees grown subspaces.  Growing leaves the whole
    space as it is, and the driver skips it as improper."""
    mode = plan.resolved_mode(space)
    exhaustive = mode == "exhaustive"
    candidates = _subspaces(space, plan, mode)
    if not exhaustive:
        candidates = (_grow_to_maximal(space, S) for S in candidates)

    def judge(S):
        if rank_of(space, S) < 2:
            return "rank_lt_2"
        if exhaustive and not is_maximal_subspace(space, S):
            return "not_maximal"
        if is_hyperplane(space, S):
            return None
        return {
            "kind": "maximal non-hyperplane",
            "points": S.indices(),
            "missed_line": next(li for li, pts in enumerate(space.lines)
                                if not any(p in S for p in pts)),
        }

    return _drive("corollary2", space, plan, mode, candidates, judge)


def check_corollary3(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """In rank n > 2, every hyperplane must be maximal of rank n-1 or n.

    The candidates are the zero sets of the projective functionals of the
    universal embedding, the embedding's `duals` table, each judged once
    whatever the plan.  When every line has three points, the hyperplanes
    are exactly these zero sets (M. A. Ronan, "Embeddings and hyperplanes
    of discrete geometries", European J. Combin. 1987), so the walk is
    complete on GF(2).  Without that hypothesis the walk claims no
    completeness: it judges every zero set and nothing else (H3_4, which
    corollary3 refuses for its rank, has 245 hyperplanes and 85 zero
    sets).

    One `line_meetings` pass sorts the zero sets.  One that splits a
    line is no subspace and one that misses a line is no hyperplane:
    each of these is a bad hyperplane.  Every other zero set is a
    hyperplane, and goes to the judge marked as a subspace.  No zero set
    is the whole point set, since the image spans, and the driver would
    skip one as improper."""
    if space.n <= 2:
        raise UsageError("corollary3 needs ambient rank > 2")
    emb = universal_embedding(space)
    zero = emb.duals.zero
    split, missed = line_meetings(emb)
    hyperplanes = {z for i, z in enumerate(zero)
                   if not ((split | missed) >> i) & 1}
    rank_hist: dict = {}

    def candidates():
        for z in zero:
            H = PointSet(space, z)
            if z in hyperplanes:
                H._subspace = True
            yield H

    def judge(H):
        r = rank_of(space, H) if H.is_subspace else None
        if H.bits in hyperplanes and r in (space.n - 1, space.n) \
                and is_maximal_subspace(space, H):
            rank_hist[r] = rank_hist.get(r, 0) + 1
            return None
        return {"kind": "bad hyperplane", "points": H.indices(), "rank": r}

    report = _drive("corollary3", space, plan, "exhaustive", candidates(), judge)
    report.info["rank_histogram"] = dict(sorted(rank_hist.items()))
    return report


def check_prop5(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """A generalized quadrangle whose universal embedding has projective
    dimension 3 admits no proper subspace of non-degenerate rank >= 2."""
    emb = universal_embedding(space)
    if emb.dim != 4:
        raise UsageError(
            "prop5 needs a universal embedding of projective dimension 3 "
            "(vector dimension 4); this space's universal embedding has "
            f"vector dimension {emb.dim}")
    mode = plan.resolved_mode(space)

    def judge(S):
        r = rank_nd(space, S)
        if r <= 1:
            return None
        return {"kind": "proper subspace of rank_nd >= 2", "points": S.indices(),
                "rank_nd": r}

    return _drive("prop5", space, plan, mode, _subspaces(space, plan, mode), judge)


def _anchored_sets(space: PolarSpace, p0: int, q0: int, max_size: int):
    """Each pairwise non-collinear set of 2..max_size points through the
    non-collinear pair (p0, q0), once: a DFS that adds points in
    ascending order.  No set when max_size < 2."""
    N = len(space.points)

    def rec(bits, allowed, lo):
        yield PointSet(space, bits)
        if bits.bit_count() < max_size:
            for p in range(lo, N):
                if (allowed >> p) & 1:
                    yield from rec(bits | 1 << p, allowed & ~space.adj[p], p + 1)

    if max_size >= 2:
        yield from rec(1 << p0 | 1 << q0, space.all_bits & ~space.adj[p0] & ~space.adj[q0], 0)


def search_nonarising_rank1(space: PolarSpace, plan: SamplePlan,
                            max_set_size: int = 4) -> CheckReport:
    """Hunt for low-rank subspaces that fail to arise from the universal
    embedding: every pairwise non-collinear set of 2..max_set_size points
    through one anchor pair, plus sampled closures of non-degenerate rank
    at most 1, deduplicated together.  Experimental; exhibits, not failures.

    The anchor is p0 = 0 and q0, the lowest point not collinear with it.
    The isometry group is transitive on ordered non-collinear pairs
    (Witt's theorem; D. E. Taylor, The Geometry of the Classical Groups,
    1992), and every automorphism lifts to the universal embedding, so
    every isometry class of such sets has anchored members, which arise
    exactly when the class does.  Each such set has non-degenerate rank 1."""
    emb = universal_embedding(space)
    far = space.all_bits & ~space.adj[0]
    p0, q0 = 0, (far & -far).bit_length() - 1
    candidates = itertools.chain(
        _anchored_sets(space, p0, q0, max_set_size),
        _subspaces(space, plan, plan.resolved_mode(space)))

    def judge(S):
        r = rank_nd(space, S)
        if r > 1:
            return "rank_nd_gt_1"
        exhibit = _non_arising(emb, S, "non-arising low-rank subspace")
        if exhibit is not None:
            exhibit.update(rank=rank_of(space, S), rank_nd=r)
        return exhibit

    report = _drive("rank1-nonarising", space, plan, "mixed", candidates, judge,
                    experimental=True)
    report.info["anchor"] = [p0, q0]
    report.info["exhibit_count"] = len(report.exhibits)
    return report


def _saturate(space: PolarSpace, p: int) -> int:
    """Maximal pairwise non-collinear set grown from p by lowest points;
    adj[x] contains x, so clearing it drops the chosen point too."""
    bits, allowed = 1 << p, space.all_bits & ~space.adj[p]
    while allowed:
        low = allowed & -allowed
        bits |= low
        allowed &= ~space.adj[low.bit_length() - 1]
    return bits


def explore_problem5(space: PolarSpace, plan: SamplePlan) -> CheckReport:
    """Classify maximal rank-1 subspaces of a generalized quadrangle as
    hyperplanes (ovoids) or counterexamples.  The driver skips the whole
    space, and the judge every other candidate but the rank-1 subspaces.
    Exhaustive mode walks every subspace; sampled mode saturates a random
    point to a maximal pairwise non-collinear set, which always is one.  A saturation
    depends on its start point alone, so each start point is saturated
    once per call and a repeat draw yields the same set, which the
    report skips as a duplicate.  Experimental; no verdict."""
    if space.n != 2:
        raise UsageError("problem5 concerns rank-2 spaces only")
    mode = plan.resolved_mode(space)

    def saturations():
        rng = plan.rng_for()
        saturated = {}
        for _ in range(plan.samples):
            p = rng.randrange(len(space.points))
            if p not in saturated:
                saturated[p] = PointSet(space, _saturate(space, p))
            yield saturated[p]

    def judge(S):
        if rank_of(space, S) != 1:
            return "rank_ne_1"
        if not is_maximal_subspace(space, S):
            return "not_maximal"
        if is_hyperplane(space, S):
            return None
        return {"kind": "maximal rank-1 subspace that is not a hyperplane",
                "points": S.indices()}

    candidates = _subspaces(space, plan, mode) if mode == "exhaustive" else saturations()
    report = _drive("problem5", space, plan, mode, candidates, judge, experimental=True)
    report.info["ovoid_hyperplanes"] = report.applicable - len(report.exhibits)
    report.info["non_hyperplane_maximals"] = len(report.exhibits)
    return report
