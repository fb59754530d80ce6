"""Workload definitions and the closed loop that drives polaris's check calls.

A workload is a fixed rotation of check calls ("the mix").  Call i runs
mix[i % len(mix)] with a SamplePlan whose seed is the i-th draw of a
`random.Random(workload_seed)` stream, so one workload seed fixes every
input.  One caller, one process, no threads: the next call starts when
the previous one, records rendering included, has returned.

Every call is checked as it would be by a user who trusts the output:
the report must be internally consistent, theorem checks must report no
failures, exhaustive sample counts must match a brute-force count of
closed sets from `tests/oracles.py`, and replayed calls must render
byte-identical records.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from polaris import catalog, embed, records, specfile, verify

ROOT = Path(__file__).resolve().parent.parent

DIGEST_CALLS = 100   # records of the first calls are hashed; every run makes at least these
MIN_CALLS = 100      # so that p90 has ten samples beyond it
REPLAY_STRIDE = 10   # untraced runs replay every tenth digest call
SETUP_REPEATS = 31   # set-ups per untraced run, spread over it; setup_s is their median

THEOREM_CHECKS = ("theorem1", "corollary2", "corollary3", "prop5")

# Subspace counts of the exhaustive presets, also counted by brute force
# from the oracle's lines at run time.
EXPECTED_SUBSPACES = {"W3_2": 278, "Q4_2": 278, "Qp3_2": 50}


@dataclass(frozen=True)
class Call:
    check: str      # theorem1 | corollary2 | corollary3 | prop5 | problem5
    preset: str
    samples: int    # 0 selects exhaustive mode, as `--samples 0` does

    def label(self) -> str:
        return f"{self.check} {self.preset} samples={self.samples}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: tuple

    def presets(self) -> tuple:
        return tuple(dict.fromkeys(c.preset for c in self.mix))


# Some calls appear twice in a mix so that the median and p90 of the mixed
# latencies fall inside a group of similar calls, not on the edge between
# two groups, where they would jump from run to run.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sampled-theorem1",
        "theorem1 sampled on presets too big for exhaustive mode; "
        "preimage and linalg dominate, closure is minor",
        (Call("theorem1", "Q6_2", 100),
         Call("theorem1", "H4_4", 100),
         Call("theorem1", "W5_2", 100))),
    Workload(
        "maximal-growth",
        "corollary2 and corollary3 grow and test maximal subspaces; "
        "closure of a closed set plus one point dominates",
        (Call("corollary2", "Q6_2", 8),
         Call("corollary2", "W5_2", 8),
         Call("corollary2", "H4_4", 8),
         Call("corollary3", "Q6_2", 4),
         Call("corollary3", "W5_2", 4),
         Call("corollary2", "Q6_2", 8),
         Call("corollary2", "W5_2", 8))),
    Workload(
        "gq-cold-closure",
        "prop5 and problem5 on rank-2 quadrangles; cold closures of random "
        "seed sets and per-sample generator cost",
        (Call("prop5", "H3_4", 500),
         Call("prop5", "Sp4_3", 500),
         Call("problem5", "H3_4", 500),
         Call("problem5", "Sp4_3", 500),
         Call("problem5", "Q4_3", 500),
         Call("problem5", "Qp3_4", 500))),
    Workload(
        "exhaustive-small",
        "exhaustive mode on 9- and 15-point spaces; the 2^N subset scan "
        "and fixed per-call costs of many short calls",
        (Call("theorem1", "Q4_2", 0),
         Call("theorem1", "W3_2", 0),
         Call("theorem1", "W3_2", 0),
         Call("corollary2", "W3_2", 0),
         Call("corollary2", "Q4_2", 0),
         Call("corollary2", "Qp3_2", 0),
         Call("problem5", "W3_2", 0),
         Call("problem5", "Q4_2", 0),
         Call("problem5", "Qp3_2", 0))),
)}


@dataclass
class Setup:
    spaces: dict
    embeddings: dict   # universal embeddings; grids have none


def build_setup(presets) -> Setup:
    """Parse each preset's spec text afresh and build its space and
    universal embedding, bypassing catalog's space cache."""
    spaces, embeddings = {}, {}
    for name in presets:
        spec = specfile.parse_spec(catalog.preset_text(name))
        space = specfile.build_space_from_spec(spec, cap=catalog.point_cap(), label=name)
        spaces[name] = space
        if embed.natural_embedding(space).tag != "unknown":
            embeddings[name] = embed.universal_embedding(space)
    return Setup(spaces, embeddings)


def timed_setup(presets):
    """(seconds taken, the Setup built)."""
    start = time.perf_counter()
    setup = build_setup(presets)
    return time.perf_counter() - start, setup


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("polaris_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_subspace_count(form) -> int:
    """Closed sets of the oracle's lines, by a scan over every point subset."""
    pts, lines = _load_oracles().oracle_points_and_lines(form)
    pos = {p: i for i, p in enumerate(pts)}
    line_bits = [sum(1 << pos[p] for p in line) for line in lines]
    count = 0
    for bits in range(1 << len(pts)):
        for lb in line_bits:
            inter = lb & bits
            if inter != lb and inter.bit_count() >= 2:
                break
        else:
            count += 1
    return count


class CallSeeds:
    """SamplePlan seeds of calls 0, 1, 2, ... drawn from the workload seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seeds = []

    def __getitem__(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(32))
        return self._seeds[i]


def plan_for(call: Call, seed: int) -> verify.SamplePlan:
    """The SamplePlan the CLI builds from `--samples` and `--seed`."""
    if call.samples == 0:
        return verify.SamplePlan(seed=seed, samples=0, mode="exhaustive")
    return verify.SamplePlan(seed=seed, samples=call.samples, mode="random")


def invoke(call: Call, setup: Setup, seed: int):
    """One check call through module attributes, so a tracer's rebinding
    applies.  theorem1 runs against the universal embedding, which for
    characteristic-2 symplectic presets is the hull."""
    space = setup.spaces[call.preset]
    plan = plan_for(call, seed)
    if call.check == "theorem1":
        return verify.check_theorem1(space, setup.embeddings[call.preset], plan)
    if call.check == "corollary2":
        return verify.check_corollary2(space, plan)
    if call.check == "corollary3":
        return verify.check_corollary3(space, plan)
    if call.check == "prop5":
        return verify.check_prop5(space, plan)
    if call.check == "problem5":
        return verify.explore_problem5(space, plan)
    raise ValueError(f"unknown check {call.check!r}")


def render(report) -> str:
    out = io.StringIO()
    records.RecordWriter(out, "records").emit_report(report)
    return out.getvalue()


@dataclass
class Outcome:
    """What the gate needs from one call; reports themselves are dropped."""
    latency: float
    text: str | None = None        # kept for the digest calls only
    applicable: int = 0
    sampled: int = 0
    skipped_duplicate: int = 0
    error: str | None = None       # first correctness breach, if any


def gate(call: Call, report, expected_sampled: dict) -> str | None:
    if not report.consistent():
        return "inconsistent report counts"
    if call.check in THEOREM_CHECKS and report.failed:
        return f"{report.failed} failures reported"
    if call.samples == 0 and report.sampled != expected_sampled[call.preset]:
        return (f"exhaustive sampled {report.sampled}, brute force counts "
                f"{expected_sampled[call.preset]}")
    return None


def run_call(call: Call, setup: Setup, seed: int, expected_sampled: dict,
             keep_text: bool) -> Outcome:
    start = time.perf_counter()
    try:
        report = invoke(call, setup, seed)
        text = render(report)
    except Exception as exc:  # a raising call is a failed call, not a crashed run
        return Outcome(time.perf_counter() - start,
                       error=f"raised {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    return Outcome(latency, text if keep_text else None, report.applicable,
                   report.sampled, report.skipped.get("duplicate", 0),
                   gate(call, report, expected_sampled))


@dataclass
class Phase:
    outcomes: list = field(default_factory=list)
    wall: float = 0.0


def run_phase(workload: Workload, setup: Setup, seeds: CallSeeds, expected_sampled: dict,
              seconds: float, min_calls: int, max_calls: int | None = None,
              tracer=None, after_call=None) -> Phase:
    """Closed loop: call after call until `seconds` have passed and at least
    `min_calls` were made, or exactly `max_calls` when given.  A tracer's
    `call_id` is set to each call's index before the call;
    `after_call(index, elapsed_seconds)` runs after it."""
    phase = Phase()
    mix = workload.mix
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.call_id = i
        phase.outcomes.append(run_call(mix[i % len(mix)], setup, seeds[i],
                                       expected_sampled, i < DIGEST_CALLS))
        if after_call is not None:
            after_call(i, time.perf_counter() - start)
        i += 1
        if max_calls is not None:
            if i == max_calls:
                break
        elif i >= min_calls and time.perf_counter() - start >= seconds:
            break
    phase.wall = time.perf_counter() - start
    return phase


def replay(workload: Workload, setup: Setup, seeds: CallSeeds, expected_sampled: dict,
           phase: Phase, indices, after_call=None) -> list:
    """Run the calls again; any records that differ mark the call failed.
    Returns the replayed calls' latencies.  `after_call(index)` runs after
    each."""
    latencies = []
    for i in indices:
        again = run_call(workload.mix[i % len(workload.mix)], setup, seeds[i],
                         expected_sampled, True)
        latencies.append(again.latency)
        if after_call is not None:
            after_call(i)
        first = phase.outcomes[i]
        if first.error is None and again.text != first.text:
            first.error = "replayed records differ"
    return latencies


def records_digest(phase: Phase) -> str:
    h = hashlib.sha256()
    for o in phase.outcomes[:DIGEST_CALLS]:
        h.update((o.text or f"<{o.error}>\n").encode())
    return h.hexdigest()


def expected_counts(workload: Workload, setup: Setup) -> dict:
    """Brute-force subspace counts for every exhaustive preset, checked
    against the pinned values where the workload has them."""
    out = {}
    for call in workload.mix:
        if call.samples == 0 and call.preset not in out:
            count = oracle_subspace_count(setup.spaces[call.preset].form)
            pinned = EXPECTED_SUBSPACES.get(call.preset, count)
            if count != pinned:
                raise RuntimeError(f"oracle counts {count} subspaces of "
                                   f"{call.preset}, expected {pinned}")
            out[call.preset] = count
    return out
