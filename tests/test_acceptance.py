"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with -s to see them live)."""

import argparse
import functools
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polaris import linalg
from polaris.catalog import PRESETS, build_preset
from polaris.cli import build_parser
from polaris.cli import main as cli_main
from polaris.embed import (
    arises_from,
    hull_of_symplectic_char2,
    natural_embedding,
    preimage,
    projective_span,
    quotient_embedding,
    universal_embedding,
)
from polaris.polar import (
    PointSet,
    closure,
    enumerate_subspaces,
    find_partial_frame,
    radical_of_subspace,
    rank_nd,
    rank_of,
)
from polaris.verify import (
    SamplePlan,
    check_corollary2,
    check_corollary3,
    check_prop5,
    check_theorem1,
)

from oracles import oracle_one_or_all, oracle_subspaces
from test_frames import sample_partial_frame

SAMPLED_SPACES = ("Q4_3", "Qm5_2", "Qp5_2", "H3_4", "H4_4", "Q6_2", "Sp4_3")


def announce(num, desc):
    def deco(fn):
        @functools.wraps(fn)   # keeps the signature, so fixtures reach fn
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"\nACCEPTANCE {num} FAIL  {desc}")
                raise
            print(f"\nACCEPTANCE {num} PASS  {desc}")
        return wrapper
    return deco


@announce(1, "exhaustive subspace check on Q(4,2) under the quadric embedding")
def test_criterion_1_exhaustive_q42():
    start = time.perf_counter()
    Q = build_preset("Q4_2")
    emb = natural_embedding(Q)
    report = check_theorem1(Q, emb, SamplePlan(seed=0, mode="exhaustive"))
    elapsed = time.perf_counter() - start
    assert report.failed == 0
    assert report.consistent()
    # candidates really are all subspaces collected from the 2^15 subsets
    assert report.sampled == len(oracle_subspaces(Q.form))
    # the ten grid sections qualify; ovoids sit below the rank_nd threshold
    assert report.applicable == 10
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    assert arises_from(emb, grid).arises
    for S in enumerate_subspaces(Q):
        if len(S) == 5 and rank_of(Q, S) == 1:
            assert rank_nd(Q, S) < 2  # elliptic ovoid: skipped, not asserted
            break
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


@announce(2, "sampled subspace checks on the seven larger catalog spaces")
def test_criterion_2_sampled_spaces():
    start = time.perf_counter()
    for name in SAMPLED_SPACES:
        sp = build_preset(name)
        emb = natural_embedding(sp)
        report = check_theorem1(sp, emb, SamplePlan(seed=0, samples=1500,
                                                    mode="random"))
        distinct = report.sampled - report.skipped.get("duplicate", 0)
        assert report.failed == 0, f"{name}: {report.witnesses}"
        assert report.consistent()
        assert distinct >= 500, f"{name}: only {distinct} distinct subspaces"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.1f}s"


@announce(3, "sampled frames: span preimage, bases, span rank and dimension")
def test_criterion_3_frames():
    for name in sorted(PRESETS):
        sp = build_preset(name)
        emb = natural_embedding(sp)
        if emb.tag == "quotient":
            emb = universal_embedding(sp)
        # grids keep their natural (relatively universal) embedding
        rng = random.Random(0)
        for k in range(2, sp.n + 1):
            got = 0
            attempts = 0
            while got < 100:
                attempts += 1
                assert attempts < 5000, f"{name}: frame sampling starved at rank {k}"
                fr = sample_partial_frame(sp, k, rng)  # validates F1..F4
                if fr is None:
                    continue
                got += 1
                span = closure(sp, fr.point_set())
                assert rank_of(sp, span) == k, f"{name}: span rank != {k}"
                assert radical_of_subspace(sp, span).bits == 0, f"{name}: degenerate span"
                wanted = preimage(emb, projective_span(emb, fr.point_set()))
                assert span == wanted, f"{name} rank {k}: span != preimage"
                if fr.rank == sp.n and span.bits == sp.all_bits:
                    rows = projective_span(emb, fr.point_set())
                    assert len(rows) == 2 * sp.n == emb.dim


@announce(4, "quotient discrimination and arising-transport on W(3,2)/Q(4,2)")
def test_criterion_4_quotient_discrimination():
    Q = build_preset("Q4_2")
    uni = natural_embedding(Q)
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    assert len(grid) == 9
    assert arises_from(uni, grid).arises

    quo = quotient_embedding(Q).embedding
    verdict = arises_from(quo, grid)
    assert not verdict.arises
    assert verdict.preimage.bits == Q.all_bits  # exactly all 15 points

    # the same discrimination seen from the symplectic space itself
    W = build_preset("W3_2")
    to_quad = hull_of_symplectic_char2(W).to_quad
    gridW = PointSet.of(W, [i for i, j in enumerate(to_quad) if j in grid])
    symp = natural_embedding(W)
    vW = arises_from(symp, gridW)
    assert not vW.arises and vW.preimage.bits == W.all_bits
    assert arises_from(universal_embedding(W), gridW).arises

    # transport, exhaustively: arising from the quotient implies arising
    # from the universal embedding
    for S in enumerate_subspaces(Q):
        if arises_from(quo, S).arises:
            assert arises_from(uni, S).arises, f"transport broken at {S.indices()}"


@announce(5, "maximal subspaces are hyperplanes; rank split of Q(6,2) hyperplanes")
def test_criterion_5_corollaries():
    for name in ("W3_2", "Q4_2"):
        r = check_corollary2(build_preset(name), SamplePlan(seed=0, mode="exhaustive"))
        assert r.failed == 0 and r.applicable == 25, name

    Q = build_preset("Q6_2")
    r = check_corollary3(Q, SamplePlan(seed=0, samples=200, mode="random"))
    assert r.failed == 0 and r.consistent()
    assert set(r.info["rank_histogram"]) <= {2, 3}
    assert r.applicable == 127  # every hyperplane, once: the dual space of PG(6,2)

    # classify every hyperplane section: tangent 63, elliptic 28, hyperbolic 36
    emb = natural_embedding(Q)
    F = Q.field
    counts = {}
    for functional in linalg.projective_reps(F, 7):
        H = preimage(emb, linalg.right_kernel(F, (functional,), 7))
        key = (len(H), rank_of(Q, H))
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(31, 3): 63, (27, 2): 28, (35, 3): 36}
    for p in range(len(Q.points)):
        assert rank_of(Q, PointSet(Q, Q.adj[p])) == 3


@announce(6, "no proper subspace of a 3-dim-embedded quadrangle has rank_nd >= 2")
def test_criterion_6_prop5():
    H = build_preset("H3_4")
    r = check_prop5(H, SamplePlan(seed=0, samples=1000, mode="random"))
    assert r.sampled == 1000
    assert r.failed == 0
    assert r.consistent()


@announce(7, "structural oracles: counts, one-or-all, closure as intersection")
def test_criterion_7_structural_oracles(preset_oracle):
    expected = {
        "W3_2": (15, 15), "Sp4_3": (40, 40), "Q4_2": (15, 15),
        "Q4_3": (40, 40), "Qm5_2": (27, 45), "Qp5_2": (35, 105),
        "H3_4": (45, 27), "H4_4": (165, 297), "Q6_2": (63, 315),
        "W5_2": (63, 315), "Qp3_2": (9, 6), "Qp3_4": (25, 10),
    }
    assert set(expected) == set(PRESETS)
    for name in sorted(PRESETS):
        sp = build_preset(name)
        pts, lines = preset_oracle(name)
        assert (len(pts), len(lines)) == expected[name], name
        assert list(sp.points) == pts, name
        got = {frozenset(sp.points[i] for i in line) for line in sp.lines}
        assert got == lines, name
        assert oracle_one_or_all(sp.form, pts, lines) is None, name

    # closure(X) equals the intersection of all subspaces containing X,
    # for every X, with the subspace family from the full 2^N sweep
    for name in ("W3_2", "Q4_2", "Qp3_2"):
        sp = build_preset(name)
        subs = oracle_subspaces(sp.form)
        N = len(sp.points)
        for bits in range(1 << N):
            inter = sp.all_bits
            for s in subs:
                if s & bits == bits:
                    inter &= s
            assert closure(sp, bits).bits == inter


# (argv, sha256 of its stdout); the digests pin the record bytes themselves,
# so a change that alters any output has to name it and update them
CLI_BATTERY = [
    (["build", "--preset", "Q4_2"],
     "0e54628b8099316103510fe95f8870bec0043174c891e99de1d1a2b8311db2e3"),
    (["build", "--preset", "H4_4", "--verbose"],
     "7a400d86464b3f02b03e65fffafbbfe1b4a283ba4f5fe5be2d01853d38d69fd4"),
    (["points", "--preset", "W3_2"],
     "566856a99a9c5422b96e4fa8dd65c98e8ab2835d43f22940afd6fd39cc63911d"),
    (["lines", "--preset", "Qp3_4"],
     "bb84a04eaa0fdaf77f6524ddcd6d3bdea6887cdaed393bf4c80a88fb77cd9fe8"),
    (["closure", "--preset", "W3_2", "--points", "0,2"],
     "4d1b37683df7cb3342613eb1eeed695b99e0a312706d6049db6d61e81f9ddba3"),
    (["perp", "--preset", "Q4_2", "--points", "0,1"],
     "001bf89e314f5bffd63c033e69e1be0d8e34f0347e465930e697437e13c87908"),
    (["frame", "find", "--preset", "Q6_2", "--k", "3"],
     "72685e17066921220714177ba484f268f6701db574a54cb01241c15cd76eed00"),
    (["frame", "extend", "--preset", "Q6_2", "--a", "0,2", "--b", "1,5"],
     "6a3cfb91f3dfc55b92b27e57cb8c593e59c62f53d244f0633374f26f05d98a3e"),
    (["frame", "check", "--preset", "W3_2", "--a", "0,3", "--b", "1,7"],
     "9826aceb0326f94f4f2237077df47293ef6f74af37de9367f6399635a3257cd7"),
    (["check", "theorem1", "--preset", "Q4_2", "--samples", "0"],
     "27c99f7d6bdc94ae33d5f00216dddbc0f8be05fc4b6ec93a263f16ad9f277d8e"),
    (["check", "theorem1", "--preset", "Sp4_3", "--samples", "80", "--seed", "5"],
     "d0d22963bdc59ae73825d83663a3a3b7fe9fb1dd83064f9959ca2fe48f6e56a5"),
    (["check", "theorem1", "--preset", "H4_4", "--samples", "40"],
     "5201b9b26e7e255f037ac7ba6daac79465dd869d28479da639c1013a50a46ae7"),
    (["check", "theorem1", "--preset", "Q6_2", "--samples", "60"],
     "33887a0d9e4f05d4c5685300d6672add935ca51e21d1e7758dc58e5b4cdcf1de"),
    # W5_2 is judged on its hull embedding, x -> (sqrt(Q0(x)), x)
    (["check", "theorem1", "--preset", "W5_2", "--samples", "60"],
     "1f916f4a42569a13445e917b0d7a0294445c2f9518d0e61a8b5de890e666d41a"),
    (["check", "corollary2", "--preset", "Q4_2", "--samples", "0"],
     "10803fe8e53224351e6df6783857ab13b247639a21b387ec8041a34655708d93"),
    (["check", "corollary2", "--preset", "Q6_2", "--samples", "12"],
     "a55cdcbcccf8fddef02dbc0384b1c659780fdc145141c202e6b8e5d945763fa1"),
    (["check", "corollary2", "--preset", "H4_4", "--samples", "8"],
     "1cf69291af29181920146fa49219eda087e6bf358d03eba9e463c51a68c033f1"),
    (["check", "corollary3", "--preset", "Q6_2"],
     "0eda2404364f53de88bec8e3575fd37b380d2ef91366e6226989233ef07c78dd"),
    (["check", "corollary3", "--preset", "W5_2"],
     "2736d0b71fe58fb878eb47841af5c238e5ccceb7d6f3a41d1a24979fdd5c0614"),
    (["check", "prop5", "--preset", "H3_4", "--samples", "120", "--seed", "2"],
     "55c049f9f6636a03350b0178b8cecaae45f4be66fe485ab76acc8fbb2e972665"),
    (["search", "rank1-nonarising", "--preset", "Q4_2", "--samples", "30"],
     "573d9e58f401e54c2bd99faa47822efd96d9dc787cd8aa94ef9fa6b3f9c5bd3e"),
    (["search", "rank1-nonarising", "--preset", "Q4_2", "--samples", "0"],
     "9aecb58d6fe056e6f63334ff19ecaf11119ce560f92d8689c198558e17bfe1b5"),
    (["search", "rank1-nonarising", "--preset", "Sp4_3", "--samples", "30", "--seed", "1"],
     "78ee8da2c378dd8c46dbca5a949e84577906d59bb5c9074cd6840c9f6fec5216"),
    # anchored at one pair; a scan of every non-collinear 4-set takes minutes here
    (["search", "rank1-nonarising", "--preset", "H4_4", "--samples", "25"],
     "be584fadfeba28602caec50eaf108e306d90dad38ba3459f695d18f8455dad7e"),
    (["explore", "problem5", "--preset", "W3_2", "--samples", "0"],
     "cb8c6a0b60137396e78179bab98d2fa7b3e3a5610b0fa7d181457aabda1fc95a"),
    (["explore", "problem5", "--preset", "Q4_2", "--samples", "0"],
     "c701a72dcd6c5a794881217d488db2ca9451d8b34d1b01ee300f735928f37f4c"),
    (["explore", "problem5", "--preset", "Sp4_3", "--samples", "100"],
     "384bcabac7fc2c7c11159d0e2644e53b163645fe6f33781e136bc0623850f34c"),
    (["quotient", "--preset", "Q6_2"],
     "cc6ad32189f4d6d9fb3a4a1c351bc47973d88d4a7673ac73ce4130370b783879"),
    (["hull", "--preset", "W5_2"],
     "57b3ca5653deb04535004e6f44d2e1d11464b64e41c8aa0259c9102e47ef9316"),
    (["mingen", "--preset", "Q4_2", "--points", "all"],
     "3fc330c34d734877fed6eebc37f7c24c57f0383cbc3b52ab1078efec5aaba704"),
    (["mingen", "--preset", "H4_4", "--points", "all"],
     "9e49426e1c604750a7abccaac533d65a1a420aadbc4729ac93ebd9414071e6e3"),
]


@announce(8, "pinned, byte-identical record streams on rerun for every command")
def test_criterion_8_determinism():
    for argv, digest in CLI_BATTERY:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_main(argv, out=buf, err=io.StringIO())
            assert code == 0, argv
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], f"nondeterministic output: {argv}"
        assert "duration" not in outs[0]
        assert hashlib.sha256(outs[0].encode()).hexdigest() == digest, argv


def _leaf_commands(parser, path=()):
    """Every leaf command path of an argparse parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, path + (name,))


def test_every_command_is_pinned():
    leaves = list(_leaf_commands(build_parser()))
    unpinned = [path for path in leaves
                if not any(tuple(argv[:len(path)]) == path for argv, _ in CLI_BATTERY)]
    assert unpinned == []
    assert len(leaves) == 17


def test_python_dash_m_polaris_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["build", "--preset", "Q4_2"]
    proc = subprocess.run([sys.executable, "-m", "polaris", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    digest = next(d for a, d in CLI_BATTERY if a == argv)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
