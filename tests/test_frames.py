import random
from itertools import combinations, permutations

import pytest

from polaris.errors import FrameError, GeometryError
from polaris.polar import (
    PartialFrame,
    PointSet,
    PolarSpace,
    _iter_bits,
    check_partial_frame,
    closure,
    enumerate_subspaces,
    extend_frame,
    find_partial_frame,
    frame_span,
    perp,
    radical_of_subspace,
    rank_of,
)

from oracles import (
    oracle_frame_completion,
    oracle_is_frame,
    oracle_orthogonality,
)


def w32_standard_frame(space):
    """A = {[e0], [e2]}, B = {[e1], [e3]} under the block alternating form."""
    W = space("W3_2")
    e = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    a = (W.points.index(e[0]), W.points.index(e[2]))
    b = (W.points.index(e[1]), W.points.index(e[3]))
    return W, a, b


def test_check_frame_standard(space):
    W, a, b = w32_standard_frame(space)
    fr = check_partial_frame(W, a, b)
    assert fr.rank == 2
    # matching: a_i collinear with b_j iff i != j
    for i, ai in enumerate(fr.a):
        for j, bj in enumerate(fr.b):
            assert ((W.adj[ai] >> bj) & 1) == (i != j)


def test_check_frame_rejects_small(space):
    W, a, b = w32_standard_frame(space)
    with pytest.raises(FrameError):
        check_partial_frame(W, a[:1], b[:1])


def test_check_frame_rejects_noncollinear_a(space):
    W = space("W3_2")
    p = 0
    q = next(i for i in range(15) if not (W.adj[p] >> i) & 1)
    r = next(i for i in range(15) if (W.adj[p] >> i) & 1 and i != p
             and not (W.adj[q] >> i) & 1)
    with pytest.raises(FrameError, match="F1"):
        check_partial_frame(W, (p, q), (r, 14))


@pytest.mark.parametrize("a,b,bad", [((-15, 3), (1, 7), -15), ((0, 3), (1, 22), 22)],
                         ids=["negative", "past-the-end"])
def test_check_frame_rejects_out_of_range_indices(a, b, bad, space):
    # -15 used to wrap to point 0 through adj[-15], and 22 to read as
    # "not collinear" with every point
    with pytest.raises(GeometryError, match=rf"point index {bad} out of range"):
        check_partial_frame(space("W3_2"), a, b)


def test_check_frame_matches_b_order(space):
    W, a, b = w32_standard_frame(space)
    fr = check_partial_frame(W, a, (b[1], b[0]))
    assert fr.b == b  # reordered to match a


def _check_verdict(sp, A, B):
    """B matched to A when check_partial_frame accepts (A, B), else None."""
    try:
        return check_partial_frame(sp, A, B).b
    except FrameError:
        return None


def _oracle_verdict(sp, points, orth, A, B):
    """The ordering of B that oracle_is_frame accepts against A, or None."""
    got = [P for P in permutations(B) if oracle_is_frame(sp.field, points, orth, A, P)]
    assert len(got) <= 1
    return got[0] if got else None


@pytest.mark.parametrize("name", ["W3_2", "Q4_2"])
def test_check_partial_frame_matches_oracle_on_every_2_set_pair(name, space, preset_oracle):
    # F1 and F2 alone decide; the oracle also tests F3 and F4 on vectors
    sp = space(name)
    points = preset_oracle(name)[0]
    orth = oracle_orthogonality(sp.form, points)
    N = len(points)
    accepted = 0
    for A in combinations(range(N), 2):
        for B in combinations([i for i in range(N) if i not in A], 2):
            want = _oracle_verdict(sp, points, orth, A, B)
            assert _check_verdict(sp, A, B) == want, (A, B)
            accepted += want is not None
    assert accepted > 0


def sample_partial_frame(space: PolarSpace, k: int, rng) -> PartialFrame | None:
    """One random hyperbolic-chain draw from the whole space; None when
    the draw dead-ends.  Deterministic given the rng state.  The common
    perp never meets <A> or <B> (see `check_partial_frame`), so the
    candidates need no span mask."""
    a_ids, b_ids = [], []
    common = space.all_bits
    for _ in range(k):
        cand_a = list(_iter_bits(common))
        if not cand_a:
            return None
        a = rng.choice(cand_a)
        cand_b = list(_iter_bits(common & ~space.adj[a]))
        if not cand_b:
            return None
        b = rng.choice(cand_b)
        a_ids.append(a)
        b_ids.append(b)
        common &= space.adj[a] & space.adj[b]
    return check_partial_frame(space, a_ids, b_ids)


def sample_random_frame(sp, k, rng):
    """Random hyperbolic pair chain; None if the draw dead-ends."""
    fr = sample_partial_frame(sp, k, rng)
    return None if fr is None else (fr.a, fr.b)


@pytest.mark.parametrize("name", ["Q6_2", "W5_2"])
def test_check_partial_frame_matches_oracle_on_sampled_3_sets(name, space, preset_oracle):
    # random rank-3 frames, half of them with one point moved to another
    # point collinear with the rest of its side, so F1 still holds
    sp = space(name)
    points = preset_oracle(name)[0]
    orth = oracle_orthogonality(sp.form, points)
    rng = random.Random(13)
    verdicts = []
    while len(verdicts) < 200:
        fr = sample_partial_frame(sp, 3, rng)
        if fr is None:
            continue
        A, B = list(fr.a), list(fr.b)
        rng.shuffle(B)
        if rng.random() < 0.5:
            side = rng.choice((A, B))
            i = rng.randrange(3)
            rest = [p for j, p in enumerate(side) if j != i]
            side[i] = rng.choice(list(_iter_bits(perp(sp, rest).bits
                                                 & ~PointSet.of(sp, rest).bits)))
        want = _oracle_verdict(sp, points, orth, A, B)
        assert _check_verdict(sp, A, B) == want, (A, B)
        verdicts.append(want is not None)
    assert 20 < sum(verdicts) < 180


FRAME_SPACES = ["W3_2", "Sp4_3", "Q4_2", "Q4_3", "Qm5_2", "Qp5_2",
                "H3_4", "H4_4", "Q6_2", "W5_2", "Qp3_2", "Qp3_4"]


@pytest.mark.parametrize("name", FRAME_SPACES)
def test_sampled_frames_satisfy_all_axioms(name, space):
    # F3 and F4 must hold for every valid sampled frame, and the frame
    # span must come out non-degenerate of the frame's rank.
    sp = space(name)
    rng = random.Random(97)
    found = 0
    for k in range(2, sp.n + 1):
        attempts = 0
        while found < 25 * (k - 1) and attempts < 400:
            attempts += 1
            got = sample_random_frame(sp, k, rng)
            if got is None:
                continue
            fr = check_partial_frame(sp, got[0], got[1])  # F1..F4 inside
            span = frame_span(sp, fr)                      # rank k, no radical
            assert rank_of(sp, span) == k
            assert radical_of_subspace(sp, span).bits == 0
            found += 1
    assert found > 0


def test_extend_frame_identity_on_complete(space):
    W = space("W3_2")
    fr = find_partial_frame(W, W.all_bits, 2)
    assert extend_frame(W, fr) is fr


def test_extend_frame_q62(space):
    Q = space("Q6_2")
    fr2 = find_partial_frame(Q, Q.all_bits, 2)
    fr3 = extend_frame(Q, fr2)
    assert fr3.rank == 3
    assert set(fr2.a) <= set(fr3.a) and set(fr2.b) <= set(fr3.b)
    # revalidates all axioms
    check_partial_frame(Q, fr3.a, fr3.b)


def test_extend_frame_many_random(space):
    for name in ("Q6_2", "W5_2", "Qp5_2"):
        sp = space(name)
        rng = random.Random(5)
        done = 0
        while done < 10:
            got = sample_random_frame(sp, 2, rng)
            if got is None:
                continue
            fr = check_partial_frame(sp, got[0], got[1])
            full = extend_frame(sp, fr)
            assert full.rank == sp.n
            assert set(fr.a) <= set(full.a)
            done += 1


@pytest.mark.parametrize("name", ["Q6_2", "W5_2", "Qp5_2"])
def test_extend_frame_matches_completion_oracle(name, space, preset_oracle):
    # the completion is the oracle's lexicographically first frame with
    # the given first pairs, over points and orthogonality of its own
    sp = space(name)
    points = preset_oracle(name)[0]
    orth = oracle_orthogonality(sp.form, points)
    rng = random.Random(11)
    done = 0
    while done < 30:
        fr = sample_partial_frame(sp, 2, rng)
        if fr is None:
            continue
        full = extend_frame(sp, fr)
        assert (full.a, full.b) == oracle_frame_completion(
            sp.field, points, orth, sp.n, fr.a, fr.b), (fr.a, fr.b)
        done += 1


@pytest.mark.parametrize("name,count", [("W3_2", 11), ("Q4_2", 11), ("Qm5_2", 157),
                                        ("Qp5_2", 310)])
def test_find_partial_frame_matches_oracle_on_every_nondegenerate_subspace(
        name, count, space, preset_oracle):
    # the greedy loop never backtracks: on every non-degenerate subspace S
    # of rank >= k it returns the backtracking oracle's first frame in S;
    # `count` is the number of such (S, k)
    sp = space(name)
    points = preset_oracle(name)[0]
    orth = oracle_orthogonality(sp.form, points)
    cases = 0
    for S in enumerate_subspaces(sp):
        if radical_of_subspace(sp, S).bits:
            continue
        for k in range(2, rank_of(sp, S) + 1):
            fr = find_partial_frame(sp, S, k)
            assert (fr.a, fr.b) == oracle_frame_completion(
                sp.field, points, orth, k, (), (), within=S.indices()), (S, k)
            cases += 1
    assert cases == count


def test_find_partial_frame_golden(space):
    # deterministic: the lexicographically first chain in W(3,2)
    W = space("W3_2")
    fr = find_partial_frame(W, W.all_bits, 2)
    again = find_partial_frame(W, W.all_bits, 2)
    assert (fr.a, fr.b) == (again.a, again.b)
    assert fr.a[0] == 0  # starts from the lowest point
    assert (fr.a, fr.b) == ((0, 3), (1, 7))


def test_find_frame_inside_grid(space):
    Q = space("Q4_2")
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    fr = find_partial_frame(Q, grid, 2)
    assert fr.point_set().bits & ~grid.bits == 0


def test_find_frame_rejects_degenerate(space):
    W = space("W3_2")
    line = PointSet.of(W, W.lines[0])
    with pytest.raises(GeometryError):
        find_partial_frame(W, line, 2)


def test_frame_span_examples(space):
    W = space("W3_2")
    fr = find_partial_frame(W, W.all_bits, 2)
    g = frame_span(W, fr)
    assert len(g) == 9 and rank_of(W, g) == 2
    H = space("H3_4")
    frH = find_partial_frame(H, H.all_bits, 2)
    assert frame_span(H, frH).bits == H.all_bits
    Q = space("Q6_2")
    frQ = find_partial_frame(Q, Q.all_bits, 2)
    span2 = frame_span(Q, frQ)
    assert span2.bits != Q.all_bits
    assert rank_of(Q, span2) == 2
    assert radical_of_subspace(Q, span2).bits == 0
