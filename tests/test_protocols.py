"""Reference protocols: what is particular to each; `test_conformance.py`
checks what every registered protocol shares."""

import bisect
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from qcc_lab import harness, protocols
from qcc_lab.dj import promise_pairs
from qcc_lab.errors import InvariantError, PromiseViolationError, ProtocolError
from qcc_lab.harness import (ALICE, BOB, OUTCOMES, Action, RandomnessSpace, Scenario,
                             check_exact_blqms, cost_law, output_distribution,
                             run, sample_distribution)
from qcc_lab.oracle import JointProbs, SignVector, _sign_vector_law, joint_plus_probability
from qcc_lab.protocols import (PROTOCOL_NAMES, ConstantProtocol, SendAllReplyProtocol,
                               TonerBaconProtocol, _law, make_protocol)
from qcc_lab.reduction import partition_inputs


# --- send_all_reply ----------------------------------------------------------


def test_send_all_reply_n2_known_laws():
    p = SendAllReplyProtocol(2)
    same = output_distribution(p, SignVector.parse("++"), SignVector.parse("++"))
    assert same.p_pp == Fraction(1, 2)
    assert same == JointProbs(Fraction(1, 2), Fraction(0), Fraction(0),
                              Fraction(1, 2))
    differ = output_distribution(p, SignVector.parse("++"), SignVector.parse("+-"))
    assert differ.p_pp == 0
    assert differ == JointProbs(Fraction(0), Fraction(1, 2), Fraction(1, 2),
                                Fraction(0))


@pytest.mark.parametrize("n", [2, 4])
def test_send_all_reply_cost_is_constant(n):
    p = SendAllReplyProtocol(n)
    a = SignVector((1,) * n)
    for lam in p.lambda_space.points:
        rec = run(p, a, a, lam)
        assert rec.t == n + 1
        # transcript: Alice's n coordinate bits, then Bob's reply
        assert rec.transcript.entries[:n] == tuple(
            (rec.transcript.entries[0][0], bit) for bit in a.to_bits())


def test_send_all_reply_law_matches_quantum_oracle():
    n = 4
    p = SendAllReplyProtocol(n)
    a = SignVector.parse("++--")
    for b in (a, SignVector.parse("+-+-"), SignVector.parse("-+-+")):
        law = output_distribution(p, a, b)
        assert law.p_pp == joint_plus_probability(a, b)
        assert law.p_pp + law.p_pm == Fraction(1, n)
        assert law.p_pp + law.p_mp == Fraction(1, n)


def test_send_all_reply_rejects_bad_construction():
    with pytest.raises(InvariantError):
        SendAllReplyProtocol(3)
    # built directly, bypassing make_protocol: integers only
    for n in (4.0, True, "4"):
        with pytest.raises(InvariantError, match="parameter n must be an integer"):
            SendAllReplyProtocol(n)
    p = SendAllReplyProtocol(np.int64(2))
    assert type(p.n) is int and len(p.lambda_space) == 8


def test_send_all_reply_enforces_promise():
    p = SendAllReplyProtocol(4)
    a = SignVector.parse("++++")
    b = SignVector.parse("+++-")  # dot = 2
    with pytest.raises(PromiseViolationError):
        run(p, a, b, p.lambda_space.points[0])
    with pytest.raises(PromiseViolationError):
        p.outcome_table(a, b)
    with pytest.raises(InvariantError):
        run(p, SignVector.parse("++"), SignVector.parse("++"),
            p.lambda_space.points[0])  # wrong length
    # the same signs as a tuple are refused, not coerced
    for call in (lambda: run(p, (1, 1, 1, 1), a, p.lambda_space.points[0]),
                 lambda: p.exact_distribution(a, (1, 1, 1, 1))):
        with pytest.raises(InvariantError, match="send_all_reply takes SignVector inputs"):
            call()


def test_send_all_reply_bob_checks_the_heard_bits():
    """A heard tuple that is not all bits is refused on every call and never
    enters Bob's map, also when it is unhashable."""
    p = SendAllReplyProtocol(4)
    b = SignVector.parse("++++")
    lam = p.lambda_space.points[0]
    for heard in ((1, 1, 2, 1), (1, -1, 1, 1), (1, 1, 1, 1.5), (1, [1], 1, 1)):
        for _ in range(2):
            with pytest.raises(InvariantError, match="0/1"):
                p.step(BOB, b, lam, heard)
    assert p._heard == {}
    with pytest.raises(PromiseViolationError, match="a.b = 2"):
        p.step(BOB, b, lam, (1, 1, 1, 0))  # heard +++-
    with pytest.raises(InvariantError):
        p.step(BOB, SignVector.parse("++"), lam, (1, 1, 1, 1))  # wrong length
    assert p.step(BOB, b, lam, (1, 1, 1)) == Action()  # still listening
    assert p.step(BOB, b, lam, (1, 1, 1, 1)) == Action((1,), output=1)


def test_send_all_reply_shares_frozen_actions():
    """The wait, Alice's outputs, Bob's replies and one send per vector are
    shared frozen Actions; a heard bit that is not an int 0/1 is checked afresh."""
    n = 4
    p = SendAllReplyProtocol(n)
    vectors = list(SignVector.all_vectors(n))
    lams = p.lambda_space.points
    sends = [p.step(ALICE, a, lams[0], ()) for a in vectors]
    assert sends == [Action(a.to_bits()) for a in vectors]
    for a, send in zip(vectors, sends):  # a fresh equal vector, another point
        assert p.step(ALICE, SignVector(a.coords), lams[-1], ()) is send
    assert len(set(map(id, sends))) == len(p._sends) == 2**n
    a = vectors[5]
    outputs = [p.step(ALICE, a, lams[0], (bit,)) for bit in (0, 1)]
    assert outputs == [Action(output=-1), Action(output=1)]
    assert p.step(ALICE, vectors[9], lams[7], (1, 0)) is outputs[1]
    replies = {p.step(BOB, a, lam, a.to_bits()) for lam in lams}  # a.b = n
    replies |= {p.step(BOB, a, lam, vectors[3].to_bits()) for lam in lams}  # a.b = 0
    assert len(replies) == 4 and len(set(map(id, replies))) == 4
    wait = p.step(BOB, a, lams[0], (1, 0))
    assert wait == Action() and p.step(BOB, vectors[2], lams[9], ()) is wait
    for action in (*sends, *outputs, *replies, wait):
        with pytest.raises(FrozenInstanceError):
            action.send = (0,)
        with pytest.raises(FrozenInstanceError):
            action.output = 1
    assert sends == [Action(a.to_bits()) for a in vectors]
    # heard bits that are not an int 0/1 build their own Action, whose checks refuse them
    assert p.step(ALICE, a, lams[0], (True,)) == Action(output=1)
    for bit, shown in ((2, "3"), (-1, "-3"), (1.0, "1.0"), (np.int64(0), repr(np.int64(-1)))):
        refusal = f"output must be the int \\+1 or -1, got {re.escape(shown)}$"
        with pytest.raises(ProtocolError, match=refusal):
            p.step(ALICE, a, lams[0], (bit,))


def test_send_all_reply_bob_reads_the_dot_from_bits():
    """Bob's a.b from the heard bits is the dot of the decoded vector, so he
    refuses every pair off the promise; the conformance suite runs every
    promise pair at every point."""
    n = 4
    p = SendAllReplyProtocol(n)
    vectors = list(SignVector.all_vectors(n))
    for a, b in ((a, b) for a in vectors for b in vectors if a.dot(b) not in (0, n)):
        with pytest.raises(PromiseViolationError, match=f"a.b = {a.dot(b)}"):
            p.step(BOB, b, p.lambda_space.points[0], a.to_bits())


@pytest.mark.parametrize("n", [4, 6])
def test_send_all_reply_bob_maps_heard_bits_to_the_dot(n):
    """After a full partition Bob's map holds, per vector, its bits as the key and
    `SignVector.from_bits` of them as the value, whose `_dot` with Bob's vector is
    a.b on every promise pair; a refused tuple never enters it."""
    p = SendAllReplyProtocol(n)
    partition_inputs(p, n, n + 2)
    lam = p.lambda_space.points[0]
    refused = ((2,) * n, (1, -1) * (n // 2), (1.5,) + (1,) * (n - 1), ([1],) + (1,) * (n - 1))
    for heard in refused:
        with pytest.raises(InvariantError, match="0/1"):
            p.step(BOB, SignVector((1,) * n), lam, heard)
    vectors = list(SignVector.all_vectors(n))
    assert p._heard == {a.to_bits(): SignVector.from_bits(a.to_bits()) for a in vectors}
    assert all(b._dot(p._heard[a.to_bits()]) == a.dot(b) for a, b in promise_pairs(n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_send_all_reply_step_matches_fraction_bisect(n):
    """Bob's integer bisect against floor(lam n^3) picks the same outcome as
    bisecting the rational cuts c / n^3, for Fraction, int and float lam: at
    every grid point and midpoint k / (2 n^3), off the grid and on the cuts."""
    p = SendAllReplyProtocol(n)
    cube = n**3
    cut_points = [Fraction(c, cube) for dot in (0, n) for c in _law(n, dot).cuts]
    lams = list(p.lambda_space.points)
    lams += [Fraction(k, 2 * cube) for k in range(2 * cube)]
    lams += [Fraction(k, 7) for k in range(-1, 9)]
    lams += [-1, 0, 1, 2]
    lams += [k / cube for k in range(cube)] + [k / 7 for k in range(7)] + [-0.5, 1.5]
    lams += cut_points + [float(c) for c in cut_points]
    lams += [math.nextafter(float(c), side) for c in cut_points for side in (-1, 2)]
    a = SignVector((1,) * n)
    for b in (a, SignVector((1, -1) * (n // 2))):
        cuts = [Fraction(c, cube) for c in _law(n, a.dot(b)).cuts]
        for lam in lams:
            y_a, y_b = OUTCOMES[bisect.bisect_right(cuts, lam)]
            assert p.step(BOB, b, lam, a.to_bits()) == \
                Action(((1 + y_a) // 2,), output=y_b), lam


def test_law_cache_has_two_keys_per_n():
    """Every reader of send_all_reply's law shares one record per (n, a.b): over all
    18,176 promise pairs at n = 8 the cache holds two keys, and an off-promise
    key is refused by each reader and never kept."""
    _law.cache_clear()
    p = SendAllReplyProtocol(8)
    lam = p.lambda_space.points[100]
    for a, b in promise_pairs(8):
        p.exact_distribution(a, b)
        p.outcome_table(a, b)
        p.step(BOB, b, lam, a.to_bits())
    info = _law.cache_info()
    assert info.currsize == 2 and info.misses == 2 and info.hits == 3 * 18_176 - 2
    off = (SignVector.parse("++++++++"), SignVector.parse("+++++++-"))
    for refused in (lambda: p.step(BOB, off[0], lam, off[1].to_bits()),
                    lambda: p.exact_distribution(*off), lambda: p.outcome_table(*off)):
        with pytest.raises(PromiseViolationError, match="a.b = 6"):
            refused()
    assert _law.cache_info().currsize == 2  # a.b = 0 and a.b = n only
    run(SendAllReplyProtocol(4), SignVector.parse("++--"), SignVector.parse("++--"), 0)
    assert _law.cache_info().currsize == 3


def test_outcome_table_is_one_read_only_table_per_dot():
    """At each n and a.b the record's law is the law of its own read-only columns
    over the grid and the oracle's closed form, and pairs with equal n and a.b
    share its columns and its law."""
    for n in (2, 4, 6, 8):
        p = SendAllReplyProtocol(n)
        for dot in (0, n):
            record = _law(n, dot)
            assert record.probs == harness._law_of(p.lambda_space, *record.columns)
            assert record.probs == _sign_vector_law(n, dot)
            for column in record.columns:
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0
            pairs = [(a, b) for a, b in promise_pairs(n) if a.dot(b) == dot][:3]
            for a, b in pairs:
                assert p.outcome_table(a, b) is record.columns
                assert SendAllReplyProtocol(n).exact_distribution(a, b) is record.probs


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"),
                                 np.float32(0.5), "0.5", None])
def test_send_all_reply_refuses_a_point_that_is_not_finite(lam):
    """A point that is not a finite int, float or Fraction raises a lab error."""
    p = SendAllReplyProtocol(4)
    a = SignVector.parse("++--")
    kind = "finite" if isinstance(lam, float) else "an int, float or Fraction"
    refusal = re.escape(f"randomness point must be {kind}, got {lam!r}")
    with pytest.raises(InvariantError, match=refusal):
        p.step(BOB, a, lam, a.to_bits())
    with pytest.raises(InvariantError, match=refusal):
        run(p, a, a, lam)


# --- toner_bacon -------------------------------------------------------------


def one_shot_pairs(rng, count):
    """The reference sampler: one normal(size=(2, count, 3)) draw, each row
    over its norm."""
    draws = rng.normal(size=(2, count, 3))
    draws /= np.linalg.norm(draws, axis=-1, keepdims=True)
    return draws[0], draws[1]


def reference_outcomes(a, b, lam1, lam2):
    """toner_bacon's outputs on whole l1 and l2 arrays, as one vector step."""
    s1 = np.where(lam1 @ a >= 0, 1, -1)
    s2 = np.where(lam2 @ a >= 0, 1, -1)
    return -s1, np.where((lam1 + s1[:, None] * s2[:, None] * lam2) @ b >= 0, 1, -1)


class NormalsOnly:
    """A generator that offers nothing but `standard_normal`: a sampler that
    saves or restores `bit_generator.state` fails on it."""

    def __init__(self, rng):
        self.standard_normal = rng.standard_normal


BLOCK = protocols._BLOCK_ROWS
SPAN = 2**16  # a multiple of the block size: counts around it end on, before and past a block
assert SPAN % BLOCK == 0
BLOCK_COUNTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, SPAN - 1, SPAN, SPAN + 1, 3 * SPAN + 11)
TB_A, TB_B = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])


def test_row_norms_equal_linalg_norm_bit_for_bit():
    """The sampler's explicit row norms are `np.linalg.norm(rows, axis=-1)`
    exactly, at every scale from subnormal squares to overflow, and on zeros."""
    rows = np.random.default_rng(3).normal(size=(4, 5000, 3))
    rows *= np.array([1.0, 1e-160, 1e-300, 1e154])[:, None, None]
    rows[:, :10] = 0.0
    with np.errstate(over="ignore"):
        reference = np.linalg.norm(rows, axis=-1, keepdims=True)
        assert np.array_equal(protocols._norms(rows), reference)
    assert np.isinf(reference).any() and (reference == 0).any()


@pytest.mark.parametrize("count", BLOCK_COUNTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_sampler_matches_one_shot_draw(seed, count, monkeypatch):
    """With no zero norm the sampler reads 2 count rows, l1's then l2's, in
    blocks of at most `_BLOCK_ROWS`, through `standard_normal` alone: the
    one-shot draw's outputs, and the generator left in its end state; at
    count 0, three empty columns and no draw."""
    draw_rows, drawn = protocols._normal_rows, []

    def rows(rng, out):
        drawn.append(len(out))
        return draw_rows(rng, out)

    monkeypatch.setattr(protocols, "_normal_rows", rows)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    y_a, y_b, t = TonerBaconProtocol().batch_outcomes(TB_A, TB_B, NormalsOnly(rng), count)
    ref_a, ref_b = reference_outcomes(TB_A, TB_B, *one_shot_pairs(ref_rng, count))
    assert np.array_equal(y_a, ref_a) and np.array_equal(y_b, ref_b)
    assert y_a.dtype == y_b.dtype == np.int8
    assert t.shape == (count,) and (t == 1).all()
    assert sum(drawn) == 2 * count and max(drawn, default=0) <= BLOCK
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_block_sampler_allocates_ten_bytes_per_row():
    """Two one-byte outputs and one float b.l1 per row, plus a few blocks of
    temporaries: the traced peak over several blocks and a remainder.  The
    generator and a one-row call come first, so the lazy imports of a first
    generator or draw stay out of the traced window even when this runs alone."""
    count = 8 * BLOCK + 3
    rng = np.random.default_rng(4)
    TonerBaconProtocol().batch_outcomes(TB_A, TB_B, rng, 1)
    tracemalloc.start()
    try:
        TonerBaconProtocol().batch_outcomes(TB_A, TB_B, rng, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.5 blocks of rows of three doubles, 84 bytes per block row: the first pass's
    # buffer held through the second pass would take 97
    assert peak <= 10 * count + 7 * BLOCK * 3 * 8 // 2


# of the 2 (SPAN + 1) stream rows, l1's then l2's: in the first l1 block, in an
# l2 block past the first, and the one row of the last, partial block
@pytest.mark.parametrize("row", [0, SPAN + 1 + BLOCK + 5, 2 * SPAN + 1])
def test_block_sampler_refuses_a_zero_norm_row(row, monkeypatch):
    """A stream row of zero norm, which a true normal stream draws with
    probability about 2^-156, is refused wherever it falls, not redrawn."""
    draw_rows, drawn = protocols._normal_rows, [0]

    def rows(rng, out):
        out = draw_rows(rng, out)
        if 0 <= row - drawn[0] < len(out):
            out[row - drawn[0]] = 0.0
        drawn[0] += len(out)
        return out

    monkeypatch.setattr(protocols, "_normal_rows", rows)
    with pytest.raises(InvariantError, match="zero norm"):
        TonerBaconProtocol().batch_outcomes(TB_A, TB_B, np.random.default_rng(0), SPAN + 1)
    assert 0 < drawn[0] - row <= BLOCK  # refused at the zeroed row's block, not later


def test_toner_bacon_cost_column_is_one_read_only_entry():
    """Every draw costs one bit, so the sampler's cost column is a read-only
    stride-0 view of a single 1 rather than `count` stored ones."""
    count = 3 * BLOCK + 11
    _, _, t = TonerBaconProtocol().batch_outcomes(TB_A, TB_B, np.random.default_rng(5), count)
    assert t.shape == (count,) and t.strides == (0,) and t.dtype == np.int64
    assert not t.flags.writeable and (t == 1).all()
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 2
    stats = sample_distribution(TonerBaconProtocol(), TB_A, TB_B, samples=count, seed=5)
    assert stats.t_mean == 1.0 and stats.t_max == 1
    assert type(stats.t_mean) is float and type(stats.t_max) is int


def test_toner_bacon_perfect_anticorrelation_when_aligned():
    p = TonerBaconProtocol()
    a = (0.0, 1.0, 0.0)
    for lam in zip(*one_shot_pairs(np.random.default_rng(2), 100)):
        rec = run(p, a, a, lam)
        assert rec.y_a * rec.y_b == -1
        assert rec.t == 1


def test_toner_bacon_sampled_statistics():
    p = TonerBaconProtocol()
    a = (0.0, 0.0, 1.0)
    b = (1.0, 0.0, 0.0)  # orthogonal: zero correlation, zero marginals
    stats = sample_distribution(p, a, b, samples=40000, seed=17)
    sigma = 1 / 40000**0.5
    e_ab = (stats.probs.p_pp + stats.probs.p_mm
            - stats.probs.p_mp - stats.probs.p_pm)
    e_a = (stats.probs.p_pp + stats.probs.p_pm
           - stats.probs.p_mp - stats.probs.p_mm)
    assert abs(e_ab) < 4 * sigma
    assert abs(e_a) < 4 * sigma
    assert stats.t_max == 1 and stats.t_mean == 1.0


def test_toner_bacon_zero_sign_convention():
    p = TonerBaconProtocol()
    a = (1.0, 0.0, 0.0)
    lam = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))  # both orthogonal to a
    rec = run(p, a, a, lam)
    # sgn(0) = +1 twice: y_A = -1 and the channel bit c = +1
    assert rec.y_a == -1
    assert rec.transcript.tokens() == "A1"
    assert rec.y_b == 1  # sgn(a.(l1 + l2)) = sgn(0) = +1


def test_toner_bacon_rejects_non_unit_inputs():
    p = TonerBaconProtocol()
    lam = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    with pytest.raises(InvariantError):
        run(p, (1.0, 1.0, 0.0), (0.0, 0.0, 1.0), lam)
    with pytest.raises(InvariantError):
        run(p, (1.0, 0.0), (0.0, 0.0, 1.0), lam)


def test_toner_bacon_finite_space_falls_back_to_run(monkeypatch):
    """With no finite-space hook, a hand-built space of sphere pairs is
    enumerated through `run`, once per point."""
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-0.6, 0.0, 0.8))
    space = RandomnessSpace.uniform(tuple((l1, l2) for l1 in axes for l2 in axes))

    class OnAxes(TonerBaconProtocol):
        lambda_space = space

    p = OnAxes()
    a, b = (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)
    records = [run(p, a, b, lam) for lam in space.points]
    expected = JointProbs(*(Fraction(sum(r.y_a == y_a and r.y_b == y_b for r in records),
                                     len(records)) for y_a, y_b in OUTCOMES))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", counted)
    assert output_distribution(p, a, b) == expected
    assert calls == list(space.points)
    law = cost_law(p, a, b)
    assert (law.moment(1), law.moment(2)) == (1, 1)


# --- constant ---------------------------------------------------------------


def test_constant_protocol_runs():
    p = ConstantProtocol()
    rec = run(p, None, None, 0)
    assert (rec.y_a, rec.y_b, rec.t) == (1, 1, 0)
    assert rec.g == 1 and len(rec.transcript) == 0
    swapped = ConstantProtocol(y_a=-1, y_b=-1)
    rec2 = run(swapped, None, None, 0)
    assert rec2.g == 0
    with pytest.raises(InvariantError):
        ConstantProtocol(y_a=0)


def test_constant_outputs_are_integers():
    for kwargs, key in (({"y_a": True}, "y_a"), ({"y_b": 1.0}, "y_b"),
                        ({"y_a": "1"}, "y_a"), ({"y_b": 64.9}, "y_b"),
                        ({"y_a": np.int64(-1), "y_b": "x"}, "y_b")):
        with pytest.raises(InvariantError, match=f"parameter {key} must be an integer"):
            ConstantProtocol(**kwargs)
    p = ConstantProtocol(y_a=np.int64(-1))
    rec = run(p, None, None, 0)
    assert (rec.y_a, rec.y_b) == (-1, 1) and type(rec.y_a) is int


def test_constant_outcome_table_is_one_read_only_table_per_outputs():
    """Every pair of inputs, and every instance with the same outputs, shares one
    cached read-only one-point table; its law is read from the table once."""
    p, a, b = ConstantProtocol(y_b=-1), SignVector.parse("++"), SignVector.parse("+-")
    table = p.outcome_table(a, a)
    assert p.outcome_table(a, b) is table is ConstantProtocol(y_b=-1).outcome_table(None, None)
    assert ConstantProtocol().outcome_table(a, a) is not table
    assert [column.tolist() for column in table] == [[1], [-1], [0]]
    for column in table:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    law = output_distribution(p, a, a)
    assert law == JointProbs(0, 0, 1, 0) and output_distribution(p, a, b) is law


def test_constant_fails_on_two_distinct_targets():
    p = ConstantProtocol()
    scenarios = [
        Scenario(None, None, JointProbs(Fraction(1, 2), Fraction(0),
                                        Fraction(0), Fraction(1, 2))),
        Scenario(None, None, JointProbs(Fraction(0), Fraction(1, 2),
                                        Fraction(1, 2), Fraction(0))),
    ]
    report = check_exact_blqms(p, scenarios)
    assert report.all_full is False
    # a constant law cannot hit two different p_pp targets
    assert report.failures and not all(f.passed_restricted for f in report.failures)


# --- registry ---------------------------------------------------------------


def test_registry_names_and_dispatch():
    assert PROTOCOL_NAMES == ("constant", "send_all_reply", "toner_bacon")
    p = make_protocol("send_all_reply", n=2)
    assert isinstance(p, SendAllReplyProtocol) and len(p.lambda_space) == 8
    assert isinstance(make_protocol("toner_bacon"), TonerBaconProtocol)
    assert make_protocol("constant", y_a=-1).y_a == -1
    with pytest.raises(InvariantError):
        make_protocol("unknown")
    with pytest.raises(InvariantError):
        make_protocol("toner_bacon", n=4)
    with pytest.raises(InvariantError):
        make_protocol("send_all_reply")  # n is required
    with pytest.raises(InvariantError, match=r"does not accept parameters \['grid_size'\]"):
        make_protocol("send_all_reply", n=2, grid_size=16)  # the grid is always n^3
    assert make_protocol("send_all_reply", n=np.int64(2)).n == 2
    # parameters are integers: no float, bool or list is coerced
    for name, key, value in (("send_all_reply", "n", 4.7),
                             ("send_all_reply", "n", [4]),
                             ("send_all_reply", "n", True),
                             ("constant", "y_b", 64.9),
                             ("constant", "y_a", True),
                             ("constant", "y_b", -1.0)):
        params = {"n": 4, key: value} if name == "send_all_reply" else {key: value}
        with pytest.raises(InvariantError, match=f"parameter {key} must be an integer"):
            make_protocol(name, **params)
