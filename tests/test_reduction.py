"""Tail checks, greedy partitions, replay certificates, budget formulas."""

import ast
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcc_lab import cli, reduction
from qcc_lab.dj import (RejectCertificate, auy_min_n1, n0_upper_bound, n1_lower_bound,
                        promise_pairs)
from qcc_lab.errors import InvariantError, PartitionError, QccLabError
from qcc_lab.harness import (ALICE, BOB, Action, Protocol, RandomnessSpace, Scenario,
                             Transcript, _run_rows, check_exact_blqms, cost_law,
                             output_distribution, pair_label, run, sample_distribution,
                             tail_mass)
from qcc_lab.oracle import JointProbs, RationalMatrix, SignVector, sign_vector_projector
from qcc_lab.protocols import ConstantProtocol, SendAllReplyProtocol, TonerBaconProtocol
from qcc_lab.reduction import (DerandomizationTable, DjCertificate, Partition,
                               PartitionCell, build_certificate, cell_index_width,
                               certificate_reference_bits,
                               check_tail_hypothesis, contradiction_holds,
                               contradiction_threshold, m_of_n, moment_bound,
                               moment_bound_forms, partition_inputs,
                               verify_certificate)


class SlowHalf(Protocol):
    """Accepts everywhere; costs 0 bits on lam=0 and 3 bits on lam=1."""

    name = "slow_half"
    lambda_space = RandomnessSpace.uniform((0, 1))

    def step(self, party, own, lam, received):
        if party is ALICE:
            if lam == 0:
                return Action(output=1)
            return Action((1, 1, 1), output=1)
        if lam == 0:
            return Action(output=1)
        if len(received) < 3:
            return Action()
        return Action(output=1)


class FourWindow(Protocol):
    """Accepts exactly when lam equals the two-bit value of the input."""

    name = "four_window"
    lambda_space = RandomnessSpace.uniform((0, 1, 2, 3))

    def step(self, party, own, lam, received):
        bits = own.to_bits()
        return Action(output=1 if lam == bits[0] * 2 + bits[1] else -1)


class CapCounting(FourWindow):
    """FourWindow that counts the bit-budget requests of the generic runner."""

    def __init__(self):
        self.cap_requests = 0

    def default_cap(self, input_a, input_b):
        self.cap_requests += 1
        return super().default_cap(input_a, input_b)


def test_default_cap_is_asked_once_per_input_pair():
    """Not once per randomness point or per sample."""
    p = CapCounting()
    partition_inputs(p, 2, 1)
    assert p.cap_requests == 4  # one per vector; 16 runs
    a, b = SignVector.parse("+-"), SignVector.parse("--")
    for audit in (lambda: output_distribution(p, a, b),
                  lambda: sample_distribution(p, a, b, samples=40, seed=0)):
        p.cap_requests = 0
        audit()
        assert p.cap_requests == 1


_Z = (0.0, 0.0, 1.0)
_HALF = Fraction(1, 2)
EXACT_AUDITS = {
    "output_distribution": lambda p: output_distribution(p, _Z, _Z),
    "cost_law": lambda p: cost_law(p, _Z, _Z),
    "tail_mass": lambda p: tail_mass(p, _Z, _Z, 1),
    "check_exact_blqms": lambda p: check_exact_blqms(
        p, [Scenario(_Z, _Z, JointProbs(0, _HALF, _HALF, 0))]),
    "check_tail_hypothesis": lambda p: check_tail_hypothesis(p, 2, 3),
    "partition_inputs": lambda p: partition_inputs(p, 2, 3),
}


@pytest.mark.parametrize("audit", EXACT_AUDITS.values(), ids=EXACT_AUDITS.keys())
def test_exact_audits_refuse_a_sampled_randomness_space(audit):
    """Every exact audit enumerates the protocol's own space, so one that
    can only be sampled is refused up front, not half-way through."""
    with pytest.raises(InvariantError, match="needs a finite RandomnessSpace"):
        audit(TonerBaconProtocol())


def test_cell_index_width():
    assert cell_index_width(2) == 3
    assert cell_index_width(4) == 5
    assert cell_index_width(6) == 7
    with pytest.raises(InvariantError):
        cell_index_width(1)


def test_tail_hypothesis_send_all_reply():
    p = SendAllReplyProtocol(4)
    good = check_tail_hypothesis(p, 4, 6)
    assert good.ok and good.worst_mass == 0
    assert good.mass_bound == Fraction(1, 8)
    assert good.pairs_checked == 112
    tight = check_tail_hypothesis(p, 4, 5)  # T = 5 on every run
    assert not tight.ok and tight.worst_mass == 1


def test_tail_hypothesis_mass_accounting():
    p = SlowHalf()
    a = SignVector.parse("++++")
    report = check_tail_hypothesis(p, 4, 3, pairs=[(a, a)])
    assert report.worst_mass == Fraction(1, 2)
    assert not report.ok and report.pairs_checked == 1
    assert check_tail_hypothesis(p, 4, 4, pairs=[(a, a)]).ok
    with pytest.raises(InvariantError, match="no pairs"):
        check_tail_hypothesis(p, 4, 4, pairs=[])
    # any iterable of pairs, counted as it is consumed
    streamed = check_tail_hypothesis(p, 4, 3, pairs=((a, a) for _ in range(3)))
    assert streamed.pairs_checked == 3 and streamed.worst_mass == Fraction(1, 2)
    with pytest.raises(InvariantError, match="no pairs to check; an empty tail check "
                                             "would pass vacuously"):
        check_tail_hypothesis(p, 4, 4, pairs=iter(()))


def test_tail_hypothesis_streams_the_default_pairs(monkeypatch):
    """Each default promise pair is checked as it is generated: the
    generator is one pair ahead of the check at most, never drained up front."""
    yielded = []

    def counting_pairs(n):
        for pair in promise_pairs(n):
            yielded.append(pair)
            yield pair

    lead = []

    def recording_cost_law(protocol, input_a, input_b):
        lead.append(len(yielded))
        assert yielded[-1] == (input_a, input_b)
        return cost_law(protocol, input_a, input_b)

    monkeypatch.setattr(reduction, "promise_pairs", counting_pairs)
    monkeypatch.setattr(reduction, "cost_law", recording_cost_law)
    report = check_tail_hypothesis(SendAllReplyProtocol(4), 4, 6)
    assert report.ok and report.pairs_checked == 112 == len(yielded)
    assert lead == list(range(1, 113))


class CostFromInput(Protocol):
    """Alice sends input_a[lam] bits, then both output +1: each pair's cost
    on each randomness point is read from Alice's input."""

    name = "cost_from_input"
    lambda_space = RandomnessSpace.uniform((0, 1))

    def step(self, party, own, lam, received):
        if party is ALICE:
            return Action((0,) * own[lam], output=1)
        return Action(output=1)


@pytest.mark.parametrize("costs,worst,named", [
    ([(0, 0), (1, 1), (0, 1)], 0, "(0, 0)|p1"),  # all masses 0: the first pair
    ([(0, 1), (2, 0), (0, 3), (1, 1)], Fraction(1, 2), "(2, 0)|p2"),  # first of a tie
    ([(2, 0), (0, 3), (2, 2), (3, 0)], 1, "(2, 2)|p3"),  # a later, strictly worse pair
], ids=["all zero", "tie", "later worse"])
def test_tail_hypothesis_names_the_first_pair_of_the_worst_mass(costs, worst, named):
    pairs = [(cost, f"p{i}") for i, cost in enumerate(costs, start=1)]
    report = check_tail_hypothesis(CostFromInput(), 2, 2, pairs=pairs)
    assert (report.worst_mass, report.worst_pair) == (worst, named)
    assert type(report.worst_mass) is Fraction
    assert report.ok is (worst < Fraction(1, 4)) and report.pairs_checked == len(costs)


def test_partition_tie_break_order():
    part = partition_inputs(FourWindow(), 2, 1)
    assert part.cell_count == 4
    assert not part.within_bound == (part.cell_count > 8)
    for j, text in enumerate(("--", "-+", "+-", "++")):
        assert part.cells[j].lam == j
        assert part.cells[j].vectors == (SignVector.parse(text),)



class Overlapping(Protocol):
    """A seeded acceptance table over the n = 4 inputs and `points` points (six
    by default): Bob outputs +1 iff the input's entry at the point is set.
    Alice sends two bits at odd points, so a budget of 2 bits rejects those;
    with `even_accept`, each input's entry is also set at one drawn even point,
    so every input accepts somewhere at any budget.  Every input and point the
    runner tries is logged in call order."""

    name = "overlapping"

    def __init__(self, seed, density, points=6, even_accept=False):
        rng = random.Random(seed)
        self.lambda_space = RandomnessSpace.uniform(range(points))
        self.table = {v.coords: [rng.random() < density for _ in range(points)]
                      for v in SignVector.all_vectors(4)}
        if even_accept:
            for row in self.table.values():
                row[2 * rng.randrange((points + 1) // 2)] = True
        self.calls = []

    def step(self, party, own, lam, received):
        if party is ALICE:
            self.calls.append((own.coords, lam))
            return Action((1, 1) if lam % 2 else (), output=1)
        if lam % 2 and len(received) < 2:
            return Action()
        return Action(output=1 if self.table[own.coords][lam] else -1)


class RandomRounds(Protocol):
    """A seeded interactive protocol over 8 uniform points whose cost depends on
    the input.  At point lam Alice plays R(lam, a) in {1, 2, 3} rounds; a round
    is one Alice flag bit, "another round follows", then one seeded Bob bit.  Bob
    halts with a seeded output after answering a 0 flag, and Alice halts with a
    seeded output after that answer, so T = 2R.  R is a seeded table over the
    length-n inputs.  Every bit and output is a seeded function of (own vector,
    lam, bits heard), drawn once per instance; an output is +1 with chance 3/4.
    Alice's asks are logged in call order."""

    name = "random_rounds"
    lambda_space = RandomnessSpace.uniform(range(8))

    def __init__(self, seed, n):
        rng = random.Random(seed)
        self.rounds = {v.coords: [rng.choice((1, 2, 3)) for _ in range(8)]
                       for v in SignVector.all_vectors(n)}
        self.seed, self.calls, self.draws = seed, [], {}

    def _draw(self, *key) -> float:
        if key not in self.draws:
            self.draws[key] = random.Random(repr((self.seed, *key))).random()
        return self.draws[key]

    def _output(self, party, own, lam, received) -> int:
        return 1 if self._draw("output", party.value, own.coords, lam, received) < 0.75 else -1

    def step(self, party, own, lam, received):
        if party is ALICE:
            self.calls.append((own.coords, lam, received))
            rounds = self.rounds[own.coords][lam]
            if len(received) < rounds:
                return Action((int(len(received) + 1 < rounds),))
            return Action(output=self._output(party, own, lam, received))
        bit = int(self._draw("bit", own.coords, lam, received) < 0.5)
        if received[-1:] == (1,):
            return Action((bit,))
        return Action((bit,), output=self._output(party, own, lam, received))


class SilentAlice(Protocol):
    """Alice halts at her first ask without sending, with +1 iff she has heard
    nothing; Bob sends his input's two bits and halts with +1.  So Alice halts
    silently while Bob still transmits, and a replay that hands her Bob's bits
    makes her output -1."""

    name = "silent_alice"
    lambda_space = RandomnessSpace.uniform((0,))

    def step(self, party, own, lam, received):
        if party is ALICE:
            return Action(output=-1 if received else 1)
        return Action(own.to_bits(), output=1)


def reference_partition(protocol, n, threshold_bits):
    """The greedy partition as it was with a dict of acceptor sets: the
    reference semantics."""
    space = protocol.lambda_space
    vectors = list(SignVector.all_vectors(n))
    acceptors = {}
    for vec in vectors:
        good = set()
        for index, lam in enumerate(space.points):
            record = run(protocol, vec, vec, lam)
            if record.g == 1 and record.t < threshold_bits:
                good.add(index)
        if not good:
            raise PartitionError(
                f"input {vec.to_text()} accepts nowhere below {threshold_bits} bits",
                witness=vec)
        acceptors[vec.coords] = good

    remaining = list(vectors)
    cells = []
    while remaining:
        best_index, best_count = -1, 0
        for index in range(len(space)):
            count = sum(1 for vec in remaining if index in acceptors[vec.coords])
            if count > best_count:  # ties keep the lowest index
                best_index, best_count = index, count
        members = tuple(v for v in remaining if best_index in acceptors[v.coords])
        cells.append(PartitionCell(members, best_index, space.points[best_index]))
        remaining = [v for v in remaining if best_index not in acceptors[v.coords]]
    return Partition(n, threshold_bits, tuple(cells))


def _partition_outcome(partitioner, protocol, n, threshold):
    """A partition's cells, or its error's message and witness."""
    try:
        return partitioner(protocol, n, threshold).cells
    except PartitionError as exc:
        return str(exc), exc.witness


# each shape builds a protocol on the n = 4 inputs from a seed and a density,
# and names the budgets drawn for it
PARTITION_SHAPES = {
    "overlapping, 6 points": (lambda seed, density: Overlapping(seed, density), (2, 3)),
    "overlapping, 12 points": (lambda seed, density: Overlapping(seed, density, 12, True),
                               (2, 3)),
    "random rounds": (lambda seed, density: RandomRounds(seed, 4), (3, 5, 7)),
}


@settings(max_examples=90, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from((0.1, 0.3, 0.5, 0.8)),
       shape=st.sampled_from(sorted(PARTITION_SHAPES)), data=st.data())
def test_partition_matches_reference_greedy(seed, density, shape, data):
    """Cells, their order, members and points, failures and the run calls
    agree with the dict-of-sets reference greedy, and a partition stays within
    the greedy cover bound of its least acceptance mass.  The six-point tables
    can fail to cover; the twelve-point ones accept every input at an even point,
    so they always partition, into up to six cells.  `RandomRounds` costs 2, 4
    or 6 bits by input and point, so its budgets 3, 5 and 7 admit one, two or
    three round counts."""
    build, budgets = PARTITION_SHAPES[shape]
    threshold = data.draw(st.sampled_from(budgets), label="threshold")
    got_protocol, expected_protocol = build(seed, density), build(seed, density)
    got = _partition_outcome(partition_inputs, got_protocol, 4, threshold)
    expected = _partition_outcome(reference_partition, expected_protocol, 4, threshold)
    assert got == expected
    assert got_protocol.calls == expected_protocol.calls
    if isinstance(got, tuple) and isinstance(got[0], PartitionCell):
        assert all(type(cell.lam_index) is int for cell in got)
        # each pick covers at least the fraction a/d of the inputs left, a/d being the
        # least acceptance mass, so fewer than one of the 16 is left after k picks
        # once 16 (d - a)^k < d^k; checked in integers
        space = got_protocol.lambda_space
        d = space.den
        a = min(sum(space.numerators[(y_a == 1) & (y_b == 1) & (t < threshold)])
                for y_a, y_b, t in (_run_rows(got_protocol, v, v, space.points)
                                    for v in SignVector.all_vectors(4)))
        k = 1
        while 16 * (d - a) ** k >= d**k:
            k += 1
        assert len(got) <= k


def test_partition_overlapping_cells_match_reference():
    """A first pick that covers several inputs, and the one-input cells of
    FourWindow, come out as the reference builds them."""
    part = partition_inputs(Overlapping(seed=0, density=0.5), 4, 3)
    assert [len(cell.vectors) for cell in part.cells] == [9, 5, 1, 1]
    assert [cell.lam_index for cell in part.cells] == [2, 5, 0, 1]
    assert part.cells == reference_partition(Overlapping(0, 0.5), 4, 3).cells
    assert (partition_inputs(FourWindow(), 2, 1).cells
            == reference_partition(FourWindow(), 2, 1).cells)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 4)),
       budget=st.sampled_from((3, 5, 7)))
def test_tail_check_matches_run_when_the_cost_varies(seed, n, budget):
    """`check_tail_hypothesis` on `RandomRounds` against a `Fraction` enumeration
    of `run` over every promise pair: the worst mass, the first pair in pair
    order that reaches it, `ok` and the pair count.  Its costs are even, so each
    odd budget M is also checked at M - 1, where a cost equals the threshold and
    mass(T >= M) is not mass(T > M)."""
    protocol = RandomRounds(seed, n)
    space = protocol.lambda_space
    weights = [Fraction(w, space.den) for w in space.numerators]
    pairs = list(promise_pairs(n))
    costs = [[run(protocol, a, b, lam).t for lam in space.points] for a, b in pairs]
    for threshold in (budget - 1, budget):
        masses = [sum(w for t, w in zip(row, weights) if t >= threshold) for row in costs]
        worst = max(masses)
        report = check_tail_hypothesis(protocol, n, threshold)
        assert report.worst_mass == worst and type(report.worst_mass) is Fraction
        assert report.worst_pair == pair_label(*pairs[masses.index(worst)])
        assert report.ok is (worst < Fraction(1, 2 * n))
        assert report.pairs_checked == len(pairs)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 4)))
def test_joint_acceptance_is_the_run_on_the_pair_at_every_point(seed, n):
    """The rectangle property on `RandomRounds`, at every point lam and every
    reject pair (a, b): a's diagonal run at lam, certified with index 1 in a
    one-entry table, is accepted by Alice's replay on a and Bob's replay on b iff
    `run(a, b, lam)` writes the same transcript and outputs (+1, +1).  Some pair
    is jointly accepted, so the check is not vacuous."""
    protocol = RandomRounds(seed, n)
    jointly_accepted = 0
    for lam in protocol.lambda_space.points:
        table = DerandomizationTable(n, (lam,))
        for a, b in promise_pairs(n):
            if a == b:
                continue
            cert = DjCertificate(n, 1, run(protocol, a, a, lam).transcript)
            accepted = bool(verify_certificate(ALICE, a, cert, table, protocol)
                            and verify_certificate(BOB, b, cert, table, protocol))
            record = run(protocol, a, b, lam)
            expected = record.transcript == cert.transcript and record.g == 1
            assert accepted == expected, (a.to_text(), b.to_text(), lam)
            jointly_accepted += accepted
    assert jointly_accepted


def test_partition_failure_witness():
    p = ConstantProtocol(y_a=-1, y_b=-1)
    with pytest.raises(PartitionError) as excinfo:
        partition_inputs(p, 2, 4)
    assert excinfo.value.witness == SignVector.parse("--")
    assert "accepts nowhere" in str(excinfo.value)


def test_certificate_replay_that_breaks_the_cell_promise_is_a_finding():
    """A cell whose point no longer accepts its member is refused, naming it."""
    vectors = tuple(SignVector.all_vectors(2))
    # at 7/8 equal inputs of n = 2 run to (-1, -1)
    part = Partition(2, 4, (PartitionCell(vectors, 7, Fraction(7, 8)),))
    with pytest.raises(PartitionError, match=r"replay broke the cell promise for \+\+") as info:
        build_certificate(vectors[-1], part, SendAllReplyProtocol(2))
    assert info.value.witness == vectors[-1]


def test_partition_json_and_locator():
    p = SendAllReplyProtocol(2)
    part = partition_inputs(p, 2, 4)
    assert part.cell_count == 1 and part.within_bound is True
    assert part.table().digest == DerandomizationTable(2, (Fraction(0),)).digest
    (cell,) = part.cells
    assert cell.lam_index == 0 and cell.lam == 0 and type(cell.lam) is Fraction
    assert set(cell.vectors) == set(SignVector.all_vectors(2))
    assert all(part.cell_of(v) == (1, cell) for v in SignVector.all_vectors(2))
    with pytest.raises(InvariantError):
        part.cell_of(SignVector.parse("++--"))


def test_derandomization_table_digest():
    table = DerandomizationTable(2, (Fraction(0), Fraction(1, 2)))
    expected = hashlib.sha256(b"n=2;0/1;1/2").hexdigest()
    assert table.digest == expected
    assert len(table) == 2
    other = DerandomizationTable(2, (Fraction(0), Fraction(3, 4)))
    assert other.digest != table.digest
    ints = DerandomizationTable(2, (0, 1, 2, 3))
    assert ints.digest == hashlib.sha256(b"n=2;0;1;2;3").hexdigest()
    with pytest.raises(InvariantError, match="cannot canonicalize randomness point 0.5"):
        DerandomizationTable(2, (0, 0.5)).digest


def _pinned_table_digests() -> dict:
    """The benchmark's TABLE_DIGESTS literal, read from `perfbench/workloads.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (value,) = (node.value for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "TABLE_DIGESTS")
    return ast.literal_eval(value)


def test_sha256_matches_hashlib_at_every_padding_edge():
    """Every length from 0 to 130 bytes: one and two blocks, and the 55/56
    and 64-byte edges where the length field moves to a new block."""
    rng = random.Random(0)
    for length in range(131):
        data = bytes(rng.randrange(256) for _ in range(length))
        assert reduction._sha256_hex(data) == hashlib.sha256(data).hexdigest(), length


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.binary(max_size=300))
def test_sha256_matches_hashlib_on_drawn_bytes(data):
    assert reduction._sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_pinned_table_digests_are_the_sha256_of_their_bodies():
    """The single-cell send_all_reply tables the benchmark pins, n = 4 and 6 among them."""
    pinned = _pinned_table_digests()
    assert {4, 6} <= set(pinned)
    for n, digest in pinned.items():
        body = f"n={n};0/1".encode()
        assert hashlib.sha256(body).hexdigest() == digest
        assert DerandomizationTable(n, (Fraction(0),)).digest == digest


def test_certificate_bit_lengths():
    empty = Transcript(())
    assert DjCertificate(2, 1, empty).bit_length == 3
    three = Transcript(((ALICE, 1), (ALICE, 1), (BOB, 1)))
    assert DjCertificate(2, 1, three).bit_length == 9
    five = Transcript(((ALICE, 1),) * 4 + ((BOB, 0),))
    assert DjCertificate(4, 1, five).bit_length == 15


def test_certificate_construction_limits():
    with pytest.raises(InvariantError):
        DjCertificate(2, 9, Transcript(()))  # 3-bit field holds 1..8
    DjCertificate(2, 8, Transcript(()))
    # n and j are integers before any comparison: no float or bool passes
    for n, j in ((4, 1.5), (4, 2.0), (4, True), (4.0, 1), (True, 1), (4, "1")):
        with pytest.raises(InvariantError,
                           match=r"DjCertificate parameter [nj] must be an integer"):
            DjCertificate(n, j, Transcript(()))
    cert = DjCertificate(np.int64(4), np.int64(3), Transcript(()))
    assert cert == DjCertificate(4, 3, Transcript(()))
    assert type(cert.n) is int and type(cert.j) is int


def test_honest_certificates_stay_within_the_reference_length():
    """A run below budget M sends at most M - 1 bits, so an honest certificate is
    at most the index width plus 2 (M - 1) bits; `reduce`'s verdict does not read
    `within_reference` because this holds, so a change to either side fails here."""
    for n in range(2, 2001, 2):
        width = cell_index_width(n)
        for budget in range(1, 200):
            assert width + 2 * (budget - 1) <= certificate_reference_bits(n, budget), (n, budget)


REDUCE_HEADER = ["command", "protocol", "n", "M", "seed"]
REDUCE_CASES = {
    "send_all_reply n=2": (["send_all_reply", "--n", "2"], SendAllReplyProtocol(2), 2, 4, True),
    "send_all_reply n=4": (["send_all_reply", "--n", "4"], SendAllReplyProtocol(4), 4, 6, True),
    "send_all_reply n=4 M=5":
        (["send_all_reply", "--n", "4", "--M", "5"], SendAllReplyProtocol(4), 4, 5, False),
    "constant n=4": (["constant", "--n", "4"], ConstantProtocol(), 4, 6, False),
}


@pytest.mark.parametrize("argv, protocol, n, budget, passes", REDUCE_CASES.values(),
                         ids=REDUCE_CASES.keys())
def test_reduce_is_the_cli_report_without_its_header(argv, protocol, n, budget, passes,
                                                     capsys):
    code = cli.main(["reduce", "--protocol", *argv])
    report = json.loads(capsys.readouterr().out)
    sections, ok = reduction.reduce(protocol, n, budget)
    assert list(report)[:len(REDUCE_HEADER)] == REDUCE_HEADER
    assert report["M"] == budget
    expected = {key: value for key, value in report.items() if key not in REDUCE_HEADER}
    assert list(sections) == list(expected)
    assert json.loads(cli.canonical_json(sections)) == expected
    assert ok is passes is (code == 0)


def build_fixture(n, threshold):
    p = SendAllReplyProtocol(n)
    part = partition_inputs(p, n, threshold)
    return p, part, part.table()


def test_verify_rejects_forgeries():
    p, part, table = build_fixture(2, 4)
    a = SignVector.parse("++")
    cert = build_certificate(a, part, p)
    entries = cert.transcript.entries
    flipped_a = DjCertificate(2, cert.j, Transcript(
        ((entries[0][0], 1 - entries[0][1]),) + entries[1:]))
    res = verify_certificate(ALICE, a, flipped_a, table, p)
    assert not res and "own bit" in res.reason

    flipped_b = DjCertificate(2, cert.j, Transcript(
        entries[:-1] + ((entries[-1][0], 1 - entries[-1][1]),)))
    assert not verify_certificate(BOB, a, flipped_b, table, p)
    res = verify_certificate(ALICE, a, flipped_b, table, p)
    assert not res and "output is -1" in res.reason

    truncated = DjCertificate(2, cert.j, Transcript(entries[:-1]))
    assert not verify_certificate(ALICE, a, truncated, table, p)
    assert not verify_certificate(BOB, a, truncated, table, p)

    bad_j = DjCertificate(2, 5, cert.transcript)
    res = verify_certificate(ALICE, a, bad_j, table, p)
    assert not res and "outside" in res.reason

    wrong_n = DjCertificate(4, 1, Transcript(((ALICE, 1),) * 4 + ((BOB, 1),)))
    res = verify_certificate(ALICE, a, wrong_n, table, p)
    assert not res and "n=4" in res.reason

    # Alice is first asked with nothing heard, so Bob's bits cannot open her transcript,
    # and she is asked again only once Bob's move has reached her
    opens_with_bob = DjCertificate(2, cert.j, Transcript(((BOB, 1),)))
    res = verify_certificate(ALICE, a, opens_with_bob, table, p)
    assert not res and "own bit" in res.reason
    repeated = DjCertificate(2, cert.j, Transcript(((ALICE, 1),) * 4 + ((BOB, 1),)))
    assert entries == ((ALICE, 1),) * 2 + ((BOB, 1),)
    res = verify_certificate(ALICE, a, repeated, table, p)
    assert not res and res.reason == "desync at entry 2: expected to receive"

    # Bob waits for Alice's bits, and an empty transcript holds none
    silent = DjCertificate(2, cert.j, Transcript(()))
    res = verify_certificate(BOB, a, silent, table, p)
    assert not res and res.reason == "transcript exhausted before halting"

    class Garbled(SendAllReplyProtocol):
        def step(self, party, own_input, lam, received):
            return "halt"

    res = verify_certificate(ALICE, a, cert, table, Garbled(2))
    assert not res and res.reason == "protocol returned a malformed action"


def test_verify_catches_promise_violation_as_reject():
    p, part, table = build_fixture(4, 6)
    cert = build_certificate(SignVector.parse("++++"), part, p)
    res = verify_certificate(BOB, SignVector.parse("+++-"), cert, table, p)
    assert not res and "protocol rejected" in res.reason


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"),
                                 np.float32(0.5), "0.5", None])
def test_verify_rejects_a_table_point_that_is_not_finite(lam):
    p, part, _ = build_fixture(4, 6)
    a = SignVector.parse("++--")
    cert = build_certificate(a, part, p)
    res = verify_certificate(BOB, a, cert, DerandomizationTable(4, (lam,) * part.cell_count), p)
    kind = "finite" if isinstance(lam, float) else "an int, float or Fraction"
    assert not res and res.reason.startswith(f"protocol rejected: randomness point must be {kind}")


def test_m_of_n_frozen_values():
    assert m_of_n(10**7) == pytest.approx(1290.1285528456338, rel=1e-12)
    assert m_of_n(1024) == pytest.approx(0.3072, rel=1e-12)
    assert m_of_n(2) == pytest.approx(0.006, rel=1e-12)
    with pytest.raises(InvariantError):
        m_of_n(1)


def test_moment_bound_frozen_values():
    n = 2**20
    assert moment_bound(n, 1) == pytest.approx(0.025, rel=1e-12)
    assert moment_bound(n, 2) == pytest.approx(3.93216, rel=1e-12)
    assert moment_bound(n, 3) == pytest.approx(618.475290624, rel=1e-12)
    for m in (4, 64, 1024):
        assert moment_bound(m, 1) == pytest.approx(0.5 / math.log2(m), rel=1e-12)


def test_moment_bound_forms_agree():
    for n in (2, 4, 16, 1024, 2**20):
        for k in (1, 2, 3, 4):
            direct, via_budget = moment_bound_forms(n, k)
            assert direct == pytest.approx(via_budget, rel=1e-12)
    with pytest.raises(InvariantError):
        moment_bound(3, 1)
    with pytest.raises(InvariantError):
        moment_bound(4, 0)


def paper_contradiction(n):
    """The contradiction in the paper's constants, the reference for its composed
    form: 0.0035 n / (log2 n + 3) - log2 n - 0.5 > 0.003 n / log2 n."""
    return 0.0035 * n / (math.log2(n) + 3) - math.log2(n) - 0.5 > 0.003 * n / math.log2(n)


def test_contradiction_threshold():
    # the composed form agrees with the paper's constants around the threshold
    for n in range(5_873_024 - 2_000, 5_873_024 + 2_001, 2):
        assert contradiction_holds(n) == paper_contradiction(n), n
    assert not contradiction_holds(1000)
    assert not contradiction_holds(2**20)
    assert contradiction_holds(10**7 + 2)
    assert contradiction_holds(2 * 10**7)
    threshold = contradiction_threshold()
    assert threshold == 5873024
    assert threshold <= 10**7 + 2
    assert contradiction_holds(threshold)
    assert not contradiction_holds(threshold - 2)
    with pytest.raises(InvariantError):
        contradiction_holds(1)
    with pytest.raises(InvariantError):
        contradiction_threshold(limit=1000)  # contradiction fails there


_PAIR = (SignVector.parse("++"), SignVector.parse("++"))
_BAD_SEEDS = (("negative", -1), ("bool", True), ("text", "x"))
BAD_SIZES = {
    "tail check at n = 0": lambda: check_tail_hypothesis(SendAllReplyProtocol(2), 0, 3),
    "fractional tail threshold":
        lambda: check_tail_hypothesis(SendAllReplyProtocol(2), 2, 2.5),
    "text weight": lambda: RandomnessSpace((1,), ("x",)),
    "complex weight": lambda: RandomnessSpace((1,), (1j,)),
    "nan weight": lambda: RandomnessSpace((1,), (float("nan"),)),
    "negative vector length": lambda: SignVector.all_vectors(-1),
    "fractional sample count":
        lambda: sample_distribution(SendAllReplyProtocol(2), *_PAIR, samples=2.5),
    "fractional moment order":
        lambda: cost_law(SendAllReplyProtocol(2), *_PAIR).moment(1.5),
    "fractional cell index n": lambda: cell_index_width(2.5),
    "fractional reject witness n": lambda: n0_upper_bound(2.5),
    "fractional moment order bound": lambda: moment_bound(4, 1.5),
    "odd budget curve n": lambda: m_of_n(3),
    "missing budget curve n": lambda: m_of_n(None),
    "odd accept bound n": lambda: n1_lower_bound(3),
    "fractional accept bound n": lambda: n1_lower_bound(2.5),
    "text accept bound n": lambda: n1_lower_bound("8"),
    "fractional contradiction n": lambda: contradiction_holds(2.5),
    "text tail mass threshold":
        lambda: tail_mass(SendAllReplyProtocol(2), *_PAIR, "3"),
    "missing partition threshold":
        lambda: partition_inputs(SendAllReplyProtocol(2), 2, None),
    "nan cost measure": lambda: auy_min_n1(float("nan"), 1),
    "infinite cost measure": lambda: auy_min_n1(1, float("inf")),
    "text cost measure": lambda: auy_min_n1("3", 1),
    "odd reduce n": lambda: reduction.reduce(SendAllReplyProtocol(2), 3, 5),
    "fractional reduce budget": lambda: reduction.reduce(SendAllReplyProtocol(2), 2, 2.5),
    "missing reject certificate n": lambda: RejectCertificate.decode((0, 0, 0), None),
    "text reject certificate n": lambda: RejectCertificate(1, 1).encode("4"),
    "missing sign vector text": lambda: SignVector.parse(None),
    "text sign vector projector": lambda: sign_vector_projector("++"),
    "fractional matrix denominator": lambda: RationalMatrix([[1]], 1.5),
    "bool matrix denominator": lambda: RationalMatrix([[1]], True),
    "text matrix denominator": lambda: RationalMatrix([[1]], "a"),
    "missing matrix denominator": lambda: RationalMatrix([[1]], None),
    "missing certificate transcript": lambda: DjCertificate(4, 1, None),
    "non-iterable uniform points": lambda: RandomnessSpace.uniform(5),
    "text cost law tail threshold":
        lambda: cost_law(SendAllReplyProtocol(2), *_PAIR).tail("3"),
    **{f"{kind} sample seed": (lambda seed=seed: sample_distribution(
        SendAllReplyProtocol(2), *_PAIR, samples=3, seed=seed)) for kind, seed in _BAD_SEEDS},
    **{f"{kind} sampled audit seed": (lambda seed=seed: check_exact_blqms(
        SendAllReplyProtocol(2), [Scenario(*_PAIR, JointProbs(1, 0, 0, 0))],
        samples=5, seed=seed)) for kind, seed in _BAD_SEEDS},
}


@pytest.mark.parametrize("call", BAD_SIZES.values(), ids=BAD_SIZES.keys())
def test_library_entry_points_refuse_bad_sizes_with_lab_errors(call):
    """Each once raised a bare TypeError, ValueError, AttributeError or
    ZeroDivisionError, or returned a result."""
    with pytest.raises(QccLabError):
        call()


def test_partition_refuses_a_fractional_budget_as_bad_input():
    """A budget of 2.5 bits is a bad parameter, not a finding that some input
    accepts nowhere below it."""
    with pytest.raises(InvariantError,
                       match="partition_inputs parameter threshold_bits must be an integer"):
        partition_inputs(SendAllReplyProtocol(2), 2, 2.5)
