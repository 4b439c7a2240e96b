"""One conformance suite over every registered protocol.

`CASES` gives each name in `PROTOCOLS` one line.  Every check runs on every
protocol; where one does not apply, the line gives the reason, and the suite
asserts that the check indeed does not apply.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import groupby, product
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcc_lab import harness
from qcc_lab.dj import promise_pairs
from qcc_lab.errors import PartitionError, QccLabError
from qcc_lab.harness import (ALICE, BOB, OUTCOMES, Action, OutcomeTable, Protocol,
                             RandomnessSpace, SampleStats, Transcript, cost_law,
                             output_distribution, run, sample_distribution)
from qcc_lab.oracle import JointProbs, SignVector
from qcc_lab.protocols import PROTOCOL_NAMES, PROTOCOLS, make_protocol, protocol_parameters
from qcc_lab.reduction import (DerandomizationTable, DjCertificate, build_certificate,
                               partition_inputs, verify_certificate)
from test_harness import assert_checked_transcript
from test_protocols import one_shot_pairs
from test_reduction import RandomRounds, SilentAlice


class Case(NamedTuple):
    params: tuple = ({},)  # make_protocol parameter sets; a parameter n takes each size
    sizes: tuple = (2, 4)  # the inputs are the promise pairs at each n
    pairs: tuple = ()  # the inputs, where they are not sign vectors
    bad_lams: tuple = ()  # randomness points that `run` refuses
    stream: Optional[Callable] = None  # batch hook's points: (rng, count) -> lambdas, in order
    table_key: Optional[Callable] = None  # (a, b) -> the law key its cached tables are shared by
    not_applicable: dict = {}  # "rows", "exact", "certificates" or "bad_lams" -> why


NOT_A_FINITE_NUMBER = (math.nan, math.inf, -math.inf, np.float32(0.5), "0.5", None)
Z, X, TILTED = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8)
CASES = {
    "constant": Case(
        params=({}, {"y_b": -1}, {"y_a": -1, "y_b": -1}),
        table_key=lambda a, b: None,
        not_applicable={"bad_lams": "it never reads lambda: its outputs are fixed parameters"}),
    "send_all_reply": Case(bad_lams=NOT_A_FINITE_NUMBER, table_key=lambda a, b: a.dot(b)),
    "toner_bacon": Case(
        pairs=((Z, TILTED), (Z, X), (TILTED, TILTED)),
        bad_lams=(None, 0.5, "ab", (Z,), ((math.nan,) * 3, Z), (Z, (math.inf, 0.0, 0.0)),
                  ((0.0, 1.0), Z), ((0.0,) * 3, (0.0,) * 3), ((0.0, 0.0, 2.0), (0.0, 0.0, -1.0)),
                  ((0.0, 0.0, 1e-300), Z)),
        # one normal(size=(2, count, 3)) draw; the batch reassociates Bob's b.(l1 + c l2), so it
        # could differ from `run` only where that lies within rounding of 0, and no draw here does
        stream=lambda rng, count: zip(*one_shot_pairs(rng, count)),
        not_applicable=dict.fromkeys(
            ("rows", "exact", "certificates"), "no finite space: lambda is two uniform sphere "
            "points, and the inputs are unit 3-vectors, not sign vectors")),
}


def built(name, sizes=None):
    """(protocol, n, input pairs) per parameter set and size; n is None where
    the line gives its own pairs."""
    case = CASES[name]
    if case.pairs:
        return [(make_protocol(name, **params), None, list(case.pairs)) for params in case.params]
    takes_n = "n" in protocol_parameters(PROTOCOLS[name])
    return [(make_protocol(name, **params, **({"n": n} if takes_n else {})), n,
             list(promise_pairs(n))) for params in case.params for n in sizes or case.sizes]


def applies(name, check, holds) -> bool:
    """Whether `check` runs on `name`: the line gives a reason exactly where it does not."""
    assert (check in CASES[name].not_applicable) is not holds, (name, check)
    return holds


def finite(protocol) -> bool:
    return isinstance(protocol.lambda_space, RandomnessSpace)


@st.composite
def promise_pair(draw, n):
    """A sign vector a and a partner b with a.b in {n, 0}."""
    a = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    flipped = set(draw(st.permutations(range(n)))[: n // 2]) if draw(st.booleans()) else ()
    return SignVector(a), SignVector(tuple(-c if i in flipped else c for i, c in enumerate(a)))


def test_every_registered_protocol_has_one_table_line():
    assert set(CASES) == set(PROTOCOL_NAMES)


def check_rows(name, protocol, pairs):
    for a, b in pairs:
        table = protocol.outcome_table(a, b)
        if applies(name, "rows", table is not None):
            runs = harness._run_rows(protocol, a, b, protocol.lambda_space.points)
            np.testing.assert_array_equal(np.column_stack(table), np.column_stack(runs))


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_hook_rows_equal_the_runner_at_every_point(name):
    for protocol, _, pairs in built(name):
        check_rows(name, protocol, pairs)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_hook_tables_are_outcome_tables_shared_per_law_key(name):
    """Every table the hook returns is an `OutcomeTable`, so the exact readers keep
    its summaries, and two pairs with the same law key get the same object."""
    for protocol, _, pairs in built(name):
        shared = {}
        for a, b in pairs:
            table = protocol.outcome_table(a, b)
            if applies(name, "rows", table is not None):
                assert isinstance(table, OutcomeTable)
                assert shared.setdefault(CASES[name].table_key(a, b), table) is table


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_hook_rows_equal_the_runner_on_drawn_pairs_at_n6(name, data):
    drawn = data.draw(promise_pair(6))
    for protocol, n, pairs in built(name, sizes=(6,)):
        check_rows(name, protocol, pairs if n is None else [drawn])


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_law_and_cost_law_equal_a_fraction_enumeration_of_run(name):
    """`output_distribution` (through `exact_distribution` where a protocol has
    it) and `cost_law` against `run` at every point, each weighted exactly; every
    run's transcript is the one the validating constructor makes."""
    for protocol, _, pairs in built(name):
        if not applies(name, "exact", finite(protocol)):
            continue
        space = protocol.lambda_space
        for a, b in pairs:
            law, costs = Counter(), Counter()
            for lam, numerator in zip(space.points, space.numerators):
                weight = Fraction(numerator, space.den)
                record = run(protocol, a, b, lam)
                assert_checked_transcript(record)
                law[record.y_a, record.y_b] += weight
                costs[record.t] += weight
            assert output_distribution(protocol, a, b) == \
                JointProbs(*map(law.__getitem__, OUTCOMES))
            got = cost_law(protocol, a, b)
            assert [(c, Fraction(m, got.den)) for c, m in zip(got.costs, got.masses)] == \
                sorted((cost, mass) for cost, mass in costs.items() if mass)


def per_draw_reference(protocol, a, b, samples, seed):
    """The sampled law from one `sample_index` draw of the protocol's finite
    `RandomnessSpace` and one `run` per sample."""
    rng, space = np.random.default_rng(seed), protocol.lambda_space
    records = [run(protocol, a, b, space.points[space.sample_index(rng)])
               for _ in range(samples)]
    outcomes, costs = Counter((r.y_a, r.y_b) for r in records), [r.t for r in records]
    return SampleStats(JointProbs(*(outcomes[o] / samples for o in OUTCOMES)),
                       sum(costs) / samples, max(costs), samples, seed)


@pytest.mark.parametrize("seed", [0, 21])
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_sampling_follows_run(name, seed):
    """Without a batch hook, the seeded sampled law is the per-draw reference to
    the last bit; with one, its rows are `run` at the line's stream points."""
    count, stream = 500, CASES[name].stream
    for protocol, _, pairs in built(name):
        for a, b in pairs[:3]:
            batch = protocol.batch_outcomes(a, b, np.random.default_rng(seed), count)
            assert (batch is None) is (stream is None), name
            if batch is None:
                assert sample_distribution(protocol, a, b, samples=count, seed=seed) == \
                    per_draw_reference(protocol, a, b, count, seed)
                continue
            points = stream(np.random.default_rng(seed), count)
            records = [run(protocol, a, b, lam) for lam in points]
            for record in records:
                assert_checked_transcript(record)
            np.testing.assert_array_equal(np.column_stack(batch),
                                          [(r.y_a, r.y_b, r.t) for r in records])


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_certificates_replay_and_jointly_accepted_reject_pairs_output_plus_one(name):
    """At reduce's default budget M = n + 2, every vector's honest certificate
    replays on both sides, or the partition's witness accepts nowhere.  A reject
    pair whose two replays of a's certificate accept runs at a's point to
    (+1, +1): the transcript is a rectangle."""
    for protocol, n, pairs in built(name):
        if not applies(name, "certificates", n is not None and finite(protocol)):
            continue
        try:
            partition = partition_inputs(protocol, n, n + 2)
        except PartitionError as exc:
            y_a, y_b, t = harness._run_rows(protocol, exc.witness, exc.witness,
                                            protocol.lambda_space.points)
            assert not ((y_a == 1) & (y_b == 1) & (t < n + 2)).any()
            continue
        table = partition.table()
        certs = {a: build_certificate(a, partition, protocol) for a in SignVector.all_vectors(n)}
        for a, cert in certs.items():
            assert verify_certificate(ALICE, a, cert, table, protocol)
            assert verify_certificate(BOB, a, cert, table, protocol)
        for a, b in pairs:
            if a != b and verify_certificate(BOB, b, certs[a], table, protocol):
                record = run(protocol, a, b, table.entries[certs[a].j - 1])
                assert (record.y_a, record.y_b) == (1, 1)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_bad_points_are_refused_by_run_and_by_replay(name):
    """Each bad lambda raises a lab error from `run`, and a replay against a
    one-cell table holding it is rejected by the protocol with the same message.
    A protocol that never reads lambda runs alike at points that are no number."""
    protocol, _, pairs = built(name)[0]
    case, rng = CASES[name], np.random.default_rng(0)
    a, bad_lams, space = pairs[0][0], case.bad_lams, protocol.lambda_space
    honest = run(protocol, a, a, next(iter(case.stream(rng, 1))) if case.stream
                 else space.points[space.sample_index(rng)])
    if not applies(name, "bad_lams", bool(bad_lams)):
        assert {(r.y_a, r.y_b, r.transcript) for r in (
            run(protocol, a, a, lam) for lam in NOT_A_FINITE_NUMBER)} == \
            {(honest.y_a, honest.y_b, honest.transcript)}
        return
    cert = DjCertificate(2, 1, honest.transcript)
    for lam in bad_lams:
        with pytest.raises(QccLabError) as refusal:
            run(protocol, a, a, lam)
        replays = [verify_certificate(party, a, cert, DerandomizationTable(2, (lam,)), protocol)
                   for party in (ALICE, BOB)]
        assert not all(replays)
        assert f"protocol rejected: {refusal.value}" in [replay.reason for replay in replays]


class ScriptedPeer(Protocol):
    """`party` answers with `protocol`'s own `step`; its peer plays `moves`, one
    per action, halting with the last, or at once if there are none."""

    def __init__(self, protocol, party, moves):
        self.protocol, self.party, self.moves, self.asked = protocol, party, moves, 0

    def step(self, party, own_input, lam, received):
        if party is self.party:
            return self.protocol.step(party, own_input, lam, received)
        k, self.asked = self.asked, self.asked + 1
        last = k >= len(self.moves) - 1
        return Action(self.moves[k] if self.moves else (), output=1 if last else None)


def reference_replay(party, own, transcript, lam, protocol) -> bool:
    """One-party replay built on `run`: the peer plays the transcript's peer moves
    (its maximal runs of bits), Alice's first one empty where Bob's bits open the
    transcript; accept iff `run` raises no lab error, writes the certificate's
    transcript, and `party` outputs +1."""
    peer = BOB if party is ALICE else ALICE
    moves = [tuple(bit for _, bit in block)
             for sender, block in groupby(transcript.entries, key=lambda entry: entry[0])
             if sender is peer]
    if peer is ALICE and transcript.entries and transcript.entries[0][0] is BOB:
        moves.insert(0, ())
    try:  # the peer never reads its input, so `own` stands in for it
        record = run(ScriptedPeer(protocol, party, moves), own, own, lam, cap=len(transcript))
    except QccLabError:
        return False
    return record.transcript == transcript and (record.y_a if party is ALICE else record.y_b) == 1


def replay_disagreements(protocol) -> list:
    """Every (party, vector, transcript) at n = 2 at which `verify_certificate`
    against a one-cell table of the protocol's first point disagrees with
    `reference_replay`, over every transcript of at most 5 entries."""
    n, lam = 2, protocol.lambda_space.points[0]
    table = DerandomizationTable(n, (lam,))
    tokens = [(sender, bit) for sender in (ALICE, BOB) for bit in (0, 1)]
    transcripts = [Transcript(entries) for length in range(6)
                   for entries in product(tokens, repeat=length)]
    disagreements = []
    for party, own, transcript in product((ALICE, BOB), SignVector.all_vectors(n), transcripts):
        got = verify_certificate(party, own, DjCertificate(n, 1, transcript), table, protocol)
        if bool(got) != reference_replay(party, own, transcript, lam, protocol):
            disagreements.append((party.value, own.to_text(), transcript.tokens(), got.reason))
    return disagreements


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_replay_asks_each_party_as_run_does(name):
    """A one-party replay accepts exactly the transcripts that `run` writes with
    that party's own `step` and the transcript's peer moves, at n = 2, for both
    parties, every vector and every transcript of at most 5 entries."""
    for protocol, n, _ in built(name, sizes=(2,)):
        if applies(name, "certificates", n is not None and finite(protocol)):
            assert replay_disagreements(protocol) == []


def test_replay_of_a_party_that_halts_silently_while_its_peer_transmits():
    """`SilentAlice` halts at her first ask, with nothing heard, while Bob sends
    two bits after, and outputs -1 if she is asked with his bits."""
    assert replay_disagreements(SilentAlice()) == []


def joint_acceptance_mismatches(protocol, n) -> list:
    """Every (a, b, lam, transcript) at which the replays and `run` disagree, over
    every promise pair at n, every point lam and every transcript of fewer than M
    bits, M being the largest cost + 1: a transcript is jointly accepted, with a
    one-cell table of lam, by Alice's replay on a and Bob's on b iff `run(a, b, lam)`
    writes it and outputs (+1, +1).  Each party's accept set is computed once per
    vector and point, and the two are intersected per pair."""
    points = protocol.lambda_space.points
    records = {(a, b, lam): run(protocol, a, b, lam)
               for a, b in promise_pairs(n) for lam in points}
    budget = max(record.t for record in records.values()) + 1
    tokens = [(sender, bit) for sender in (ALICE, BOB) for bit in (0, 1)]
    certs = [DjCertificate(n, 1, Transcript(entries)) for length in range(budget)
             for entries in product(tokens, repeat=length)]
    accepts = {}

    def accepted(party, own, lam) -> set:
        if (party, own, lam) not in accepts:
            table = DerandomizationTable(n, (lam,))
            accepts[party, own, lam] = {cert.transcript for cert in certs
                                        if verify_certificate(party, own, cert, table, protocol)}
        return accepts[party, own, lam]

    mismatches = []
    for (a, b, lam), record in records.items():
        joint = accepted(ALICE, a, lam) & accepted(BOB, b, lam)
        if joint != ({record.transcript} if record.g else set()):
            mismatches.append((a.to_text(), b.to_text(), lam,
                               sorted(transcript.tokens() for transcript in joint)))
    return mismatches


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_joint_acceptance_of_every_short_transcript_is_the_run_on_the_pair(name):
    """Brute-force soundness at n = 2: no transcript under M bits is jointly
    accepted on a promise pair except the one its run writes, when that run
    outputs (+1, +1)."""
    for protocol, n, _ in built(name, sizes=(2,)):
        if applies(name, "certificates", n is not None and finite(protocol)):
            assert joint_acceptance_mismatches(protocol, n) == []


def test_joint_acceptance_of_every_short_transcript_on_random_rounds():
    """The same sweep on an interactive protocol of 1 to 3 rounds, whose costs
    2, 4 and 6 make M = 7; at seed 0, 40 of the 64 runs on reject pairs output
    (+1, +1)."""
    assert joint_acceptance_mismatches(RandomRounds(0, 2), 2) == []
