"""Runner contract: eligibility, transcripts, distributions, cost laws."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcc_lab.errors import InvariantError, NonHaltingError, ProtocolError
from qcc_lab import harness
from qcc_lab.harness import (ALICE, BOB, Action, BlqmsReport, CheckResult, OutcomeTable,
                             Party, Protocol, RandomnessSpace, RunRecord, Scenario,
                             ScenarioResult, Transcript, _law_errors, check_exact_blqms,
                             cost_law, output_distribution, pair_label, run,
                             sample_distribution, tail_mass)
from qcc_lab.dj import promise_scenarios
from qcc_lab.oracle import JointProbs, SignVector
from qcc_lab.protocols import ConstantProtocol, SendAllReplyProtocol
from qcc_lab.reduction import check_tail_hypothesis, partition_inputs


class TwoBranch(Protocol):
    """One cheap branch (1 bit) and one dear branch (3 bits); both accept."""

    name = "two_branch"
    lambda_space = RandomnessSpace.uniform((0, 1))

    def step(self, party, own, lam, received):
        if party is ALICE:
            if lam == 0:
                return Action((1,), output=1)
            if not received:
                return Action((1, 1))
            return Action(output=1)
        if lam == 0:
            return Action(output=1)
        if len(received) < 2:
            return Action()
        return Action((1,), output=1)


class CostIsPoint(Protocol):
    """At point c, Alice sends c one-bits; Bob outputs the parity of c."""

    name = "cost_is_point"

    def step(self, party, own, lam, received):
        if party is ALICE:
            return Action((1,) * lam, output=1)
        return Action(output=1 if lam % 2 == 0 else -1)


class Deadlocked(Protocol):
    name = "deadlocked"
    lambda_space = RandomnessSpace.uniform((0,))

    def step(self, party, own, lam, received):
        return Action()


class Babbler(Protocol):
    name = "babbler"
    lambda_space = RandomnessSpace.uniform((0,))

    def step(self, party, own, lam, received):
        return Action((0,))


def test_action_validation():
    with pytest.raises(ProtocolError):
        Action((2,))
    with pytest.raises(ProtocolError):
        Action((), output=0)
    for bits in ((0, 1, -1), (1, 2), [0, 3], ([1],)):
        with pytest.raises(ProtocolError, match="0/1"):
            Action(bits)
    for output in (0, 2, "1", 1.5):
        with pytest.raises(ProtocolError, match="output"):
            Action((1,), output=output)
    assert Action((1, 0)).send == (1, 0)
    # bits are normalized to a tuple of ints, whatever sequence held them
    normalized = Action([np.int64(1), True, 0]).send
    assert normalized == (1, 1, 0) and all(type(b) is int for b in normalized)


def test_transcript_tokens_roundtrip():
    t = Transcript(((ALICE, 1), (ALICE, 0), (BOB, 1)))
    assert t.tokens() == "A1A0B1"


def test_transcript_validation():
    t = Transcript([("A", np.int64(1)), (BOB, True), (ALICE, 0)])
    assert t.entries == ((ALICE, 1), (BOB, 1), (ALICE, 0))
    assert all(type(p) is Party and type(b) is int for p, b in t.entries)
    assert Transcript(()).entries == () and Transcript(()).tokens() == ""
    assert Transcript(iter([(ALICE, 1)])).entries == ((ALICE, 1),)
    with pytest.raises(InvariantError, match="0/1"):
        Transcript(((ALICE, 1), (BOB, 2)))
    with pytest.raises(InvariantError, match="0/1"):
        Transcript(((ALICE, -1),))
    with pytest.raises(InvariantError, match="0/1"):
        Transcript(((ALICE, [1]),))  # unhashable, not a bit
    for entries in ((("C", 1),), ((None, 0),), ((ALICE, 1), (BOB, 1, 0)), ((ALICE,),),
                    ((ALICE, 1, 0),), (5,)):
        with pytest.raises(InvariantError, match=r"\(sender, bit\) pairs, sender A or B"):
            Transcript(entries)


def test_bits_and_outputs_are_never_truncated():
    """A bit that is not 0 or 1 is refused before it could be cast, and an
    output is a Python int: no bool or float equal to +/-1 passes."""
    for bits in ((0.5,), (1.9,), (1, 0.5)):
        with pytest.raises(ProtocolError, match="0/1"):
            Action(bits)
    for output in (True, 1.0, -1.0, np.int64(1)):
        with pytest.raises(ProtocolError, match="output"):
            Action(output=output)
    for bit in (1.7, 0.5):
        with pytest.raises(InvariantError, match="0/1"):
            Transcript(((ALICE, bit),))


def test_check_result_truthiness():
    assert CheckResult(True)
    assert not CheckResult(False, "because")


def test_randomness_space_validation():
    with pytest.raises(InvariantError):
        RandomnessSpace((0, 1), (Fraction(1, 2), Fraction(1, 3)))
    for empty in (lambda: RandomnessSpace((), ()), lambda: RandomnessSpace.uniform(())):
        with pytest.raises(InvariantError, match="at least one point"):
            empty()
    with pytest.raises(InvariantError, match="nonnegative"):
        RandomnessSpace((0, 1), (Fraction(3, 2), Fraction(-1, 2)))
    # these numerators sum to 1 + 2^64, which int64 would wrap to 1
    with pytest.raises(InvariantError, match="sum"):
        RandomnessSpace(tuple(range(9)), (1,) + (2**61,) * 8)
    space = RandomnessSpace.uniform((0, 1, 2, 3))
    assert not hasattr(space, "weights")  # one weight form: numerators over den
    assert space.den == 4 and space.numerators.tolist() == [1, 1, 1, 1]
    # read-only Python ints, so no sum of them can wrap
    assert space.numerators.dtype == object and not space.numerators.flags.writeable
    assert all(type(x) is int for x in space.numerators)
    picks = [space.sample_index(np.random.default_rng(0)) for _ in range(3)]
    assert picks[0] == picks[1] == picks[2]  # same seed, same draw
    rng = np.random.default_rng(0)
    assert set(space.sample_index(rng) for _ in range(200)) <= {0, 1, 2, 3}


def test_two_branch_runs_and_transcripts():
    p = TwoBranch()
    cheap = run(p, None, None, 0)
    assert (cheap.y_a, cheap.y_b, cheap.t) == (1, 1, 1)
    assert cheap.transcript.tokens() == "A1"
    dear = run(p, None, None, 1)
    assert (dear.y_a, dear.y_b, dear.t) == (1, 1, 3)
    assert dear.transcript.tokens() == "A1A1B1"
    assert dear.g == 1
    # pure step functions make reruns identical
    assert run(p, None, None, 1) == dear


def test_two_branch_distribution_and_moments():
    p = TwoBranch()
    law = output_distribution(p, None, None)
    assert law == JointProbs(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    law = cost_law(p, None, None)
    assert (law.costs, law.masses, law.den) == ((1, 3), (1, 1), 2)
    assert (law.moment(1), law.moment(2)) == (Fraction(2), Fraction(5))
    assert {m: tail_mass(p, None, None, m) for m in (2, 3, 4)} == \
        {2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(0)}
    assert {m: law.tail(m) for m in (0, 1, 2, 3, 4)} == {0: 2, 1: 2, 2: 1, 3: 1, 4: 0}
    for k in (0, -1):
        with pytest.raises(InvariantError,
                           match=f"CostLaw.moment parameter k must be at least 1, got {k}"):
            law.moment(k)
    assert tail_mass(p, None, None, 3) == Fraction(1, 2)


def test_outcome_table_shape_is_checked():
    class Misaligned(TwoBranch):
        def outcome_table(self, input_a, input_b):
            return self.table

    p = Misaligned()
    for table in (([1], [1], [1]), ([1, 1], [1, 1], [1, 3, 3]),
                  [(1, 1, 1), (1, 1, 3)], ([1, 1], [1, 1])):
        p.table = table
        with pytest.raises(ProtocolError, match="outcome_table returned"):
            tail_mass(p, None, None, 3)
    p.table = ([1, 1], [1, 1], [1, 3])
    assert tail_mass(p, None, None, 3) == Fraction(1, 2)


class Tabled(TwoBranch):
    """TwoBranch whose hooks both return a set table: two points, two draws."""

    def outcome_table(self, input_a, input_b):
        return self.table

    def batch_outcomes(self, input_a, input_b, rng, count):
        return self.table


class ByInput(TwoBranch):
    """TwoBranch whose table is the one set for Alice's input."""

    def outcome_table(self, input_a, input_b):
        return self.tables[input_a]


MALFORMED_ROWS = {
    "float cost": ([1, 1], [1, 1], [1.5, 2.0]),
    "integral float cost": ([1, 1], [1, 1], [1.0, 3.0]),
    "bool column": ([True, True], [1, 1], [1, 3]),
    "2-D column": (np.ones((2, 2), dtype=np.int64), [1, 1], [1, 3]),
    "wrong length": ([1, 1], [1, 1], [1, 3, 3]),
    "two columns": ([1, 1], [1, 1]),
    "negative cost": ([1, 1], [1, 1], [1, -2]),
    "not columns": 7,
}
ROW_HOOKS = {
    "outcome_table": (lambda p: tail_mass(p, None, None, 3),
                      lambda p: cost_law(p, None, None),
                      lambda p: output_distribution(p, None, None)),
    "batch_outcomes": (lambda p: sample_distribution(p, None, None, samples=2),),
}


@pytest.mark.parametrize("hook", ROW_HOOKS)
@pytest.mark.parametrize("table", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_malformed_rows_are_refused_naming_the_hook(hook, table):
    """Both hooks' rows pass one check: three 1-D integer columns of one
    entry per point or draw, no cost negative; nothing is cast or truncated."""
    p = Tabled()
    p.table = table
    for audit in ROW_HOOKS[hook]:
        with pytest.raises(ProtocolError, match=f"^{hook} returned"):
            audit(p)


def test_well_formed_rows_of_any_integer_type_pass_through_uncopied():
    """Both hooks' columns are read at their own dtype, never cast or copied,
    also where a Python int lies outside that dtype's range."""
    p = Tabled()
    for dtype in (np.int8, np.uint8, np.int32, np.int64):
        p.table = tuple(np.array(column, dtype=dtype) for column in ([1, 1], [1, 1], [1, 3]))
        rows = harness._rows(p.table, 2, "outcome_table")
        assert all(np.shares_memory(row, column) for row, column in zip(rows, p.table))
        assert tail_mass(p, None, None, 3) == Fraction(1, 2)
        assert tail_mass(p, None, None, 300) == 0
        law = cost_law(p, None, None)
        assert (law.costs, law.masses, law.moment(1), law.moment(2)) == ((1, 3), (1, 1), 2, 5)
        assert all(type(value) is int for value in law.costs + law.masses)
        stats = sample_distribution(p, None, None, samples=2)
        assert (stats.t_mean, stats.t_max, stats.probs.p_pp) == (2.0, 3, 1.0)
    # -1 outputs at one byte each, and a uint8 cost at and past a threshold of 300
    p.table = (np.array([-1, 1], np.int8), np.array([-1, -1], np.int8),
               np.array([255, 3], np.uint8))
    assert output_distribution(p, None, None) == JointProbs(0, 0, Fraction(1, 2), Fraction(1, 2))
    stats = sample_distribution(p, None, None, samples=2)
    assert (stats.probs, stats.t_mean, stats.t_max) == (JointProbs(0, 0, 0.5, 0.5), 129.0, 255)
    assert tail_mass(p, None, None, 300) == 0 and tail_mass(p, None, None, 255) == Fraction(1, 2)
    # outputs other than +/-1 pass the row check; the law's sum check refuses them
    p.table = ([1, 0], [1, 1], [1, 3])
    for audit in (lambda: output_distribution(p, None, None),
                  lambda: sample_distribution(p, None, None, samples=2)):
        with pytest.raises(InvariantError, match="sum to"):
            audit()


def test_two_branch_sampled_matches_exact():
    p = TwoBranch()
    stats = sample_distribution(p, None, None, samples=400, seed=9)
    assert stats.probs.p_pp == 1.0  # every branch outputs (+1, +1)
    assert stats.t_max == 3
    assert stats.samples == 400 and stats.seed == 9
    again = sample_distribution(p, None, None, samples=400, seed=9)
    assert again == stats


def test_deadlock_is_reported():
    with pytest.raises(ProtocolError, match="deadlock"):
        run(Deadlocked(), None, None, 0)


def test_runaway_protocol_hits_cap():
    with pytest.raises(NonHaltingError) as info:
        run(Babbler(), None, None, 0, cap=12)
    assert len(info.value.partial_transcript) == 12
    # a multi-bit send that crosses the cap keeps exactly the bits that fit
    with pytest.raises(NonHaltingError) as info:
        run(Scripted({(ALICE, 0): ((1, 0, 1, 1), False)}), None, None, 0, cap=3)
    assert info.value.partial_transcript.tokens() == "A1A0A1"
    assert run(Scripted({(ALICE, 0): ((1, 0, 1), True), (BOB, 3): ((), True)}),
               None, None, 0, cap=3).t == 3
    vec = SignVector.parse("++")
    assert Babbler().default_cap(vec, vec) == 10 * 2 + 64


def test_step_must_return_an_action():
    class Sloppy(Protocol):
        name = "sloppy"

        def step(self, party, own, lam, received):
            return ((1,), 1)

    with pytest.raises(ProtocolError, match="tuple, not Action"):
        run(Sloppy(), None, None, 0)


class Scripted(Protocol):
    """Plays a script: at (party, bits received so far) send the bits and
    halt iff told to; the output depends on the bits heard and on lam.
    A count the script does not name plays the party's default move,
    by default to wait."""

    name = "scripted"

    def __init__(self, script, defaults=None, shared=None):
        self.script = script
        self.defaults = defaults or {ALICE: ((), False), BOB: ((), False)}
        self.shared = shared  # a dict: one Action per (send, output), for both parties

    def step(self, party, own, lam, received):
        send, halt = self.script.get((party, len(received)), self.defaults[party])
        output = (-1) ** (sum(received) + lam) if halt else None
        if self.shared is None:
            return Action(send, output=output)
        key = (tuple(send), output)
        if key not in self.shared:
            self.shared[key] = Action(send, output=output)
        return self.shared[key]


def reference_run(protocol, input_a, input_b, lam, *, cap=None):
    """The runner as it was with Party-keyed dicts: the reference semantics."""
    if cap is None:
        cap = protocol.default_cap(input_a, input_b)
    received = {ALICE: [], BOB: []}
    acted_at = {ALICE: -1, BOB: -1}
    outputs = {ALICE: None, BOB: None}
    own_input = {ALICE: input_a, BOB: input_b}
    entries = []

    while outputs[ALICE] is None or outputs[BOB] is None:
        progressed = False
        for party in (ALICE, BOB):
            if outputs[party] is not None:
                continue
            if acted_at[party] >= len(received[party]):
                continue
            action = protocol.step(party, own_input[party], lam, tuple(received[party]))
            if not isinstance(action, Action):
                raise ProtocolError(f"step returned {type(action).__name__}, not Action")
            acted_at[party] = len(received[party])
            progressed = True
            for bit in action.send:
                if len(entries) >= cap:
                    raise NonHaltingError(
                        f"{protocol.name} exceeded the {cap}-bit budget",
                        partial_transcript=Transcript(tuple(entries)),
                    )
                entries.append((party, bit))
                received[BOB if party is ALICE else ALICE].append(bit)
            if action.output is not None:
                outputs[party] = action.output
        if not progressed:
            raise ProtocolError(
                f"{protocol.name} deadlocked: no party can act "
                f"(transcript so far: {Transcript(tuple(entries)).tokens()!r})"
            )

    transcript = Transcript(tuple(entries))
    return RunRecord(outputs[ALICE], outputs[BOB], transcript, len(transcript))


def _outcome(runner, protocol, lam, cap):
    """A run's record, or its error's type, message and partial transcript."""
    try:
        return runner(protocol, None, None, lam, cap=cap)
    except ProtocolError as exc:
        return type(exc), str(exc), getattr(exc, "partial_transcript", None)


_MOVES = st.tuples(st.lists(st.integers(0, 1), max_size=4).map(tuple), st.booleans())
_SCRIPTS = st.dictionaries(st.tuples(st.sampled_from([ALICE, BOB]), st.integers(0, 9)),
                           _MOVES, max_size=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(script=_SCRIPTS, default_a=_MOVES, default_b=_MOVES, lam=st.integers(0, 3),
       cap=st.one_of(st.none(), st.integers(-1, 12)), shared=st.booleans())
def test_run_matches_reference_runner(script, default_a, default_b, lam, cap, shared):
    """Records, transcripts, cap hits (partial transcripts included) and
    deadlocks agree with the dict-based reference runner, also when both
    parties are handed one shared Action per (send, output)."""
    protocol = Scripted(script, {ALICE: default_a, BOB: default_b}, {} if shared else None)
    got = _outcome(run, protocol, lam, cap)
    expected = _outcome(reference_run, protocol, lam, cap)
    assert got == expected
    for action in (protocol.shared or {}).values():
        assert_plain_action(action)
    cap = 64 if cap is None else cap  # the default cap of sizeless inputs
    if isinstance(got, RunRecord):
        assert got.transcript.entries == expected.transcript.entries
        assert_checked_transcript(got)
        assert got.t == len(got.transcript) <= max(cap, 0)
    elif got[0] is NonHaltingError:
        assert len(got[2]) == max(cap, 0)


def test_run_matches_reference_on_fixed_scripts():
    """An interleaved run and a deadlock, which random scripts reach rarely."""
    interleaved = Scripted({(ALICE, 0): ((1, 1), False), (BOB, 2): ((0,), False),
                            (ALICE, 1): ((1,), True), (BOB, 3): ((0, 1), True)})
    record = run(interleaved, None, None, 0)
    assert record == reference_run(interleaved, None, None, 0)
    assert_checked_transcript(record)
    assert record.transcript.tokens() == "A1A1B0A1B0B1"
    assert (record.y_a, record.y_b, record.t) == (1, -1, 6)  # parities 0 and 3
    stalled = Scripted({(ALICE, 0): ((1,), False)})
    for runner in (run, reference_run):
        with pytest.raises(ProtocolError, match="deadlocked.*'A1'"):
            runner(stalled, None, None, 0)
    # one Action object sends Alice's bits and then Bob's, tagged with each sender
    shared = {}
    echo = Scripted({(ALICE, 0): ((1, 1), True), (BOB, 2): ((1, 1), True)}, shared=shared)
    record = run(echo, None, None, 0)
    assert len(shared) == 1 and record == reference_run(echo, None, None, 0)
    assert record.transcript.tokens() == "A1A1B1B1" and (record.y_a, record.y_b) == (1, 1)
    assert_checked_transcript(record)
    for cap in (1, 3):
        with pytest.raises(NonHaltingError) as info:
            run(echo, None, None, 0, cap=cap)
        assert info.value.partial_transcript.tokens() == "A1A1B1B1"[:2 * cap]
    assert_plain_action(*shared.values())


def assert_plain_action(action):
    """The entries an Action keeps for the runner leave its ==, hash and
    repr those of its send and output alone."""
    plain = Action(action.send, output=action.output)
    assert action == plain and hash(action) == hash(plain) == hash((action.send, action.output))
    assert repr(action) == f"Action(send={action.send!r}, output={action.output!r})"
    assert action != Action(action.send + (1,), output=action.output)


def assert_checked_transcript(record):
    """The runner's transcript, built without validation, is the one the
    validating constructor makes of its entries: (Party, int) pairs."""
    transcript = record.transcript
    assert transcript == Transcript(transcript.entries)
    assert type(transcript.entries) is tuple and record.t == len(transcript)
    assert all(type(entry) is tuple and len(entry) == 2 for entry in transcript.entries)
    assert all(type(party) is Party and type(bit) is int for party, bit in transcript.entries)


def test_partition_validates_no_transcript_and_shares_actions(monkeypatch):
    """No timing: the partition's 1,024 generic runs at n = 4 validate no
    Transcript and build at most 2^n + 7 Actions, not three per run."""
    built = Counter()
    for cls in (Action, Transcript):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    n = 4
    protocol = SendAllReplyProtocol(n)
    partition = partition_inputs(protocol, n, 6)
    assert partition.cell_count == 1 and len(partition.cells[0].vectors) == 2**n
    assert built["Transcript"] == 0
    assert 2**n <= built["Action"] <= 2**n + 7 < 3 * 2**n * n**3
    # the counters see every construction: a refusal validates its transcript
    Transcript(((ALICE, 1),))
    with pytest.raises(NonHaltingError):
        run(Babbler(), None, None, 0, cap=2)
    assert built["Transcript"] == 2


def test_exact_checking_requires_finite_space():
    class Sampler:
        pass

    p = TwoBranch()
    p.lambda_space = Sampler()
    with pytest.raises(InvariantError, match="finite"):
        check_exact_blqms(p, [])


def test_sampling_requires_a_space_with_sample():
    class NoSpace(Protocol):
        def step(self, party, own, lam, received):
            return Action(output=1)

    target = JointProbs(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    message = ("the sampled law without a batch_outcomes hook needs a finite "
               "RandomnessSpace, which protocol does not have")
    with pytest.raises(InvariantError, match=message):
        sample_distribution(NoSpace(), None, None, samples=4)
    with pytest.raises(InvariantError, match=message):
        check_exact_blqms(NoSpace(), [Scenario(None, None, target)], samples=4)


def test_check_exact_blqms_flags():
    p = TwoBranch()
    hit = Scenario("h", "h", JointProbs(Fraction(1), Fraction(0),
                                        Fraction(0), Fraction(0)))
    miss = Scenario("m", "m", JointProbs(Fraction(1, 2), Fraction(0),
                                         Fraction(0), Fraction(1, 2)))
    report = check_exact_blqms(p, [hit, miss])
    assert report.mode == "exact" and report.scenarios == 2
    (failure,) = report.failures
    assert failure.label == "m|m" and failure.passed_restricted is False
    assert (failure.error_max, failure.error_pp) == (0.5, 0.5)
    assert failure.computed == hit.target and failure.target is miss.target
    assert report.all_full is False and report.all_restricted is False
    assert report.worst_error == 0.5
    only_hit = check_exact_blqms(p, iter([hit, hit]))
    assert only_hit.scenarios == 2 and only_hit.failures == ()
    assert only_hit.all_full is True and only_hit.worst_error == 0
    for samples in (None, 10):
        with pytest.raises(InvariantError, match="no scenarios"):
            check_exact_blqms(p, [], samples=samples)


def test_an_all_int_law_is_an_exact_target():
    """Int entries are stored as Fractions, so the exact audit takes an all-int
    point mass as a rational target, which `constant` meets."""
    a = SignVector.parse("++")
    report = check_exact_blqms(ConstantProtocol(), [Scenario(a, a, JointProbs(1, 0, 0, 0))])
    assert report.mode == "exact" and report.all_full is True and report.failures == ()


def test_check_exact_blqms_sampled_mode():
    p = TwoBranch()
    target = JointProbs(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    report = check_exact_blqms(p, [Scenario(None, None, target)],
                               samples=200, seed=4)
    assert report.mode == "sampled" and report.scenarios == 1
    assert report.all_full is None and report.all_restricted is None
    assert report.worst_error == 0.0  # the law is a point mass
    # sampled mode keeps no failure, however far off the target is
    far = JointProbs(Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    off = check_exact_blqms(p, [Scenario(None, None, far)], samples=200, seed=4)
    assert off.failures == () and off.worst_error == 1.0 and off.all_full is None



def test_guards_raise_invariant_errors():
    """Guards that no shipped protocol or command reaches."""
    class Sampler:
        def sample(self, rng):
            return 0

    p = TwoBranch()
    point_mass = JointProbs(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(InvariantError, match="2 points vs 1 weights"):
        RandomnessSpace((0, 1), (Fraction(1),))
    with pytest.raises(InvariantError,
                       match="sample_distribution parameter samples must be at least 1, got 0"):
        sample_distribution(p, None, None, samples=0)
    with pytest.raises(InvariantError, match="seed must be an integer"):
        check_exact_blqms(p, [Scenario(None, None, point_mass)],
                          samples=10, seed=1.5)
    with pytest.raises(InvariantError,
                       match="CostLaw.moment parameter k must be at least 1, got 0"):
        cost_law(p, None, None).moment(0)
    sampled = TwoBranch()
    sampled.lambda_space = Sampler()
    with pytest.raises(InvariantError, match="tail_mass needs a finite"):
        tail_mass(sampled, None, None, 1)
    float_target = Scenario("fl", "oaty", JointProbs(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(InvariantError, match=r"scenario 'fl\|oaty' has a float target"):
        check_exact_blqms(p, [Scenario(None, None, point_mass), float_target])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(costs=st.lists(st.integers(0, 64), min_size=2, max_size=12),
       data=st.data())
def test_exact_masses_past_int64(costs, data):
    """Law, cost law, moments E[T^k] and tails stay exact when the common
    weight denominator, and T^k, are past int64."""
    raw = [1] + data.draw(st.lists(st.integers(2**63, 2**80), min_size=len(costs) - 1,
                                   max_size=len(costs) - 1))
    weights = [Fraction(r, sum(raw)) for r in raw]
    space = RandomnessSpace(tuple(costs), weights)
    assert space.den == sum(raw) > 2**63 and space.numerators.dtype == object
    thresholds = data.draw(st.lists(st.integers(0, 70), max_size=5))
    p = CostIsPoint()
    p.lambda_space = space

    law = cost_law(p, None, None)
    by_cost = Counter()
    for c, w in zip(costs, weights):
        by_cost[c] += w
    assert law.costs == tuple(sorted(by_cost)) and law.den == space.den
    assert [Fraction(m, law.den) for m in law.masses] == [by_cost[c] for c in law.costs]
    assert all(type(value) is int for value in law.costs + law.masses)
    assert tuple(law.moment(k) for k in range(1, 13)) == tuple(
        sum((w * c**k for c, w in zip(costs, weights)), start=Fraction(0))
        for k in range(1, 13))
    for m in thresholds:
        expected = sum((w for c, w in zip(costs, weights) if c >= m), start=Fraction(0))
        assert tail_mass(p, None, None, m) == expected
        assert Fraction(law.tail(m), law.den) == expected
    even = sum((w for c, w in zip(costs, weights) if c % 2 == 0), start=Fraction(0))
    assert output_distribution(p, None, None) == JointProbs(
        even, Fraction(0), 1 - even, Fraction(0))


def test_cost_law_leaves_out_costs_seen_only_at_zero_weight_points():
    p = CostIsPoint()
    p.lambda_space = RandomnessSpace((7, 5, 0, 7), (Fraction(1, 4), 0, Fraction(1, 2),
                                                    Fraction(1, 4)))
    law = cost_law(p, None, None)
    assert (law.costs, law.masses, law.den) == ((0, 7), (2, 2), 4)
    assert law.tail(5) == law.tail(6) == law.tail(7) == 2
    assert tail_mass(p, None, None, 5) == Fraction(1, 2)
    assert law.moment(1) == Fraction(7, 2)


def test_exact_summaries_reuse_only_the_same_read_only_table():
    """`cost_law` and `output_distribution` keep their results in an `OutcomeTable`,
    one per reader and space, and reuse them while the hook returns that table over
    the same space.  Plain columns are read afresh on every call: a writeable column
    changed in place changes the next result, and an equal tuple or list of the
    table's columns is read again; so is the same table over another space."""
    p = Tabled()
    columns = [np.array([1, 1]), np.array([1, -1]), np.array([1, 3])]
    p.table = tuple(columns)
    assert cost_law(p, None, None).costs == (1, 3)
    assert output_distribution(p, None, None) == JointProbs(Fraction(1, 2), 0, Fraction(1, 2), 0)
    columns[1][1], columns[2][1] = 1, 5
    assert cost_law(p, None, None).costs == (1, 5)
    assert output_distribution(p, None, None) == JointProbs(1, 0, 0, 0)
    table = p.table = OutcomeTable(*columns)
    # the columns themselves, marked read-only: neither copied nor cast
    assert all(kept is given and not kept.flags.writeable for kept, given in zip(table, columns))
    law, probs = cost_law(p, None, None), output_distribution(p, None, None)
    assert cost_law(p, None, None) is law and output_distribution(p, None, None) is probs
    for plain in (tuple(columns), list(columns)):
        p.table = plain
        assert cost_law(p, None, None) is not law
        assert cost_law(p, None, None) == law and output_distribution(p, None, None) == probs
    p.table = table
    p.lambda_space = RandomnessSpace((0, 1), (Fraction(1, 4), Fraction(3, 4)))
    assert cost_law(p, None, None).masses == (1, 3)
    assert output_distribution(p, None, None) == JointProbs(1, 0, 0, 0)
    assert len(table.summaries) == 4  # two readers over two spaces


def test_tail_check_reads_a_cached_table_only_when_it_changes(monkeypatch):
    """send_all_reply's tail check asks its hook once per pair, and checks and
    sorts the columns of each distinct table once: promise order alternates the
    a.b = n and a.b = 0 tables, and each keeps its cost law, one entry over the
    one grid space that every instance at this n shares."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    n = 4
    p = SendAllReplyProtocol(n)
    a = SignVector.parse("++++")
    tables = [p.outcome_table(a, SignVector.parse(b)) for b in ("++++", "++--")]
    for table in tables:  # as no earlier reader left them
        table.summaries.clear()
    monkeypatch.setattr(harness, "_rows", counted("rows", harness._rows))
    monkeypatch.setattr(SendAllReplyProtocol, "outcome_table",
                        counted("hook", SendAllReplyProtocol.outcome_table))
    report = check_tail_hypothesis(p, n, n + 2)
    assert report.ok and report.pairs_checked == calls["hook"] == 2**n * (1 + math.comb(n, n // 2))
    assert calls["rows"] == 2
    assert [list(table.summaries) for table in tables] == \
        [[(harness._cost_law_of, p.lambda_space)]] * 2
    assert SendAllReplyProtocol(n).lambda_space is p.lambda_space


def test_many_cached_tables_are_each_read_once_per_reader(monkeypatch):
    """A hook that cycles through 20 cached `OutcomeTable`s (more than a memo of
    16 entries would keep) has each table's columns checked once per reader over
    3 passes, and every result equals a fresh read of that table.  A plain tuple
    of read-only columns is read again on every call."""
    reads = Counter()

    def counted(table, count, hook):
        reads[id(table)] += 1
        return rows(table, count, hook)

    rows = harness._rows
    monkeypatch.setattr(harness, "_rows", counted)
    p = ByInput()
    space = p.lambda_space
    p.tables = [OutcomeTable(np.array([1, 1]), np.array([1, (-1) ** k]), np.array([k, 2 * k]))
                for k in range(20)]
    for _ in range(3):
        for k, table in enumerate(p.tables):
            assert cost_law(p, k, None) == harness._cost_law_of(space, *table)
            assert output_distribution(p, k, None) == harness._law_of(space, *table)
    assert reads == {id(table): 2 for table in p.tables}
    plain = tuple(p.tables[0])
    p.tables = [plain]
    reads.clear()
    for _ in range(3):
        cost_law(p, 0, None)
        output_distribution(p, 0, None)
    assert reads == {id(plain): 6}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(raw=st.lists(st.integers(0, 1000), min_size=1, max_size=30).filter(any),
       seed=st.integers(0, 2**32 - 1))
def test_sample_index_matches_per_draw_cdf(raw, seed):
    """The CDF computed once draws the same sequence as rebuilding it on
    every draw, so seeded reports do not move."""
    weights = [Fraction(r, sum(raw)) for r in raw]
    space = RandomnessSpace(tuple(range(len(raw))), weights)
    cached, rebuilt = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(1000):
        cdf = np.cumsum(np.array([float(w) for w in weights]))
        expected = int(np.searchsorted(cdf, rebuilt.random(), side="right"))
        assert space.sample_index(cached) == expected


class _Draws:
    """Stub generator whose `random()` returns the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_sample_index_lands_on_positive_weight_below_one():
    top = 1 - 2**-53  # the largest double below 1
    uniform = RandomnessSpace.uniform(range(10))
    assert np.cumsum([0.1] * 10)[-1] <= top  # the float sum falls short of 1
    assert uniform.sample_index(_Draws(top)) == 9
    assert [uniform.sample_index(_Draws((k + 0.5) / 10)) for k in range(10)] == \
        list(range(10))
    trailing = RandomnessSpace((0, 1, 2, 3), (Fraction(1, 3), Fraction(2, 3), 0, 0))
    assert [trailing.sample_index(_Draws(x)) for x in (0.0, 0.3, 0.34, 0.9, top)] == \
        [0, 0, 1, 1, 1]
    leading = RandomnessSpace((0, 1, 2), (0, Fraction(1, 10), Fraction(9, 10)))
    assert [leading.sample_index(_Draws(x)) for x in (0.0, 0.05, 0.1, top)] == [1, 1, 2, 2]


def _law_errors_reference(computed, target):
    """`_law_errors` through `==` on every entry type."""
    deltas = [0 if c == t else abs(c - t) for c, t in zip(
        computed.as_dict().values(), target.as_dict().values())]
    return max(deltas), deltas[0]


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
LAWS = {
    "fraction": JointProbs(HALF, Fraction(0), Fraction(0), HALF),
    "fraction other": JointProbs(QUARTER, QUARTER, QUARTER, QUARTER),
    "fraction near": JointProbs(HALF, Fraction(0), Fraction(1, 10**30), HALF - Fraction(1, 10**30)),
    "int": JointProbs(1, 0, 0, 0),
    "float": JointProbs(0.5, 0.0, 0.0, 0.5),
    "float other": JointProbs(0.25, 0.25, 0.25, 0.25),
    "mixed": JointProbs(HALF, 0, 0.0, HALF),
}


@pytest.mark.parametrize("target", LAWS.values(), ids=LAWS.keys())
@pytest.mark.parametrize("computed", LAWS.values(), ids=LAWS.keys())
def test_law_errors_match_fraction_equality(computed, target):
    got, want = _law_errors(computed, target), _law_errors_reference(computed, target)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def reference_check_exact(protocol, scenarios):
    """`check_exact_blqms` in exact mode with `_law_errors` called on every pair,
    every failure listed and then cut to the report's witnesses: the first 20,
    the first restricted failure and both counts."""
    count, worst, failures = 0, 0, []
    for s in scenarios:
        computed = output_distribution(protocol, s.input_a, s.input_b)
        error_max, error_pp = _law_errors(computed, s.target)
        count += 1
        worst = max(worst, error_max)
        if error_max:
            failures.append(ScenarioResult(pair_label(s.input_a, s.input_b), computed, s.target,
                                           float(error_max), float(error_pp), error_pp == 0))
    restricted = [f for f in failures if not f.passed_restricted]
    return BlqmsReport(count, tuple(failures[:20]), len(failures), len(restricted),
                       restricted[0] if restricted else None, float(worst), "exact", None, None)


class LawByName(Protocol):
    """A closed-form law that hands back one shared `LAWS` object per name, as
    the cached laws of the promise family do."""

    name = "law_by_name"
    lambda_space = RandomnessSpace.uniform((0,))

    def step(self, party, own, lam, received):
        return Action(output=1)

    def exact_distribution(self, input_a, input_b):
        return LAWS[input_a]


# (law the protocol returns, target) per pair, the target a shared `LAWS` object
# unless it is a distinct copy
MEMO_STREAMS = {
    # the same target object right after a passing pair, a different failing law
    "target kept, law fails": [("fraction", "fraction"), ("fraction other", "fraction"),
                               ("fraction", "fraction")],
    # the same law object against a different target, failing then passing
    "law kept, target moves": [("fraction", "fraction"), ("fraction", "fraction near"),
                               ("fraction", "fraction other"), ("fraction", "fraction")],
    "law kept after a failure": [("int", "fraction"), ("int", "fraction"),
                                 ("fraction near", "fraction"),
                                 ("fraction near", "fraction near"),
                                 ("fraction near", "fraction near")],
    # an equal target that is a distinct object is compared again
    "equal target copied": [("fraction other", "fraction"), ("fraction other", "fraction copy")],
}


def _memo_target(name):
    if name == "fraction copy":
        return JointProbs(*LAWS["fraction"].as_dict().values())
    return LAWS[name]


@pytest.mark.parametrize("stream", MEMO_STREAMS.values(), ids=MEMO_STREAMS.keys())
def test_law_audit_memo_hides_no_failure(stream):
    scenarios = [Scenario(law, str(index), _memo_target(target))
                 for index, (law, target) in enumerate(stream)]
    report = check_exact_blqms(LawByName(), scenarios)
    assert report == reference_check_exact(LawByName(), scenarios)
    assert report.failures  # every stream has a failing pair


def test_law_audit_keeps_a_bounded_witness_list():
    """Past the first 20 failures only the counts and the first restricted
    failure are kept, however late that comes; the reference lists them all."""
    scenarios = list(promise_scenarios(4))
    late = [s for s in scenarios if s.input_a != s.input_b] + [
        s for s in scenarios if s.input_a == s.input_b]
    report = check_exact_blqms(ConstantProtocol(y_b=-1), late)
    assert report == reference_check_exact(ConstantProtocol(y_b=-1), late)
    assert len(report.failures) == 20 and all(f.passed_restricted for f in report.failures)
    assert (report.failure_count, report.restricted_failure_count) == (112, 16)
    first = report.first_restricted_failure
    assert first.label == pair_label(late[96].input_a, late[96].input_b) == "----|----"
    assert report.all_full is False and report.all_restricted is False


def test_law_audit_compares_each_repeated_pair_of_laws_once(monkeypatch):
    expected = reference_check_exact(SendAllReplyProtocol(4), promise_scenarios(4))
    calls = Counter()

    def counted(computed, target):
        calls["_law_errors"] += 1
        return _law_errors(computed, target)

    monkeypatch.setattr(harness, "_law_errors", counted)
    report = check_exact_blqms(SendAllReplyProtocol(4), promise_scenarios(4))
    # per vector a, the diagonal pair and the first of its a.b = 0 pairs are new
    assert (report.scenarios, calls["_law_errors"]) == (112, 2 * 2**4)
    assert report == expected
