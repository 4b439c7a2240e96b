"""Deterministic two-party protocol runner and its measurement utilities.

A protocol is a pair of deterministic next-action functions behind one
`step` method: given (party, own input, shared randomness, bits received so
far) it returns an `Action` that sends zero or more bits and may halt with
a +/-1 output.  The runner asks a party again only after new bits arrive
for it, so consecutive bits from one sender always come from a single
action; Alice is asked first.  Every run is a pure function of
(protocol, input_A, input_B, lambda), which is what makes transcripts
replayable by a single party during certificate verification.

`run` trusts only its own transcript entries, party constants and bits that
`Action` has checked, and does not validate them again; every other
`Transcript` is checked.

Costs count every transmitted bit from both parties.  A run that exceeds
its bit budget raises NonHaltingError instead of truncating.  On a finite
space the law of the cost T for one input pair is one `cost_law`: its
support and integer masses, from which every tail mass and moment is read.
"""

from __future__ import annotations

import abc
import math
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvariantError, NonHaltingError, ProtocolError
from .oracle import JointProbs, SignVector, _at_least, _integer, _members


class Party(Enum):
    ALICE = "A"
    BOB = "B"


ALICE = Party.ALICE
BOB = Party.BOB
# (y_A, y_B) in JointProbs order; also the order of cumulative quantile cuts
OUTCOMES = ((1, 1), (-1, 1), (1, -1), (-1, -1))
_BITS = frozenset((0, 1))
# the four transcript entries, shared by every transcript: [sender, 0 = Alice][bit]
_ENTRY = tuple(((party, 0), (party, 1)) for party in (ALICE, BOB))


@dataclass(frozen=True)
class Action:
    """One move: send the given bits, then halt iff output is set."""

    send: tuple[int, ...] = ()
    output: Optional[int] = None
    # `send` as transcript entries, one tuple per sender, 0 = Alice and 1 = Bob
    _entries: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        send = tuple(self.send)
        if not _members(_BITS, send):
            raise ProtocolError(f"sent bits must be 0/1, got {send}")
        send = tuple(map(int, send))
        object.__setattr__(self, "send", send)
        object.__setattr__(self, "_entries", tuple(
            tuple(map(entry.__getitem__, send)) for entry in _ENTRY))
        output = self.output  # an int, so True and 1.0 are refused
        if output is not None and (type(output) is not int or output not in (-1, 1)):
            raise ProtocolError(f"output must be the int +1 or -1, got {output!r}")


class CheckResult(NamedTuple):
    """Accept/reject verdict with a human-readable reason on reject."""

    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class Transcript:
    """Ordered public record of every transmitted bit with its sender."""

    entries: tuple[tuple[Party, int], ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        try:
            senders, bits = zip(*entries, strict=True) if entries else ((), ())
            senders = tuple(map(Party, senders))
        except (TypeError, ValueError):
            raise InvariantError("entries must be (sender, bit) pairs, sender A or B") from None
        if not _members(_BITS, bits):
            raise InvariantError("transcript bits must be 0/1")
        bits = tuple(map(int, bits))
        object.__setattr__(self, "entries", tuple(zip(senders, bits)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def tokens(self) -> str:
        """Dump as a string over the four tokens A0, A1, B0, B1."""
        return "".join(f"{p.value}{b}" for p, b in self.entries)


class RunRecord(NamedTuple):
    """Outcome of one deterministic run."""

    y_a: int
    y_b: int
    transcript: Transcript
    t: int

    @property
    def g(self) -> int:
        """Joint success indicator [y_A = +1 and y_B = +1]."""
        return int(self.y_a == 1 and self.y_b == 1)


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """Rationals as integer numerators over their least common denominator:
    read-only Python ints in an object array, so no sum of them can wrap."""
    den = math.lcm(*(v.denominator for v in values))
    nums = np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)
    nums.setflags(write=False)
    return nums, den


@dataclass(frozen=True, eq=False)
class RandomnessSpace:
    """Finite weighted set of shared-randomness points; weights sum to 1.

    The weights are held only as integer `numerators` over one common
    denominator `den`, so every exact mass is an integer sum divided once.
    """

    points: tuple
    weights: InitVar[Sequence]
    numerators: np.ndarray = field(init=False, repr=False)
    den: int = field(init=False, repr=False)

    def __post_init__(self, weights):
        points = tuple(self.points)
        try:
            weights = tuple(Fraction(w) for w in weights)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvariantError(f"weights must be rationals: {exc}") from exc
        if not points:
            raise InvariantError("randomness space needs at least one point")
        if len(points) != len(weights):
            raise InvariantError(f"{len(points)} points vs {len(weights)} weights")
        numerators, den = _over_common_denominator(weights)
        if (numerators < 0).any():
            raise InvariantError("weights must be nonnegative")
        if numerators.sum() != den:
            raise InvariantError(
                f"weights sum to {Fraction(numerators.sum(), den)}, expected 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "den", den)

    @classmethod
    def uniform(cls, points) -> "RandomnessSpace":
        try:
            points = tuple(points)  # no points: no weights, which __post_init__ refuses
        except TypeError:
            raise InvariantError(
                f"RandomnessSpace.uniform needs an iterable of points, got {points!r}") from None
        return cls(points, (Fraction(1, len(points)),) * len(points) if points else ())

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _cdf(self) -> tuple[float, ...]:
        """Float CDF, exactly 1.0 from the last positive weight on, so every
        draw in [0, 1) lands on a point of positive weight."""
        # int / int rounds the rational once, as float(Fraction) does
        cdf = np.cumsum(np.array([w / self.den for w in self.numerators.tolist()]))
        cdf[np.flatnonzero(self.numerators)[-1]:] = 1.0
        return tuple(cdf.tolist())

    def sample_index(self, rng: np.random.Generator) -> int:
        return bisect_right(self._cdf, rng.random())

    def mass(self, mask: np.ndarray) -> int:
        """Weight numerator, over `den`, of the points where mask holds."""
        return self.numerators[mask].sum()


class OutcomeTable(tuple):
    """An `outcome_table` hook's (y_a, y_b, t), each column marked read-only as
    given, neither copied nor cast.  The exact readers keep their results for it
    in `summaries`, one per (reader, space), so a table cached per law is read once
    per reader; a table shared between protocols should share their space too."""

    def __new__(cls, y_a, y_b, t):
        columns = tuple(map(np.asarray, (y_a, y_b, t)))
        for column in columns:
            column.setflags(write=False)
        table = super().__new__(cls, columns)
        table.summaries = {}
        return table


class Protocol(abc.ABC):
    """Base contract for pluggable protocols; every audit runs over the
    protocol's own randomness.  That is a finite `RandomnessSpace`, which
    exact audits enumerate and sampled audits draw from by `sample_index`,
    or `None` with a `batch_outcomes` hook, its only sampled path."""

    name: str = "protocol"
    lambda_space = None  # a RandomnessSpace, or None with a batch_outcomes hook
    # input contract, read from the class: the input kind named in errors,
    # its text parser, and the text used when none is given (None: required)
    input_kind: str = "sign vector"
    parse_input = staticmethod(SignVector.parse)
    default_input: Optional[str] = None

    @abc.abstractmethod
    def step(self, party: Party, own_input, lam, received: tuple[int, ...]) -> Action:
        """Next action for `party` given everything it can see."""

    def default_cap(self, input_a, input_b) -> int:
        """Bit budget 10n + 64, with n the larger sized-input length."""
        n = 0
        for value in (input_a, input_b):
            try:
                n = max(n, len(value))
            except TypeError:
                pass
        return 10 * n + 64

    def outcome_table(self, input_a, input_b):
        """Optional fast path: (y_a, y_b, t) as 1-D integer arrays, one entry
        per point of `lambda_space` in its order, no cost negative, matching `run`.

        Return None to use the generic per-point runner.  Implementations
        must agree with `run` exactly; `tests/test_conformance.py` compares
        them with `run` at every point of every promise pair up to n = 4.
        Return an `OutcomeTable` to have its summaries kept; its columns must
        never change, since its summaries are reused whenever it comes back.
        """
        return None

    def exact_distribution(self, input_a, input_b):
        """Optional closed-form law, identical to enumerating every point."""
        return None

    def batch_outcomes(self, input_a, input_b, rng, count: int):
        """Optional vectorized sampler: `outcome_table`'s rows over `count` draws."""
        return None


def run(protocol: Protocol, input_a, input_b, lam, *,
        cap: Optional[int] = None) -> RunRecord:
    """Execute one deterministic run and record outputs, transcript, cost."""
    if cap is None:
        cap = protocol.default_cap(input_a, input_b)
    # per party: the bits heard (the tuple `step` reads), how many it had heard
    # when it last acted, and its output
    step = protocol.step
    heard_a = heard_b = ()
    acted_a = acted_b = -1
    out_a = out_b = None
    entries: list[tuple[Party, int]] = []

    while out_a is None or out_b is None:
        progressed = False
        if out_a is None and acted_a < len(heard_a):
            action = step(ALICE, input_a, lam, heard_a)
            if not isinstance(action, Action):
                raise ProtocolError(f"step returned {type(action).__name__}, not Action")
            acted_a, progressed = len(heard_a), True
            send = action.send
            if send:
                if len(entries) + len(send) > cap:
                    raise _over_cap(protocol, cap, entries, action._entries[0])
                entries += action._entries[0]
                heard_b += send
            out_a = action.output
        if out_b is None and acted_b < len(heard_b):
            action = step(BOB, input_b, lam, heard_b)
            if not isinstance(action, Action):
                raise ProtocolError(f"step returned {type(action).__name__}, not Action")
            acted_b, progressed = len(heard_b), True
            send = action.send
            if send:
                if len(entries) + len(send) > cap:
                    raise _over_cap(protocol, cap, entries, action._entries[1])
                entries += action._entries[1]
                heard_a += send
            out_b = action.output
        if not progressed:
            raise ProtocolError(
                f"{protocol.name} deadlocked: no party can act "
                f"(transcript so far: {Transcript(tuple(entries)).tokens()!r})"
            )

    transcript = object.__new__(Transcript)  # entries the runner built, not validated again
    vars(transcript)["entries"] = tuple(entries)
    return RunRecord(out_a, out_b, transcript, len(entries))


def _over_cap(protocol: Protocol, cap: int, entries: list, sent: tuple) -> NonHaltingError:
    """The error for an action whose bits would pass the cap: it carries
    exactly the first `cap` bits of the transcript."""
    partial = tuple(entries) + sent[:max(cap - len(entries), 0)]
    return NonHaltingError(f"{protocol.name} exceeded the {cap}-bit budget",
                           partial_transcript=Transcript(partial))


def _finite_space(protocol: Protocol, audit: str) -> RandomnessSpace:
    """The protocol's own randomness, which an exact audit enumerates."""
    space = protocol.lambda_space
    if not isinstance(space, RandomnessSpace):
        raise InvariantError(f"{audit} needs a finite RandomnessSpace, "
                             f"which {protocol.name} does not have")
    return space


def _run_rows(protocol: Protocol, input_a, input_b, points) -> tuple[np.ndarray, ...]:
    """The generic runner: one `run` per point, in order, under one bit
    budget; (y_a, y_b, t) as int64 arrays, built once from the records."""
    cap = protocol.default_cap(input_a, input_b)
    rows = []
    for lam in points:
        record = run(protocol, input_a, input_b, lam, cap=cap)
        rows += record.y_a, record.y_b, record.t
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def _rows(table, count: int, hook: str) -> tuple[np.ndarray, ...]:
    """A hook's (y_a, y_b, t) as given, uncopied at their own dtypes: three 1-D
    integer columns of `count` >= 1 entries, no cost negative.  Outputs other than
    +/-1 are left to the law's sum check, which refuses them wherever y is read."""
    try:
        columns = [np.asarray(column) for column in table]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{hook} returned no (y_a, y_b, t) columns: {exc}") from None
    if (len(columns) != 3 or any(c.shape != (count,) or not np.issubdtype(c.dtype, np.integer)
                                 for c in columns) or columns[2].min() < 0):
        raise ProtocolError(f"{hook} returned {[f'{c.dtype}{list(c.shape)}' for c in columns]}; "
                            f"(y_a, y_b, t) must be three 1-D integer arrays of {count} "
                            "entries with no negative cost")
    return tuple(columns)


def _table_summary(summarise, protocol: Protocol, space: RandomnessSpace, input_a, input_b):
    """`summarise(space, y_a, y_b, t)` over the `outcome_table` hook's rows, asked once
    per call, else the generic runner's; kept only by an `OutcomeTable` it returns."""
    table = protocol.outcome_table(input_a, input_b)
    kept = table.summaries if isinstance(table, OutcomeTable) else {}
    summary = kept.get((summarise, space))
    if summary is None:
        rows = (_run_rows(protocol, input_a, input_b, space.points) if table is None
                else _rows(table, len(space), "outcome_table"))
        summary = kept[summarise, space] = summarise(space, *rows)
    return summary


def _law_of(space: RandomnessSpace, y_a, y_b, t) -> JointProbs:
    return JointProbs(*(Fraction(space.mass((y_a == a) & (y_b == b)), space.den)
                        for a, b in OUTCOMES))


def output_distribution(protocol: Protocol, input_a, input_b) -> JointProbs:
    """Exact joint law of (y_A, y_B) by weighted enumeration of the space.

    Protocols may supply the same law in closed form via
    `exact_distribution`; equivalence with enumeration is covered by tests.
    """
    space = _finite_space(protocol, "the exact law")
    closed = protocol.exact_distribution(input_a, input_b)
    if closed is not None:
        return closed
    return _table_summary(_law_of, protocol, space, input_a, input_b)


@dataclass(frozen=True)
class SampleStats:
    """Monte Carlo estimate of the joint law plus cost telemetry."""

    probs: JointProbs
    t_mean: float
    t_max: int
    samples: int
    seed: object


def sample_distribution(protocol: Protocol, input_a, input_b, *,
                        samples: int, seed=0) -> SampleStats:
    """Estimate the joint law with a seeded generator: an integer seed >= 0
    or a `np.random.SeedSequence`, reported back."""
    samples = _at_least("sample_distribution", "samples", samples, 1)
    if not isinstance(seed, np.random.SeedSequence):
        seed = _at_least("sample_distribution", "seed", seed, 0)
    rng = np.random.default_rng(seed)
    batch = protocol.batch_outcomes(input_a, input_b, rng, samples)
    if batch is not None:
        y_a, y_b, t = _rows(batch, samples, "batch_outcomes")
    else:  # one draw per sample, in order
        space = _finite_space(protocol, "the sampled law without a batch_outcomes hook")
        y_a, y_b, t = _run_rows(protocol, input_a, input_b,
                                (space.points[space.sample_index(rng)] for _ in range(samples)))
    probs = JointProbs(*(float(np.count_nonzero((y_a == a) & (y_b == b))) / samples
                         for a, b in OUTCOMES))
    return SampleStats(probs, float(t.mean()), int(t.max()), samples, seed)


class Scenario(NamedTuple):
    """One comparison target: protocol inputs plus the predicted joint law."""

    input_a: object
    input_b: object
    target: JointProbs


@dataclass(frozen=True)
class ScenarioResult:
    """An exact-mode scenario whose law differs from its target."""

    label: str
    computed: JointProbs
    target: JointProbs
    error_max: float
    error_pp: float
    passed_restricted: bool


WITNESS_LIMIT = 20


@dataclass(frozen=True)
class BlqmsReport:
    """Simulated laws against quantum targets: the scenario count, the worst
    error, and bounded exact-mode witnesses: the first `WITNESS_LIMIT` failures
    in scenario order, the first restricted failure, and both failure counts.

    `passed_restricted` checks p_pp alone (the joint +1 outcome); the full
    check compares all four probabilities.  In sampled mode no scenario
    fails, both flags are None and only the error magnitude is reported.
    """

    scenarios: int
    failures: tuple[ScenarioResult, ...]  # the first WITNESS_LIMIT
    failure_count: int
    restricted_failure_count: int
    first_restricted_failure: Optional[ScenarioResult]
    worst_error: float
    mode: str  # "exact" or "sampled"
    samples: Optional[int]
    seed: object

    @property
    def all_full(self) -> Optional[bool]:
        return None if self.mode == "sampled" else not self.failure_count

    @property
    def all_restricted(self) -> Optional[bool]:
        return None if self.mode == "sampled" else not self.restricted_failure_count


def _law_errors(computed: JointProbs, target: JointProbs) -> tuple:
    """Largest and p_pp absolute differences, exact for rational laws."""
    # equal entries give an exact 0 without a subtraction
    deltas = [0 if c == t else abs(c - t) for c, t in zip(
        computed.as_dict().values(), target.as_dict().values())]
    return max(deltas), deltas[0]


def check_exact_blqms(protocol: Protocol, scenarios: Iterable[Scenario], *,
                      samples: Optional[int] = None, seed=0) -> BlqmsReport:
    """Compare the protocol's output law against each scenario's target.

    By default the finite space is enumerated, every target must be
    rational, and a scenario passes iff its law equals the target exactly.
    With `samples` set, the law is estimated from a per-scenario seed
    instead and no scenario fails.  The scenarios are read once, in one
    pass; only a witness kept in the report builds a result and a label.
    """
    sampled = samples is not None
    if not sampled:
        _finite_space(protocol, "exact checking")
    else:
        seed = _at_least("check_exact_blqms", "seed", seed, 0)
    # the last comparison: consecutive promise pairs share both cached laws, and the
    # strong references keep the identity test sound on frozen laws
    count, worst, last = 0, 0, (None, None, None)
    failures, failure_count, restricted_count, first_restricted = [], 0, 0, None
    for index, scenario in enumerate(scenarios):
        input_a, input_b, target = scenario.input_a, scenario.input_b, scenario.target
        if sampled:
            computed = sample_distribution(
                protocol, input_a, input_b, samples=samples,
                seed=np.random.SeedSequence([seed, index])).probs
        elif not target.exact:
            raise InvariantError(f"scenario {pair_label(input_a, input_b)!r} has a float "
                                 "target; exact checking needs a rational one")
        else:
            computed = output_distribution(protocol, input_a, input_b)
        if computed is not last[0] or target is not last[1]:
            last = computed, target, _law_errors(computed, target)
        error_max, error_pp = last[2]
        count += 1
        worst = max(worst, error_max)
        if error_max and not sampled:
            failure_count += 1
            restricted_count += error_pp != 0
            first = error_pp != 0 and first_restricted is None
            if first or len(failures) < WITNESS_LIMIT:
                result = ScenarioResult(pair_label(input_a, input_b), computed, target,
                                        float(error_max), float(error_pp), error_pp == 0)
                if len(failures) < WITNESS_LIMIT:
                    failures.append(result)
                first_restricted = result if first else first_restricted
    if not count:
        raise InvariantError("no scenarios to check; an empty audit would pass vacuously")
    mode = ("sampled", samples, seed) if sampled else ("exact", None, None)
    return BlqmsReport(count, tuple(failures), failure_count, restricted_count,
                       first_restricted, float(worst), *mode)


def describe_input(value) -> str:
    return value.to_text() if isinstance(value, SignVector) else str(value)


def pair_label(input_a, input_b) -> str:
    return f"{describe_input(input_a)}|{describe_input(input_b)}"


@dataclass(frozen=True)
class CostLaw:
    """The exact law of the cost T on one input pair: its support in
    ascending order, each cost with its weight numerator over `den`."""

    costs: tuple[int, ...]
    masses: tuple[int, ...]
    den: int

    def tail(self, threshold: int) -> int:
        """Numerator, over `den`, of mass(T >= threshold)."""
        threshold = _integer("CostLaw.tail", "threshold", threshold)
        return sum(self.masses[bisect_left(self.costs, threshold):])

    def moment(self, k: int) -> Fraction:
        """E[T^k] for an order k >= 1."""
        k = _at_least("CostLaw.moment", "k", k, 1)
        return Fraction(sum(c**k * m for c, m in zip(self.costs, self.masses)), self.den)


def cost_law(protocol: Protocol, input_a, input_b) -> CostLaw:
    """The law of T by weighted enumeration of a finite space: one mass per
    distinct cost, and a cost seen only at zero-weight points is left out."""
    space = _finite_space(protocol, "the cost law")
    return _table_summary(_cost_law_of, protocol, space, input_a, input_b)


def _cost_law_of(space: RandomnessSpace, y_a, y_b, t) -> CostLaw:
    ordered = np.sort(t)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))].tolist()
    costs, masses = zip(*((c, m) for c in distinct if (m := space.mass(t == c))))
    return CostLaw(costs, masses, space.den)


def tail_mass(protocol: Protocol, input_a, input_b, threshold: int) -> Fraction:
    """Exact randomness mass of runs with T >= threshold."""
    _finite_space(protocol, "tail_mass")  # refused under its own name
    threshold = _integer("tail_mass", "threshold", threshold)
    law = cost_law(protocol, input_a, input_b)
    return Fraction(law.tail(threshold), law.den)
