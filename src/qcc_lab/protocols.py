"""Reference protocols pluggable into the harness.

Three constructions with very different cost profiles:

  * send_all_reply: Alice ships her whole sign vector, Bob samples the
    exact joint law off a shared rational grid and replies with Alice's
    outcome bit.  Exact on the promise family at n + 1 bits per run.
  * toner_bacon: the classic 1-bit simulation of projective measurements
    on the singlet state, driven by two shared uniform sphere points.
  * constant: transmits nothing and outputs fixed values; a deliberately
    wrong baseline for failure-path tests.

The send-all-reply construction is this package's own exact baseline for
the restricted sign-vector family; it makes no claim about simulating
arbitrary measurements with bounded communication.

A new protocol is one dataclass, whose init fields are its integer
parameters and whose class attributes carry its input contract, plus
one entry in `PROTOCOLS`.
"""

from __future__ import annotations

import bisect
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, PromiseViolationError
from .harness import _BITS, ALICE, OUTCOMES, Action, OutcomeTable, Party, Protocol, RandomnessSpace
from .oracle import JointProbs, SignVector, _at_least, _integer, _members, _unit3


def _sgn(x: float) -> int:
    """Sign with the 0 -> +1 convention used throughout."""
    return 1 if x >= 0 else -1


class _Law(NamedTuple):
    """send_all_reply's law at one (n, a.b), in the three forms its readers take."""

    cuts: tuple[int, int, int]  # Bob's cumulative cuts, as numerators over n^3
    probs: JointProbs  # `exact_distribution`'s law
    columns: OutcomeTable  # `outcome_table`'s (y_a, y_b, t)


@lru_cache(maxsize=None)
def _law(n: int, dot: int) -> _Law:
    """The law of a pair with a.b = dot over the n^3 grid.  The cuts, for outcome
    order pp, mp, pm, mm, are (a.b)^2, then n^2 (the marginal 1/n), then
    2 n^2 - (a.b)^2; each outcome's count of grid points is the gap below its cut.

    The law depends on the inputs only through n and a.b, so on the promise
    the cache holds two keys per n; an off-promise a.b raises and is not kept.
    """
    if dot not in (0, n):
        raise PromiseViolationError(
            f"send_all_reply inputs must satisfy the promise, got a.b = {dot}"
        )
    cube = n**3
    cuts = dot * dot, n * n, 2 * n * n - dot * dot
    counts = [high - low for low, high in zip((0, *cuts), (*cuts, cube))]
    # the point k / n^3 is at or past the cut c / n^3 iff k >= c, so each
    # outcome covers a run of consecutive grid points
    outcomes = np.repeat(np.array(OUTCOMES), counts, axis=0)
    columns = OutcomeTable(outcomes[:, 0], outcomes[:, 1], np.full(cube, n + 1))
    return _Law(cuts, JointProbs(*(Fraction(c, cube) for c in counts)), columns)


@lru_cache(maxsize=None)
def _grid(n: int) -> RandomnessSpace:
    """The uniform grid {k / n^3}, one space per n: every instance's tables are
    then summarised over the same space, so each keeps one summary per reader."""
    return RandomnessSpace.uniform(tuple(Fraction(k, n**3) for k in range(n**3)))


def _floor_scaled(lam, scale: int) -> int:
    """floor(lam * scale), exact for int, Fraction and finite float lam."""
    try:
        num, den = (lam.as_integer_ratio() if isinstance(lam, float)
                    else (lam.numerator, lam.denominator))
    except (ValueError, OverflowError, AttributeError) as exc:  # nan, inf; None, str, np.float32
        kind = "an int, float or Fraction" if isinstance(exc, AttributeError) else "finite"
        raise InvariantError(f"randomness point must be {kind}, got {lam!r}") from None
    return num * scale // den


# `SendAllReplyProtocol.step`'s shared actions: wait, Alice's output per bit, Bob's per outcome
_WAIT = Action()
_ALICE_OUTPUTS = (Action(output=-1), Action(output=1))
_BOB_REPLIES = tuple(Action(send=((1 + y_a) // 2,), output=y_b) for y_a, y_b in OUTCOMES)


@dataclass(frozen=True, eq=False)
class SendAllReplyProtocol(Protocol):
    """Alice sends all n coordinate bits; Bob samples the law and replies.

    Shared randomness is one rational from the uniform grid
    {0, 1/n^3, ..., (n^3-1)/n^3}, so every quantile threshold lands exactly
    on a grid point and the output law is exact.  `step` is exact at any
    rational or float lambda, on the grid or off it.  Cost is n + 1 bits on
    every run.
    """

    n: int

    name = "send_all_reply"

    def __post_init__(self):
        n = _at_least(self.name, "n", self.n, 2, even=True)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_cube", n**3)  # grid size, and the scale of every cut
        object.__setattr__(self, "lambda_space", _grid(n))
        object.__setattr__(self, "_sends", {})  # Alice's send per vector index
        object.__setattr__(self, "_heard", {})  # Alice's vector per checked heard tuple

    def _own_vector(self, value) -> SignVector:
        if not isinstance(value, SignVector):
            raise InvariantError(f"{self.name} takes SignVector inputs, got {value!r}")
        if len(value.coords) != self.n:
            raise InvariantError(f"input length {value.n} does not match protocol n = {self.n}")
        return value

    def step(self, party: Party, own_input, lam, received: tuple[int, ...]) -> Action:
        own = self._own_vector(own_input)
        if party is ALICE:
            if not received:
                send = self._sends.get(own.index)
                if send is None:
                    send = self._sends[own.index] = Action(send=own.to_bits())
                return send
            bit = received[0]
            if type(bit) is int and 0 <= bit <= 1:
                return _ALICE_OUTPUTS[bit]
            return Action(output=2 * bit - 1)  # built and checked afresh: +/-1 or refused
        n = self.n
        if len(received) < n:
            return _WAIT  # still waiting for Alice's coordinates
        heard = received[:n]
        try:
            alice = self._heard[heard]
        except (KeyError, TypeError):  # not seen yet, or unhashable
            if not _members(_BITS, heard):
                raise InvariantError(f"received bits must be 0/1, got {heard}") from None
            alice = self._heard[heard] = SignVector.from_bits(heard)
        cuts = _law(n, own._dot(alice)).cuts
        # the outcome is indexed by the number of cuts at or below lam; for an
        # integer cut c, c / n^3 <= lam iff c <= floor(lam n^3)
        return _BOB_REPLIES[bisect.bisect_right(cuts, _floor_scaled(lam, self._cube))]

    def _pair_law(self, input_a, input_b) -> _Law:
        """The law of one input pair, which both hooks read; a.b is read
        unchecked once `_own_vector` has checked both inputs."""
        a = self._own_vector(input_a)
        b = self._own_vector(input_b)
        return _law(self.n, a._dot(b))

    def outcome_table(self, input_a, input_b):
        return self._pair_law(input_a, input_b).columns

    def exact_distribution(self, input_a, input_b) -> JointProbs:
        return self._pair_law(input_a, input_b).probs


# rows per sampled block: 2M samples take a median 0.26 s at 2^14, 0.27 s at 2^15 and
# 2^16, 0.33 s at 2^12 and 0.36 s at 2^18 (2 cores); temporaries stay near 1.5 MB
_BLOCK_ROWS = 2**14


def _normal_rows(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out`, rows of 3, with the generator's next standard normals in
    C order, the values `rng.normal(size=out.shape)` would give."""
    return rng.standard_normal(out=out)


def _norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, shape (..., 1): sqrt((x^2 + y^2) + z^2),
    summed in the order `np.linalg.norm(rows, axis=-1)` sums, so equal to it
    bit for bit, without its copies."""
    squares = rows * rows
    norms = squares[..., 0:1] + squares[..., 1:2]
    norms += squares[..., 2:3]
    return np.sqrt(norms, out=norms)


def _unit_blocks(rng: np.random.Generator, count: int):
    """Yield (start, rows) over the generator's next `count` rows of 3, in
    blocks of at most `_BLOCK_ROWS`: `rows` is one reused buffer, valid until
    the next block, holding the block's rows divided by their norms.  A row of
    zero norm is refused."""
    buf = np.empty((max(1, min(count, _BLOCK_ROWS)), 3))
    for start in range(0, count, len(buf)):
        rows = _normal_rows(rng, buf[:count - start])
        norms = _norms(rows)
        if not (norms > 0).all():  # about 2^-156 per row from a true normal stream
            raise InvariantError("a sampled sphere point has zero norm")
        rows /= norms
        yield start, rows


def _signs(positive: np.ndarray, out=None) -> np.ndarray:
    """+1 where `positive` holds, else -1, as int8 (written into `out` if
    given): 2 x - 1 in place, without `np.where`'s scalar broadcasts."""
    out = np.multiply(positive, 2, out=out, dtype=np.int8)
    out -= 1
    return out


def _sphere_points(lam) -> tuple[np.ndarray, np.ndarray]:
    """toner_bacon's randomness point (l1, l2) as two unit 3-vectors."""
    try:
        lam1, lam2 = lam
    except (TypeError, ValueError):  # not a pair
        raise InvariantError(f"randomness point must be two unit 3-vectors, got {lam!r}") from None
    return _unit3(lam1, "sphere point"), _unit3(lam2, "sphere point")


@dataclass(frozen=True, eq=False)
class TonerBaconProtocol(Protocol):
    """One-bit simulation of singlet-state spin correlations.

    Alice outputs -sgn(a.l1) and sends c = sgn(a.l1) sgn(a.l2); Bob outputs
    sgn(b.(l1 + c l2)).  Over uniform (l1, l2) this reproduces
    E(y_A y_B) = -a.b with unbiased marginals, at exactly 1 bit per run.
    """

    name = "toner_bacon"
    input_kind = "unit 3-vector"

    @staticmethod
    def parse_input(text: str) -> tuple[float, float, float]:
        parts = text.split(",")
        if len(parts) != 3:
            raise InvariantError(f"expected three comma-separated components, got {text!r}")
        return tuple(float(p) for p in parts)

    def step(self, party: Party, own_input, lam, received: tuple[int, ...]) -> Action:
        own = _unit3(own_input, "input")
        lam1, lam2 = _sphere_points(lam)
        if party is ALICE:
            s1 = _sgn(float(own @ lam1))
            s2 = _sgn(float(own @ lam2))
            return Action(send=((1 + s1 * s2) // 2,), output=-s1)
        if not received:
            return Action()  # Bob moves only after Alice's bit
        c = 2 * received[0] - 1
        return Action(output=_sgn(float(own @ (lam1 + c * lam2))))

    def batch_outcomes(self, input_a, input_b, rng, count: int):
        """The one sampled path: `count` pairs (l1, l2) of independent uniform
        unit 3-vectors, read from the generator as one `normal(size=(2, count, 3))`
        draw would, all of l1 and then all of l2, each row divided by its norm;
        a row of zero norm is refused."""
        # two passes over the stream in its one-shot order: the l1 pass writes
        # y_a and b.l1, and the l2 pass writes y_b.  Outputs are one byte each;
        # b.l1 is freed on return
        a, b = _unit3(input_a, "input"), _unit3(input_b, "input")
        y_a, y_b = np.empty((2, count), dtype=np.int8)
        bl1 = np.empty(count)
        for start, lam1 in _unit_blocks(rng, count):
            stop = start + len(lam1)
            _signs(lam1 @ a < 0, y_a[start:stop])  # -sgn(a.l1)
            np.matmul(lam1, b, out=bl1[start:stop])
        lam1 = None  # free l1's block buffer for the l2 pass (a `del` fails at count 0)
        for start, lam2 in _unit_blocks(rng, count):
            stop = start + len(lam2)
            # Bob's sgn(b.l1 + c b.l2), c = sgn(a.l1) sgn(a.l2), c = -1 where the signs
            # differ (y_a < 0 is sgn(a.l1) > 0).  This reassociates `step`'s
            # sgn(b.(l1 + c l2)): the two round differently, so they can disagree
            # only where Bob's value lies within rounding of 0
            flip = (lam2 @ a >= 0) != (y_a[start:stop] < 0)
            bl2 = lam2 @ b
            np.negative(bl2, out=bl2, where=flip)
            bl2 += bl1[start:stop]
            _signs(bl2 >= 0, y_b[start:stop])
        return y_a, y_b, np.broadcast_to(np.int64(1), (count,))  # read-only, no copy


@lru_cache(maxsize=None)
def _constant_columns(y_a: int, y_b: int) -> OutcomeTable:
    """`ConstantProtocol.outcome_table`'s (y_a, y_b, t) at its one point, cached:
    one key per pair of outputs, of which there are four."""
    return OutcomeTable(np.array([y_a]), np.array([y_b]), np.array([0]))


@dataclass(frozen=True, eq=False)
class ConstantProtocol(Protocol):
    """Outputs fixed values with zero communication; a broken baseline."""

    y_a: int = 1
    y_b: int = 1

    name = "constant"
    lambda_space = RandomnessSpace.uniform((0,))
    default_input = "++"

    def __post_init__(self):
        for key in ("y_a", "y_b"):
            value = _integer(self.name, key, getattr(self, key))
            if value not in (-1, 1):
                raise InvariantError("constant outputs must be +/-1")
            object.__setattr__(self, key, value)

    def step(self, party: Party, own_input, lam, received: tuple[int, ...]) -> Action:
        return Action(output=self.y_a if party is ALICE else self.y_b)

    def outcome_table(self, input_a, input_b):
        return _constant_columns(self.y_a, self.y_b)


PROTOCOLS: dict[str, type[Protocol]] = {
    cls.name: cls
    for cls in (SendAllReplyProtocol, TonerBaconProtocol, ConstantProtocol)
}

PROTOCOL_NAMES = tuple(sorted(PROTOCOLS))


def protocol_parameters(cls: type[Protocol]) -> dict[str, bool]:
    """A protocol dataclass's constructor parameters: name -> required."""
    return {f.name: f.default is MISSING and f.default_factory is MISSING
            for f in fields(cls) if f.init}


def make_protocol(name: str, **params) -> Protocol:
    """Build a registered protocol by name from integer parameters.

    The accepted and required parameters are the class's init fields;
    unknown names, stray or missing keys and non-integer values error.
    """
    if name not in PROTOCOLS:
        raise InvariantError(f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}")
    cls = PROTOCOLS[name]
    accepted = protocol_parameters(cls)
    stray = set(params) - set(accepted)
    if stray:
        raise InvariantError(f"{name} does not accept parameters {sorted(stray)}")
    missing = [k for k, required in accepted.items() if required and k not in params]
    if missing:
        raise InvariantError(f"{name} needs parameters {missing}")
    return cls(**{k: _integer(name, k, v) for k, v in params.items()})
