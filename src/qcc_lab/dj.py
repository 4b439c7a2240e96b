"""Promise equality task on sign vectors and its certificate bounds.

Inputs are +/-1 vectors of even length n promised to agree everywhere
(a.b = n) or on exactly half the coordinates (a.b = 0).  The task value
is 1 in the first case and 0 in the second.  A reject instance has a
one-coordinate witness (i, alpha) with a_i = alpha and b_i = -alpha,
which costs ceil(log2 n) + 1 bits to name; the accept side is where the
interesting lower bounds live.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, InvariantError, PromiseViolationError
from .harness import BOB, CheckResult, Party, Scenario, pair_label
from .oracle import (SignVector, maximally_entangled, predict_joint_probs,
                     sign_vector_projector)


def check_promise(a: SignVector, b: SignVector) -> int:
    """Validate the promise and return a.b (either 0 or n)."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"lengths differ: {len(a)} vs {len(b)}")
    dot = a.dot(b)
    if dot not in (0, a.n):
        raise PromiseViolationError(
            f"a.b = {dot} violates the promise (must be 0 or {a.n})")
    return dot


def eval_f(a: SignVector, b: SignVector) -> int:
    """Task value: 1 when the vectors agree everywhere, else 0."""
    return 1 if check_promise(a, b) == a.n else 0


def promise_pairs(n: int) -> Iterator[tuple[SignVector, SignVector]]:
    """All ordered promise pairs: (a, a) plus every b agreeing on half.

    The 2^n vectors are built once and shared between pairs.  In
    `all_vectors` order, flipping coordinate i toggles bit n - 1 - i of a
    vector's index, so each b is a lookup by index XOR mask.
    """
    if n < 2 or n % 2:
        raise InvariantError(f"n must be even and at least 2, got {n}")
    vectors = list(SignVector.all_vectors(n))
    masks = [sum(1 << (n - 1 - i) for i in flips)
             for flips in itertools.combinations(range(n), n // 2)]
    for index, a in enumerate(vectors):
        yield a, a
        for mask in masks:
            yield a, vectors[index ^ mask]


def promise_scenarios(n: int) -> list[Scenario]:
    """Harness scenarios for every promise pair, exact targets from the predictor.

    One projector per vector, listed in `all_vectors` order, so a pair's
    projectors are found by the vectors' indices.
    """
    state = maximally_entangled(n)
    projectors = [sign_vector_projector(a) for a in SignVector.all_vectors(n)]
    return [
        Scenario(a, b,
                 predict_joint_probs(projectors[a.index], projectors[b.index], state),
                 pair_label(a, b))
        for a, b in promise_pairs(n)
    ]


def _index_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True)
class RejectCertificate:
    """Witnessing coordinate (1-based) and Alice's sign at it."""

    index: int
    alpha: int

    def __post_init__(self):
        if self.index < 1:
            raise InvariantError(f"index must be 1-based positive, got {self.index}")
        if self.alpha not in (-1, 1):
            raise InvariantError(f"alpha must be +/-1, got {self.alpha}")

    def bit_length(self, n: int) -> int:
        return _index_width(n) + 1

    def encode(self, n: int) -> tuple[int, ...]:
        """(index - 1) big-endian over ceil(log2 n) bits, then sign (0 -> +1)."""
        if not 1 <= self.index <= n:
            raise InvariantError(f"index {self.index} out of range 1..{n}")
        width = _index_width(n)
        value = self.index - 1
        bits = tuple((value >> (width - 1 - i)) & 1 for i in range(width))
        return bits + ((0 if self.alpha == 1 else 1),)

    @classmethod
    def decode(cls, bits: Iterable[int], n: int) -> "RejectCertificate":
        bits = tuple(int(b) for b in bits)
        width = _index_width(n)
        if len(bits) != width + 1 or any(b not in (0, 1) for b in bits):
            raise InvariantError(f"need {width + 1} bits, got {bits}")
        value = 0
        for b in bits[:width]:
            value = (value << 1) | b
        return cls(value + 1, 1 if bits[width] == 0 else -1)


def n0_certificate(a: SignVector, b: SignVector) -> RejectCertificate:
    """Witness for a reject pair: the first disagreeing coordinate."""
    if check_promise(a, b) != 0:
        raise InvariantError("inputs agree everywhere; no reject witness exists")
    for i, (x, y) in enumerate(zip(a.coords, b.coords), start=1):
        if x != y:
            return RejectCertificate(i, x)
    raise AssertionError("unreachable: a.b = 0 forces a disagreement")


def n0_verify(party: Party, own: SignVector, cert: RejectCertificate) -> CheckResult:
    """Local check: Alice needs a_i = alpha, Bob needs b_i = -alpha."""
    if not 1 <= cert.index <= own.n:
        return CheckResult(False, f"index {cert.index} out of range 1..{own.n}")
    expected = -cert.alpha if party is BOB else cert.alpha
    if own[cert.index - 1] != expected:
        return CheckResult(
            False, f"{party.value} holds {own[cert.index - 1]:+d} at coordinate "
                   f"{cert.index}, certificate needs {expected:+d}")
    return CheckResult(True, "")


def n0_upper_bound(n: int) -> int:
    """Bits needed to name a reject witness: ceil(log2 n) + 1."""
    if n < 2:
        raise InvariantError(f"n must be at least 2, got {n}")
    return _index_width(n) + 1


def n1_lower_bound(n: int) -> float:
    """Accept-side certificate lower bound 0.007 n / (log2 n + 3) - 1."""
    if n < 2:
        raise InvariantError(f"n must be at least 2, got {n}")
    return 0.007 * n / (math.log2(n) + 3) - 1


def auy_check(d: float, n0: float, n1: float) -> bool:
    """Sanity gate D <= (N0 + 1)(N1 + 1) relating the three cost measures."""
    if min(d, n0, n1) < 0:
        raise InvariantError("cost measures must be nonnegative")
    return d <= (n0 + 1) * (n1 + 1)


def auy_min_n1(d: float, n0: float) -> float:
    """Smallest N1 consistent with the gate for measured D and N0."""
    if d < 0 or n0 < 0:
        raise InvariantError("cost measures must be nonnegative")
    return max(0.0, d / (n0 + 1) - 1)
