"""Promise equality task on sign vectors and its certificate bounds.

Inputs are +/-1 vectors of even length n promised to agree everywhere
(a.b = n) or on exactly half the coordinates (a.b = 0).  The task value
is 1 in the first case and 0 in the second.  A reject instance has a
one-coordinate witness (i, alpha) with a_i = alpha and b_i = -alpha,
which costs ceil(log2 n) + 1 bits to name; the accept side is where the
interesting lower bounds live.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, InvariantError, PromiseViolationError
from .harness import _BITS, BOB, CheckResult, Party, Scenario
from .oracle import (SignVector, _at_least, _integer, _members, maximally_entangled,
                     predict_joint_probs, sign_vector_projector)


def check_promise(a: SignVector, b: SignVector) -> int:
    """Validate the promise and return a.b (either 0 or n)."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"lengths differ: {len(a)} vs {len(b)}")
    dot = a.dot(b)
    if dot not in (0, a.n):
        raise PromiseViolationError(
            f"a.b = {dot} violates the promise (must be 0 or {a.n})")
    return dot


def _promise_family(owner: str, n: int) -> tuple[list[SignVector], list[int]]:
    """The 2^n vectors in `all_vectors` order, and the masks that give each
    vector's promise partners, in pair order: a's partners are the vectors at
    a's index XOR each mask.  The first mask is 0, so (a, a) comes first; then
    come the balanced v (sum 0), running down `all_vectors` order, each flipping
    a where v is +1."""
    n = _at_least(owner, "n", n, 2, even=True)
    vectors = list(SignVector.all_vectors(n))
    return vectors, [0] + [v.index for v in reversed(vectors) if sum(v.coords) == 0]


def promise_pairs(n: int) -> Iterator[tuple[SignVector, SignVector]]:
    """All ordered promise pairs: (a, a) plus every b agreeing on half, the
    2^n vectors built once and shared."""
    vectors, masks = _promise_family("promise_pairs", n)
    for index, a in enumerate(vectors):
        for mask in masks:
            yield a, vectors[index ^ mask]


def promise_scenarios(n: int) -> Iterator[Scenario]:
    """Harness scenarios for every promise pair, in `promise_pairs` order,
    exact targets from the predictor.

    The state and one projector per vector, in `all_vectors` order, are
    built on the call, so a bad n raises here; the scenarios are then
    yielded one per pair, each vector and projector read at its index.
    """
    vectors, masks = _promise_family("promise_scenarios", n)
    state = maximally_entangled(n)
    projectors = [sign_vector_projector(a) for a in vectors]
    # a Scenario from its three fields at about half the cost of the NamedTuple's own constructor
    new = tuple.__new__
    return (new(Scenario, (a, vectors[index ^ mask],
                           predict_joint_probs(proj_a, projectors[index ^ mask], state)))
            for index, (a, proj_a) in enumerate(zip(vectors, projectors)) for mask in masks)


def _index_width(n: int) -> int:
    return max(1, (_at_least("RejectCertificate", "n", n, 1) - 1).bit_length())


@dataclass(frozen=True)
class RejectCertificate:
    """Witnessing coordinate (1-based) and Alice's sign at it."""

    index: int
    alpha: int

    def __post_init__(self):
        object.__setattr__(self, "index", _at_least("RejectCertificate", "index", self.index, 1))
        object.__setattr__(self, "alpha", _integer("RejectCertificate", "alpha", self.alpha))
        if self.alpha not in (-1, 1):
            raise InvariantError(f"alpha must be +/-1, got {self.alpha}")

    def bit_length(self, n: int) -> int:
        return _index_width(n) + 1

    def encode(self, n: int) -> tuple[int, ...]:
        """(index - 1) big-endian over ceil(log2 n) bits, then sign (0 -> +1)."""
        width = _index_width(n)
        if not 1 <= self.index <= n:
            raise InvariantError(f"index {self.index} out of range 1..{n}")
        value = self.index - 1
        bits = tuple((value >> (width - 1 - i)) & 1 for i in range(width))
        return bits + ((0 if self.alpha == 1 else 1),)

    @classmethod
    def decode(cls, bits: Iterable[int], n: int) -> "RejectCertificate":
        bits = tuple(bits)
        width = _index_width(n)
        if len(bits) != width + 1 or not _members(_BITS, bits):
            raise InvariantError(f"need {width + 1} bits, each 0 or 1, got {bits}")
        value = sum(int(b) << (width - 1 - i) for i, b in enumerate(bits[:width]))
        return cls(value + 1, 1 if bits[width] == 0 else -1)


def n0_certificate(a: SignVector, b: SignVector) -> RejectCertificate:
    """Witness for a reject pair: the first disagreeing coordinate."""
    if check_promise(a, b) != 0:
        raise InvariantError(
            "vectors agree everywhere; reject certificates cover the a.b = 0 "
            "case (accepting runs are certified via the reduce pipeline)")
    return next(RejectCertificate(i, x) for i, (x, y) in
                enumerate(zip(a.coords, b.coords), start=1) if x != y)


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
    return _index_width(_at_least("n0_upper_bound", "n", n, 2)) + 1


def n1_lower_bound(n: int) -> float:
    """Accept-side certificate lower bound 0.007 n / (log2 n + 3) - 1."""
    n = _at_least("n1_lower_bound", "n", n, 2, even=True)
    return 0.007 * n / (math.log2(n) + 3) - 1


def auy_min_n1(d: float, n0: float) -> float:
    """Smallest N1 consistent with the gate for measured D and N0."""
    for key, value in (("d", d), ("n0", n0)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not 0 <= value < math.inf):
            raise InvariantError(
                f"auy_min_n1 parameter {key} must be a finite nonnegative number, got {value!r}")
    return max(0.0, d / (n0 + 1) - 1)
