"""Predicted outcome statistics for two-party binary measurements.

A scenario is a shared bipartite state sigma together with one +/-1-valued
observable per party.  This module computes the joint outcome probabilities
p(alpha, beta) and the three correlators (E(y_A y_B), E(y_A), E(y_B)), and
converts between the two pictures.

Conventions:
    * Observables A satisfy A^2 = 1 (spectrum in {-1, +1}); the associated
      "outcome +1" projector is P = (A + 1) / 2.
    * p_pp, p_mp, p_pm, p_mm are the probabilities of (y_A, y_B) =
      (+1,+1), (-1,+1), (+1,-1), (-1,-1) in that order.
    * Sign-vector inputs (entries +/-1, even length n) index the rank-one
      family P_a = (1/n) |a><a| on the maximally entangled state; this
      family is handled in exact rational arithmetic.  Everything else runs
      in double precision under the tolerances `OPERATOR_ATOL` and
      `TRACE_ATOL`, which the exact paths never consult.

Expectations are derived from the joint law, which has two routes.  A
state built by `maximally_entangled(n)` and a projector built by
`sign_vector_projector(a)` carry structural tags, set there and nowhere
else.  On the tagged state with two tagged projectors of length n, the
law is the closed form

    p_pp = (a.b)^2 / n^3,  p_mp = p_pm = (n^2 - (a.b)^2) / n^3,

built and validated once per (n, a.b) and shared by every such pair.
Every other operand goes through `_law_parts`, the reference route: the
Kronecker trace Tr[(A (x) B) sigma], in Fractions when all three operands
are exact and in floats otherwise.  States and projectors are never
recognized by value.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DimensionMismatchError, InvariantError

Array = np.ndarray
# operator-level invariants: idempotence, unit spectrum, eigenvalue floors
OPERATOR_ATOL = 1e-10
# scalar bookkeeping: traces, Hermiticity residues, probability sums
TRACE_ATOL = 1e-12
Number = Union[Fraction, float]
_SIGNS = frozenset((-1, 1))


def _integer(owner: str, key: str, value) -> int:
    """An integer parameter as an int; floats, bools and text error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvariantError(f"{owner} parameter {key} must be an integer, got {value!r}")
    return int(value)


def _at_least(owner: str, key: str, value, low: int, *, even: bool = False) -> int:
    """An integer parameter at least `low`, and even if asked, as an int."""
    value = _integer(owner, key, value)
    if value < low or (even and value % 2):
        parity = "even and " if even else ""
        raise InvariantError(f"{owner} parameter {key} must be {parity}at least {low}, got {value}")
    return value


def _members(allowed: frozenset, values) -> bool:
    """Whether every value is in `allowed`; an unhashable value is not."""
    try:
        return allowed.issuperset(values)
    except TypeError:
        return False


def _integer_kinds(kinds) -> bool:
    """Whether every type is int or a numpy integer; bool is neither."""
    return all(kind is int or issubclass(kind, np.integer) for kind in kinds)


def _int_matrix(rows) -> Array:
    """Read-only integer numerators: an object array of Python ints.

    numpy never picks the dtype, so no product or sum of numerators can
    wrap: int64, uint64 and numpy-scalar entries are converted with `int`,
    and floats and bools are refused.
    """
    arr = np.array(rows, dtype=object)
    if arr.ndim != 2:
        raise InvariantError(f"matrix must be 2-D, got shape {arr.shape}")
    kinds = set(map(type, arr.flat))
    if not _integer_kinds(kinds):
        names = sorted(kind.__name__ for kind in kinds)
        raise InvariantError(f"exact matrices need integer entries, got {names}")
    if kinds - {int}:
        arr = np.frompyfunc(int, 1, 1)(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RationalMatrix:
    """Exact real matrix: integer numerators over one positive denominator."""

    num: Array
    den: int

    def __post_init__(self):
        object.__setattr__(self, "num", _int_matrix(self.num))
        object.__setattr__(self, "den", _at_least("RationalMatrix", "den", self.den, 1))

    @classmethod
    def identity(cls, dim: int) -> "RationalMatrix":
        return cls(np.eye(dim, dtype=np.int64), 1)

    @classmethod
    def _derived(cls, num: Array, den: int) -> "RationalMatrix":
        """A matrix that an operation below built from checked ones: `num`
        holds Python ints and `den` > 0, so neither is checked again."""
        matrix = object.__new__(cls)
        num.setflags(write=False)
        object.__setattr__(matrix, "num", num)
        object.__setattr__(matrix, "den", den)
        return matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    @property
    def dim(self) -> int:
        r, c = self.num.shape
        if r != c:
            raise InvariantError(f"matrix is not square: shape {self.num.shape}")
        return r

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i, j], self.den)

    def to_float(self) -> Array:
        return self.num.astype(float) / self.den

    def is_symmetric(self) -> bool:
        return bool((self.num == self.num.T).all())

    def equals(self, other: "RationalMatrix") -> bool:
        if self.shape != other.shape:
            return False
        return bool((self.num * other.den == other.num * self.den).all())

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix._derived(np.kron(self.num, other.num), self.den * other.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix._derived(self.num @ other.num, self.den * other.den)

    def one_minus(self) -> "RationalMatrix":
        """Identity minus self (square matrices only)."""
        return RationalMatrix._derived(self.den * np.eye(self.dim, dtype=object) - self.num,
                                       self.den)

    def trace(self) -> Fraction:
        return Fraction(sum(self.num.diagonal()), self.den)

    def trace_dot(self, other: "RationalMatrix") -> Fraction:
        """Tr(self @ other), computed without forming the product."""
        if self.shape[1] != other.shape[0] or self.shape[0] != other.shape[1]:
            raise DimensionMismatchError(f"trace_dot shapes {self.shape} x {other.shape}")
        return Fraction((self.num * other.num.T).sum(), self.den * other.den)


@dataclass(frozen=True)
class SignVector:
    """Vector with +/-1 coordinates and even positive length."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        if len(coords) == 0 or len(coords) % 2:
            raise InvariantError(f"length must be even and positive, got {len(coords)}")
        if not _members(_SIGNS, coords) or not _integer_kinds(set(map(type, coords))):
            raise InvariantError(f"coordinates must be integers +/-1, got {coords}")
        object.__setattr__(self, "coords", tuple(map(int, coords)))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def dot(self, other: "SignVector") -> int:
        if not isinstance(other, SignVector):
            raise InvariantError(f"dot needs a SignVector, got {type(other).__name__}")
        if len(other.coords) != len(self.coords):
            raise DimensionMismatchError(f"lengths differ: {len(self)} vs {len(other)}")
        return self._dot(other)

    def _dot(self, other: "SignVector") -> int:
        """a.b, unchecked, for a sign vector of the same length: +1 per equal bit, -1 per other."""
        return len(self.coords) - 2 * (self.index ^ other.index).bit_count()

    @cached_property
    def index(self) -> int:
        """The bits (1 + c) / 2 read MSB-first: the position in `all_vectors(n)`."""
        return int("".join(map(str, self.to_bits())), 2)

    def to_bits(self) -> tuple[int, ...]:
        """Coordinate c maps to bit (1 + c) / 2; the same tuple on every call."""
        return self._bits

    @cached_property
    def _bits(self) -> tuple[int, ...]:
        return tuple((1 + c) // 2 for c in self.coords)

    @classmethod
    def from_bits(cls, bits) -> "SignVector":
        return cls(tuple(2 * int(b) - 1 for b in bits))

    def to_text(self) -> str:
        """'+' or '-' per coordinate; the same string on every call."""
        return self._text

    @cached_property
    def _text(self) -> str:
        return "".join("+" if c > 0 else "-" for c in self.coords)

    @classmethod
    def parse(cls, text: str) -> "SignVector":
        """Accepts '+-+-' or comma-separated '+1,-1,1,-1'."""
        if not isinstance(text, str):
            raise InvariantError(f"cannot parse sign vector from {text!r}")
        text = text.strip()
        if "," in text:
            coords = []
            for tok in text.split(","):
                try:
                    coords.append(int(tok))
                except ValueError:
                    raise InvariantError(
                        f"bad sign-vector token {tok!r} in {text!r}") from None
            return cls(tuple(coords))
        if set(text) <= {"+", "-"}:
            return cls(tuple(1 if ch == "+" else -1 for ch in text))
        raise InvariantError(f"cannot parse sign vector from {text!r}")

    @classmethod
    def all_vectors(cls, n: int) -> Iterator["SignVector"]:
        """All 2^n sign vectors of length n, lexicographic by bits; a bad n
        raises on the call."""
        n = _at_least("SignVector.all_vectors", "n", n, 2, even=True)
        return (cls.from_bits([(value >> (n - 1 - i)) & 1 for i in range(n)])
                for value in range(1 << n))


MatrixData = Union[RationalMatrix, Array]


def _coerce_entries(entries) -> MatrixData:
    if isinstance(entries, RationalMatrix):
        if entries.shape[0] != entries.shape[1]:
            raise InvariantError(f"entries must be square, got shape {entries.shape}")
        return entries
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvariantError(f"entries must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvariantError("entries must be finite, got nan or inf")
    arr.setflags(write=False)
    return arr


def _is_exact(data: MatrixData) -> bool:
    return isinstance(data, RationalMatrix)


def _to_float(data: MatrixData) -> Array:
    return data.to_float() if _is_exact(data) else data


@dataclass(frozen=True, eq=False)
class _Operator:
    """Square Hermitian entries, exact or float, read-only.  Each subclass
    checks its own invariant in `_check` and names itself by `_noun` in
    every refusal."""

    entries: MatrixData

    def __post_init__(self):
        data = _coerce_entries(self.entries)
        object.__setattr__(self, "entries", data)
        if _is_exact(data):
            if not data.is_symmetric():
                raise InvariantError(f"{self._noun} is not symmetric (exact mode)")
        else:
            residue = float(np.abs(data - data.conj().T).max(initial=0.0))
            if residue > TRACE_ATOL:
                raise InvariantError(f"{self._noun} is not Hermitian: max residue {residue:.3e}")
        self._check(data)

    @property
    def dim(self) -> int:
        return self.entries.dim if self.exact else self.entries.shape[0]

    @property
    def exact(self) -> bool:
        return _is_exact(self.entries)

    @classmethod
    def _unchecked(cls, entries: MatrixData, **tags):
        """An operator on `entries`, which the caller knows pass every check
        of `cls`, built without running them; a field named in `tags` takes
        that value and every other its default, as the constructor gives it."""
        unknown = set(tags) - {f.name for f in fields(cls)}
        if unknown:
            raise TypeError(f"{cls.__name__} has no field {', '.join(sorted(unknown))}")
        operator = object.__new__(cls)
        for f in fields(cls):
            default = f.default_factory() if f.default_factory is not MISSING else f.default
            object.__setattr__(operator, f.name, tags.get(f.name, default))
        object.__setattr__(operator, "entries", entries)
        return operator


@dataclass(frozen=True, eq=False)
class BinaryObservable(_Operator):
    """Hermitian matrix with spectrum contained in {-1, +1}."""

    _noun = "observable"

    def _check(self, data: MatrixData) -> None:
        if _is_exact(data):
            if not (data @ data).equals(RationalMatrix.identity(data.dim)):
                raise InvariantError("observable squared is not the identity (exact mode)")
        else:
            residue = float(np.abs(data @ data - np.eye(data.shape[0])).max())
            if residue > OPERATOR_ATOL:
                raise InvariantError(f"observable squared deviates from identity by {residue:.3e}")


@dataclass(frozen=True, eq=False)
class Projector(_Operator):
    """Hermitian idempotent matrix (the outcome +1 event)."""

    # the vector a when built by `sign_vector_projector(a)`; set only there
    _sign_vector: Optional[SignVector] = field(default=None, init=False, repr=False)
    _noun = "projector"

    def _check(self, data: MatrixData) -> None:
        if _is_exact(data):
            if not (data @ data).equals(data):
                raise InvariantError("projector is not idempotent (exact mode)")
        else:
            residue = float(np.abs(data @ data - data).max())
            if residue > OPERATOR_ATOL:
                raise InvariantError(f"projector deviates from idempotence by {residue:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Operator):
    """Shared state of two n-dimensional systems: PSD, unit trace, n^2 x n^2."""

    # local dimension n when built by `maximally_entangled(n)`; set only there
    _entangled_n: Optional[int] = field(default=None, init=False, repr=False)
    _noun = "state"

    def _check(self, data: MatrixData) -> None:
        if math.isqrt(self.dim) ** 2 != self.dim:
            raise InvariantError(f"state dimension {self.dim} is not a perfect square")
        if _is_exact(data):
            if data.trace() != 1:
                raise InvariantError(f"state trace is {data.trace()}, expected 1")
        else:
            trace = complex(np.trace(data))
            if abs(trace - 1.0) > TRACE_ATOL:
                raise InvariantError(f"state trace is {trace}, expected 1")
        lowest = float(np.linalg.eigvalsh(_to_float(data)).min())
        if lowest < -OPERATOR_ATOL:
            raise InvariantError(f"state has negative eigenvalue {lowest:.3e}")


def _number(name: str, value: Number, low: int, high: int) -> Number:
    """A law entry in [low, high]: an int as its `Fraction`, so every exact
    entry is one, and a float as given."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InvariantError(f"{name} must be an int, a float or a Fraction, got {value!r}")
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator  # den > 0
        if not (low * den <= num <= high * den):
            raise InvariantError(f"{name} = {value} outside [{low}, {high}]")
        return value
    # float values are admitted within operator tolerance; producers clamp
    if not (low - OPERATOR_ATOL <= value <= high + OPERATOR_ATOL):
        raise InvariantError(f"{name} = {value} outside [{low}, {high}]")
    return value


@dataclass(frozen=True)
class JointProbs:
    """Joint law of (y_A, y_B); p_mm is the residual completing the sum to 1."""

    p_pp: Number
    p_mp: Number
    p_pm: Number
    p_mm: Number

    def __post_init__(self):
        for name, value in self.as_dict().items():
            object.__setattr__(self, name, _number(name, value, 0, 1))
        total = self.p_pp + self.p_mp + self.p_pm + self.p_mm
        if isinstance(total, Fraction):
            if total != 1:
                raise InvariantError(f"probabilities sum to {total}, expected 1")
        elif abs(total - 1.0) > TRACE_ATOL:
            raise InvariantError(f"probabilities sum to {total!r}, expected 1")

    def as_dict(self) -> dict[str, Number]:
        return {"p_pp": self.p_pp, "p_mp": self.p_mp, "p_pm": self.p_pm, "p_mm": self.p_mm}

    @cached_property
    def exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.as_dict().values())


@dataclass(frozen=True)
class ExpectationTriple:
    """Correlator E(y_A y_B) and the two marginals E(y_A), E(y_B).

    Triples coming from a genuine joint law satisfy 1 + e_ab >= |e_a + e_b|
    and 1 - e_ab >= |e_a - e_b|; that is checked where it matters, in
    `expectations_to_probs`, by rejecting negative probabilities.
    """

    e_ab: Number
    e_a: Number
    e_b: Number

    def __post_init__(self):
        for name, value in self.as_dict().items():
            object.__setattr__(self, name, _number(name, value, -1, 1))

    def as_dict(self) -> dict[str, Number]:
        return {"e_ab": self.e_ab, "e_a": self.e_a, "e_b": self.e_b}

    @cached_property
    def exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.as_dict().values())


def observable_to_projector(obs: BinaryObservable) -> Projector:
    """P = (A + 1) / 2, built without checking it again: A is a validated
    observable, so P is a projector exactly in exact mode, and in float mode
    P^2 - P = (A^2 - 1) / 4 is within OPERATOR_ATOL / 4 and P's Hermitian
    residue is half of A's."""
    data = obs.entries
    if _is_exact(data):
        eye = np.eye(data.dim, dtype=object)
        entries = RationalMatrix(data.num + data.den * eye, 2 * data.den)
    else:
        entries = (data + np.eye(data.shape[0])) / 2
        entries.setflags(write=False)
    return Projector._unchecked(entries)


def projector_to_observable(proj: Projector) -> BinaryObservable:
    """A = 2P - 1."""
    data = proj.entries
    if _is_exact(data):
        eye = np.eye(data.dim, dtype=object)
        return BinaryObservable(RationalMatrix(2 * data.num - data.den * eye, data.den))
    return BinaryObservable(2 * data - np.eye(data.shape[0]))


def _trace_kron_exact(left: RationalMatrix, right: RationalMatrix, state: RationalMatrix) -> Fraction:
    return left.kron(right).trace_dot(state)


def _trace_kron_float(left: Array, right: Array, state: Array) -> float:
    value = complex((np.kron(left, right) * state.T).sum())
    if abs(value.imag) > TRACE_ATOL:
        raise InvariantError(f"trace has imaginary residue {value.imag:.3e}")
    return value.real


def _law_parts(pa: MatrixData, pb: MatrixData, state: DensityMatrix) -> tuple:
    """Tr[(P (x) Q) sigma], Tr[((1 - P) (x) Q) sigma] and Tr[(P (x) (1 - Q)) sigma]
    by the Kronecker trace: Fractions when all three operands are exact,
    floats otherwise.  The reference for the closed form of `_sign_vector_law`.
    """
    if not (_is_exact(pa) and _is_exact(pb) and state.exact):
        pa, pb, sigma = _to_float(pa), _to_float(pb), _to_float(state.entries)
        eye_a, eye_b = np.eye(len(pa)), np.eye(len(pb))
        return (_trace_kron_float(pa, pb, sigma), _trace_kron_float(eye_a - pa, pb, sigma),
                _trace_kron_float(pa, eye_b - pb, sigma))
    sigma = state.entries
    return (_trace_kron_exact(pa, pb, sigma), _trace_kron_exact(pa.one_minus(), pb, sigma),
            _trace_kron_exact(pa, pb.one_minus(), sigma))


def _admit_probability(name: str, value: float) -> float:
    if value < -OPERATOR_ATOL or value > 1 + OPERATOR_ATOL:
        raise InvariantError(f"{name} = {value!r} is outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


@lru_cache(maxsize=None)
def _sign_vector_law(n: int, dot: int) -> JointProbs:
    """Law of P_a (x) P_b on Phi for sign vectors of length n with a.b = dot.

    Each marginal is 1/n, and Tr[(P_a (x) P_b) Phi] = (a.b)^2 / n^3.  The
    law depends on the pair only through (n, a.b), so the cache holds at
    most n + 1 keys per n.
    """
    cube, pp, marginal = n**3, dot * dot, n * n
    return JointProbs(*(Fraction(x, cube) for x in
                        (pp, marginal - pp, marginal - pp, cube - 2 * marginal + pp)))


def predict_joint_probs(proj_a: Projector, proj_b: Projector, state: DensityMatrix) -> JointProbs:
    """Joint law of the two binary outcomes on the shared state.

    Exact when all three operands are rational; double precision otherwise,
    with each probability admitted within OPERATOR_ATOL and clamped to [0, 1].
    """
    a, b = proj_a._sign_vector, proj_b._sign_vector
    if a is not None and b is not None and state._entangled_n == a.n == b.n:
        # the tags fix the dims: n x n projectors on the n^2 x n^2 state
        return _sign_vector_law(a.n, a._dot(b))
    if proj_a.dim * proj_b.dim != state.dim:
        raise DimensionMismatchError(
            f"party dims {proj_a.dim} x {proj_b.dim} do not match state dim {state.dim}")
    pp, mp, pm = _law_parts(proj_a.entries, proj_b.entries, state)
    if isinstance(pp, Fraction):
        return JointProbs(pp, mp, pm, 1 - pp - mp - pm)
    # the residual p_mm is taken after the clamps; the predict reports are pinned to it
    p_pp = _admit_probability("p_pp", pp)
    p_mp = _admit_probability("p_mp", mp)
    p_pm = _admit_probability("p_pm", pm)
    return JointProbs(p_pp, p_mp, p_pm, _admit_probability("p_mm", 1.0 - p_pp - p_mp - p_pm))


def predict_expectations(
    obs_a: BinaryObservable, obs_b: BinaryObservable, state: DensityMatrix
) -> ExpectationTriple:
    """Correlator and marginals of the two observables on the shared state."""
    return probs_to_expectations(predict_joint_probs(
        observable_to_projector(obs_a), observable_to_projector(obs_b), state))


def probs_to_expectations(probs: JointProbs) -> ExpectationTriple:
    """Linear map from the joint law to (e_ab, e_a, e_b); exact on Fractions."""
    return ExpectationTriple(
        e_ab=1 - 2 * probs.p_mp - 2 * probs.p_pm,
        e_a=-1 + 2 * probs.p_pp + 2 * probs.p_pm,
        e_b=-1 + 2 * probs.p_pp + 2 * probs.p_mp,
    )


def expectations_to_probs(triple: ExpectationTriple) -> JointProbs:
    """Inverse linear map; rejects triples whose preimage has a negative entry."""
    e_ab, e_a, e_b = triple.e_ab, triple.e_a, triple.e_b
    raw = {
        "p_pp": (1 + e_a + e_b + e_ab) / 4,
        "p_mp": (1 - e_a + e_b - e_ab) / 4,
        "p_pm": (1 + e_a - e_b - e_ab) / 4,
        "p_mm": (1 - e_a - e_b + e_ab) / 4,
    }
    cleaned = {}
    for name, value in raw.items():
        if isinstance(value, Fraction):
            if value < 0:
                raise InvariantError(f"triple maps to negative probability {name} = {value}")
            cleaned[name] = value
        else:
            if value < -TRACE_ATOL:
                raise InvariantError(f"triple maps to negative probability {name} = {value!r}")
            cleaned[name] = min(max(value, 0.0), 1.0)
    return JointProbs(**cleaned)


def maximally_entangled(n: int) -> DensityMatrix:
    """Rank-one state (1/sqrt(n)) sum_i |ii>, as an exact n^2 x n^2 density
    matrix carrying the tag that the closed form reads, built without the checks
    that `DensityMatrix(state.entries)` runs and passes: for phi = sum_i |ii>,
    phi phi^T / n is symmetric and rank one with trace phi.phi / n = 1, so PSD."""
    n = _at_least("maximally_entangled", "n", n, 1)
    phi = np.eye(n, dtype=object).ravel()  # sum_i |ii>, unnormalized, Python ints
    return DensityMatrix._unchecked(RationalMatrix._derived(np.outer(phi, phi), n),
                                    _entangled_n=n)


def sign_vector_projector(a: SignVector) -> Projector:
    """Rank-one projector (1/n) |a><a| for a sign vector a, exact and tagged,
    built without the checks that `Projector(proj.entries)` runs and passes:
    a a^T / n is symmetric, and a.a = n makes it idempotent, as
    (a a^T)(a a^T) = a (a.a) a^T = n a a^T."""
    if not isinstance(a, SignVector):
        raise InvariantError(f"sign_vector_projector needs a SignVector, got {a!r}")
    coords = np.array(a.coords, dtype=object)
    return Projector._unchecked(RationalMatrix._derived(np.outer(coords, coords), a.n),
                                _sign_vector=a)


def sign_vector_observable(a: SignVector) -> BinaryObservable:
    """Observable 2 P_a - 1 for the sign-vector projector P_a."""
    return projector_to_observable(sign_vector_projector(a))


def singlet() -> DensityMatrix:
    """Two-qubit state |psi><psi| with |psi> = (|01> - |10>) / sqrt(2), in
    double precision."""
    return DensityMatrix(np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex) / 2)


def _unit3(value, what: str) -> Array:
    """`value` as a float 3-vector, refused unless its norm is 1 within 1e-9;
    `what` names the value in the refusal."""
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvariantError(f"{what} must be a numeric 3-vector, got {value!r}") from None
    if vec.shape != (3,):
        raise InvariantError(f"{what} must be a 3-vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))  # not finite if an entry is not
    if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
        raise InvariantError(f"{what} norm {norm!r} is not 1 within 1e-9")
    return vec


def bloch_observable(direction) -> BinaryObservable:
    """Spin observable u . (X, Y, Z) for a unit 3-vector u (tolerance 1e-9)."""
    u = _unit3(direction, "direction")
    x, y, z = u / np.linalg.norm(u)
    return BinaryObservable(np.array([[z, x - 1j * y], [x + 1j * y, -z]]))


def joint_plus_probability(a: SignVector, b: SignVector) -> Fraction:
    """Closed form (a.b)^2 / n^3 of Pr[y_A = +1 and y_B = +1], read from `_sign_vector_law`."""
    return _sign_vector_law(a.n, a.dot(b)).p_pp
