"""Exact-arithmetic core: rational matrices, wrappers, and the joint law."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcc_lab import oracle
from qcc_lab.dj import promise_scenarios
from qcc_lab.errors import (DimensionMismatchError, InvariantError,
                            PromiseViolationError)
from qcc_lab.oracle import (BinaryObservable, DensityMatrix, ExpectationTriple,
                            JointProbs, Projector, RationalMatrix, SignVector,
                            bloch_observable, dj_target_probability,
                            expectations_to_probs, joint_plus_probability,
                            maximally_entangled, observable_to_projector,
                            predict_expectations, predict_joint_probs,
                            probs_to_expectations, projector_to_observable,
                            sign_vector_observable, sign_vector_projector,
                            singlet)
from qcc_lab.protocols import SendAllReplyProtocol


# --- rational matrices ----------------------------------------------------


def test_rational_matrix_identity_and_trace():
    eye = RationalMatrix.identity(3)
    assert eye.trace() == 1 * 3
    assert eye.entry(0, 0) == 1 and eye.entry(0, 1) == 0


def test_rational_matrix_equals_across_denominators():
    half = RationalMatrix(np.array([[1, 0], [0, 1]], dtype=object) * 2, 4)
    also_half = RationalMatrix(np.array([[1, 0], [0, 1]], dtype=object), 2)
    assert half.equals(also_half)
    assert not half.equals(RationalMatrix.identity(2))


def test_rational_matmul_matches_float():
    rng = np.random.default_rng(5)
    a = RationalMatrix(rng.integers(-9, 10, (4, 4)), 7)
    b = RationalMatrix(rng.integers(-9, 10, (4, 4)), 3)
    np.testing.assert_allclose((a @ b).to_float(), a.to_float() @ b.to_float(),
                               atol=1e-12)
    np.testing.assert_allclose(a.kron(b).to_float(),
                               np.kron(a.to_float(), b.to_float()), atol=1e-12)


def test_rational_one_minus_and_trace_dot():
    p = RationalMatrix(np.array([[1, 1], [1, 1]], dtype=object), 2)
    q = p.one_minus()
    assert (p.to_float() + q.to_float() == np.eye(2)).all()
    # Tr(p q) = Fraction sum of elementwise products with q^T
    expected = Fraction(
        int((p.num * q.num.T).sum()), p.den * q.den)
    assert p.trace_dot(q) == expected == 0


def test_rational_matrix_rejects_float_input():
    with pytest.raises(InvariantError):
        RationalMatrix(np.array([[0.5, 0], [0, 0.5]]), 2)
    with pytest.raises(InvariantError):
        RationalMatrix(np.eye(2, dtype=np.int64), 0)


def assert_python_ints(matrix: RationalMatrix) -> None:
    assert matrix.num.dtype == object
    assert all(type(x) is int for x in matrix.num.flat)


def test_rational_matrix_python_ints_past_int64_stay_exact():
    # numpy alone infers uint64 for [[2**63]] and float64 for the mixed matrix
    top = RationalMatrix([[2**63]], 1)
    assert top.entry(0, 0) == 2**63 and top.num.dtype == object
    mixed = RationalMatrix([[2**63, 0], [0, 1]], 1)
    assert mixed.num.dtype == object
    assert [mixed.entry(i, j) for i in (0, 1) for j in (0, 1)] == [2**63, 0, 0, 1]
    low = RationalMatrix([[-(2**63) - 1, 2**70]], 3)
    assert low.entry(0, 0) == Fraction(-(2**63) - 1, 3) and low.entry(0, 1) == Fraction(2**70, 3)
    unsigned = RationalMatrix(np.array([[2**63, 1]], dtype=np.uint64), 1)
    assert unsigned.entry(0, 0) == 2**63 and unsigned.num.dtype == object
    # entries that fit are Python ints too, at both ends of the int64 range
    for rows in ([[1, -2], [3, 4]], [[2**63 - 1, -(2**63)]], [[np.int64(5), 7]]):
        exact = RationalMatrix(rows, 1)
        assert_python_ints(exact)
        assert exact.num.tolist() == [[int(x) for x in row] for row in rows]
    assert RationalMatrix(np.array([[1]], dtype=object), 1).num.dtype == object
    for bad in ([[1.5]], [[2**63, 0.5]], [[True, 0]], np.array([[1.5]], dtype=object),
                np.array([[True]]), [[1, 2], [3]], [1, 2]):
        with pytest.raises(InvariantError):
            RationalMatrix(bad, 1)


def test_rational_trace_sums_past_int64():
    """Numerators that fit int64, whose diagonal sum passes 2^63 - 1, trace exactly."""
    wide = RationalMatrix([[2**62, 0], [0, 2**62]], 1)
    assert_python_ints(wide)
    assert wide.trace() == 2**63
    # trace 4 * 2^61 / 2^63 = 1, so the state is accepted
    state = DensityMatrix(RationalMatrix(np.diag([2**61] * 4), 2**63))
    assert state.exact and state.entries.trace() == 1


def _fraction_rows(matrix: RationalMatrix) -> list[list[Fraction]]:
    rows, cols = matrix.shape
    return [[matrix.entry(i, j) for j in range(cols)] for i in range(rows)]


def _as_input(rows: list[list[int]], form: str):
    if form == "int64":
        return np.array(rows, dtype=np.int64)
    if form == "np.int64 entries":
        return [[np.int64(x) for x in row] for row in rows]
    if form == "object":
        return np.array(rows, dtype=object)
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_matrix_matches_fraction_reference(data):
    """Every exact operation agrees with nested lists of Fractions, for
    numerators small and past int64 and denominators past 2^64."""
    bound = data.draw(st.sampled_from([10, 2**70]))
    forms = ["list", "object"] + (["int64", "np.int64 entries"] if bound < 2**63 else [])
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def draw(rows, cols):
        num = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols,
                                          max_size=cols), min_size=rows, max_size=rows))
        den = data.draw(st.integers(1, 2**66))
        matrix = RationalMatrix(_as_input(num, data.draw(st.sampled_from(forms))), den)
        return matrix, [[Fraction(x, den) for x in row] for row in num]

    (a, ref_a), (b, ref_b), (sq, ref_sq) = draw(r, c), draw(c, r), draw(r, r)
    product = [[sum((ref_a[i][k] * ref_b[k][j] for k in range(c)), start=Fraction(0))
                for j in range(r)] for i in range(r)]
    kron = [[ref_a[i][j] * ref_b[k][m] for j in range(c) for m in range(r)]
            for i in range(r) for k in range(c)]
    one_minus = [[int(i == j) - ref_sq[i][j] for j in range(r)] for i in range(r)]
    for matrix, ref in ((a, ref_a), (b, ref_b), (sq, ref_sq), (a @ b, product),
                        (a.kron(b), kron), (sq.one_minus(), one_minus)):
        assert_python_ints(matrix)
        assert _fraction_rows(matrix) == ref
    assert sq.trace() == sum(ref_sq[i][i] for i in range(r))
    assert a.trace_dot(b) == sum(product[i][i] for i in range(r))
    scale = data.draw(st.integers(1, 2**66))
    scaled = a.num * scale
    assert a.equals(RationalMatrix(scaled, a.den * scale))
    scaled[0, 0] += 1
    assert not a.equals(RationalMatrix(scaled, a.den * scale))
    assert sq.equals(a) == (ref_sq == ref_a)
    assert (a @ b).equals(sq) == (product == ref_sq)


# --- sign vectors ----------------------------------------------------------


def test_sign_vector_parse_both_formats():
    assert SignVector.parse("+-+-").coords == (1, -1, 1, -1)
    assert SignVector.parse("1,-1,1,-1").coords == (1, -1, 1, -1)
    with pytest.raises(InvariantError):
        SignVector.parse("+-+")  # odd length
    with pytest.raises(InvariantError):
        SignVector.parse("+0+-")
    for text, token in ((",", "''"), ("+,-", "'+'"), ("a,b", "'a'"), ("1,,1", "''")):
        with pytest.raises(InvariantError, match=re.escape(f"token {token}")):
            SignVector.parse(text)
    # coordinates are integers: no bool, float or text passes for +/-1
    for coords in ((1.5, -1), (1.0, -1), (True, -1), (1, np.float64(-1)), ("1", -1)):
        with pytest.raises(InvariantError, match="integers"):
            SignVector(coords)
    numpy_ints = SignVector((np.int64(1), np.int8(-1))).coords
    assert numpy_ints == (1, -1) and all(type(c) is int for c in numpy_ints)


def test_sign_vector_roundtrips():
    for text in ("++", "+-", "-+--", "++--+-"):
        vec = SignVector.parse(text)
        assert vec.to_text() == text
        assert SignVector.from_bits(vec.to_bits()) == vec
        assert SignVector.from_hex(vec.to_hex(), vec.n) == vec


def test_sign_vector_from_hex_rejects_bad_text_and_wide_values():
    assert SignVector.from_hex("F", 4) == SignVector.from_hex("f", 4) == SignVector.parse("++++")
    for text in ("zz", "", " f", "+f", "-1", "0x1", "1_0"):
        with pytest.raises(InvariantError, match="hex digits"):
            SignVector.from_hex(text, 8)
    # 2^n or more would lose its high bits
    for text, n in (("ff", 4), ("10", 4), ("100", 8)):
        with pytest.raises(InvariantError, match=f"n = {n} bits"):
            SignVector.from_hex(text, n)


def test_sign_vector_bits_are_computed_once():
    vec = SignVector.parse("+--+")
    assert vec.to_bits() == (1, 0, 0, 1)
    assert vec.to_bits() is vec.to_bits()
    assert vec == SignVector.parse("+--+") and hash(vec) == hash(SignVector.parse("+--+"))


def test_all_vectors_enumeration():
    vectors = list(SignVector.all_vectors(4))
    assert len(vectors) == 16
    assert len({v.coords for v in vectors}) == 16
    with pytest.raises(InvariantError):
        list(SignVector.all_vectors(3))


def test_sign_vector_dot():
    a = SignVector.parse("++--")
    b = SignVector.parse("+-+-")
    assert a.dot(b) == 0
    assert a.dot(a) == 4
    with pytest.raises(DimensionMismatchError):
        a.dot(SignVector.parse("++"))
    for other in ((1, -1, 1, -1), "+-+-", None):
        with pytest.raises(InvariantError, match="needs a SignVector"):
            a.dot(other)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sign_vector_dot_matches_coordinate_sum(n):
    """Differential: the bit-index popcount against the coordinate sum on
    every ordered pair; the index is the position in `all_vectors`."""
    vectors = list(SignVector.all_vectors(n))
    assert [v.index for v in vectors] == list(range(2**n))
    for a in vectors:
        for b in vectors:
            assert a.dot(b) == sum(x * y for x, y in zip(a.coords, b.coords))
    with pytest.raises(DimensionMismatchError):
        vectors[0].dot(SignVector((1,) * (n + 2)))


# --- operator wrappers ------------------------------------------------------


def test_projector_rejects_non_idempotent():
    with pytest.raises(InvariantError):
        Projector(np.array([[0.5, 0.0], [0.0, 0.7]]))
    with pytest.raises(InvariantError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    # diag(1, 0) over 2^40: num * den leaves int64, idempotence stays exact
    big = 2**40
    Projector(RationalMatrix(np.array([[big, 0], [0, 0]]), big))
    with pytest.raises(InvariantError):
        Projector(RationalMatrix(np.array([[big, 0], [0, big // 2]]), big))
    with pytest.raises(InvariantError):
        Projector(RationalMatrix(np.array([[big + 1, 0], [0, 0]]), big))
    huge = 2**70
    Projector(RationalMatrix(np.array([[huge, 0], [0, 0]], dtype=object), huge))
    with pytest.raises(InvariantError):
        Projector(RationalMatrix(np.array([[huge, 0], [0, 1]], dtype=object), huge))


def test_projector_complement():
    p = sign_vector_projector(SignVector.parse("+-"))
    q = p.complement()
    np.testing.assert_allclose(p.entries.to_float() + q.entries.to_float(),
                               np.eye(2))


def test_observable_projector_conversion():
    a = sign_vector_observable(SignVector.parse("++--"))
    p = observable_to_projector(a)
    back = projector_to_observable(p)
    assert back.entries.equals(a.entries)
    # object-dtype numerators over a denominator past int64
    huge = 2**70
    z = BinaryObservable(RationalMatrix(
        np.array([[huge, 0], [0, -huge]], dtype=object), huge))
    p = observable_to_projector(z)
    assert p.entries.equals(RationalMatrix(np.array([[1, 0], [0, 0]]), 1))
    assert projector_to_observable(p).entries.equals(z.entries)
    q = Projector(RationalMatrix(np.array([[0, 0], [0, huge]], dtype=object), huge))
    assert projector_to_observable(q).entries.equals(
        RationalMatrix(np.array([[-1, 0], [0, 1]]), 1))


def test_observable_requires_involution():
    with pytest.raises(InvariantError):
        BinaryObservable(np.diag([1.0, 0.5]))
    # a valid non-exact observable: Pauli X
    BinaryObservable(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_maximally_entangled_needs_a_positive_integer_dimension():
    for n in (True, 2.0, "2", 0):
        with pytest.raises(InvariantError, match="positive integer"):
            maximally_entangled(n)
    assert maximally_entangled(np.int64(2)).dim == 4


def test_density_matrix_validation():
    with pytest.raises(InvariantError):
        DensityMatrix(np.eye(4) / 2)  # trace 2
    with pytest.raises(InvariantError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    with pytest.raises(InvariantError):
        DensityMatrix(np.eye(3) / 3)  # dimension not a perfect square
    state = maximally_entangled(2)
    assert state.dim == 4 and state.dim_local == 2 and state.exact


# --- joint law and closed forms ---------------------------------------------


@pytest.mark.parametrize("n", [2, 4])
def test_trace_law_matches_closed_form_all_pairs(n):
    """Trace route vs the (a.b)^2/n^3 closed form, all pairs (not just promise)."""
    state = maximally_entangled(n)
    vectors = list(SignVector.all_vectors(n))
    projectors = {v: sign_vector_projector(v) for v in vectors}
    for a in vectors:
        for b in vectors:
            probs = predict_joint_probs(projectors[a], projectors[b], state)
            assert probs.p_pp == joint_plus_probability(a, b)
            assert probs.exact


def test_joint_probs_marginals_match_quantum_targets():
    n = 4
    state = maximally_entangled(n)
    a = SignVector.parse("++--")
    b = SignVector.parse("+-+-")
    probs = predict_joint_probs(sign_vector_projector(a),
                                sign_vector_projector(b), state)
    # each local projector is rank 1 on a maximally mixed marginal
    assert probs.p_pp + probs.p_pm == Fraction(1, n)
    assert probs.p_pp + probs.p_mp == Fraction(1, n)
    assert probs.p_pp + probs.p_mp + probs.p_pm + probs.p_mm == 1


def test_float_path_agrees_with_exact():
    n = 4
    state_f = maximally_entangled(n, exact=False)
    state_e = maximally_entangled(n)
    rng = np.random.default_rng(11)
    vectors = list(SignVector.all_vectors(n))
    for _ in range(25):
        a = vectors[rng.integers(len(vectors))]
        b = vectors[rng.integers(len(vectors))]
        exact = predict_joint_probs(sign_vector_projector(a),
                                    sign_vector_projector(b), state_e)
        loose = predict_joint_probs(sign_vector_projector(a, exact=False),
                                    sign_vector_projector(b, exact=False), state_f)
        assert not loose.exact
        for field in ("p_pp", "p_mp", "p_pm", "p_mm"):
            assert getattr(loose, field) == pytest.approx(
                float(getattr(exact, field)), abs=1e-12)


def test_predict_expectations_consistent_with_probs():
    """Every ordered pair at n = 4, on the tagged state and on the same
    entries built by value."""
    vectors = list(SignVector.all_vectors(4))
    for state in (maximally_entangled(4), by_value(maximally_entangled(4))):
        for a in vectors:
            for b in vectors:
                probs = predict_joint_probs(sign_vector_projector(a),
                                            sign_vector_projector(b), state)
                triple = predict_expectations(sign_vector_observable(a),
                                              sign_vector_observable(b), state)
                assert triple.exact and probs_to_expectations(probs) == triple


def test_singlet_expectations_from_bloch_observables():
    state = singlet(exact=False)
    z = bloch_observable((0.0, 0.0, 1.0))
    x = bloch_observable((1.0, 0.0, 0.0))
    tilted = bloch_observable((0.6, 0.0, 0.8))
    same = predict_expectations(z, z, state)
    assert same.e_ab == pytest.approx(-1.0, abs=1e-12)
    assert same.e_a == pytest.approx(0.0, abs=1e-12)
    assert same.e_b == pytest.approx(0.0, abs=1e-12)
    cross = predict_expectations(z, x, state)
    assert cross.e_ab == pytest.approx(0.0, abs=1e-12)
    slant = predict_expectations(z, tilted, state)
    assert slant.e_ab == pytest.approx(-0.8, abs=1e-12)


def test_bloch_observable_requires_unit_direction():
    with pytest.raises(InvariantError):
        bloch_observable((1.0, 1.0, 0.0))
    obs = bloch_observable((0.0, 1.0, 0.0))
    np.testing.assert_allclose(obs.entries @ obs.entries, np.eye(2), atol=1e-12)


# --- probability/expectation bijection --------------------------------------


def test_bijection_known_points():
    certain = JointProbs(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert probs_to_expectations(certain) == ExpectationTriple(
        Fraction(1), Fraction(1), Fraction(1))
    flat = JointProbs(*([Fraction(1, 4)] * 4))
    assert probs_to_expectations(flat) == ExpectationTriple(
        Fraction(0), Fraction(0), Fraction(0))


def test_bijection_roundtrip_exact():
    rng = np.random.default_rng(3)
    for _ in range(300):
        weights = rng.integers(0, 20, 4)
        if weights.sum() == 0:
            continue
        total = int(weights.sum())
        probs = JointProbs(*(Fraction(int(w), total) for w in weights))
        back = expectations_to_probs(probs_to_expectations(probs))
        assert back == probs and back.exact


def test_bijection_rejects_incoherent_triple():
    # e_ab = 1 with opposite marginals would force a negative probability
    with pytest.raises(InvariantError):
        expectations_to_probs(ExpectationTriple(
            Fraction(1), Fraction(1), Fraction(-1)))


def test_joint_probs_validation():
    with pytest.raises(InvariantError):
        JointProbs(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                   Fraction(-1, 2))
    with pytest.raises(InvariantError):
        JointProbs(0.5, 0.5, 0.5, 0.5)  # sums to 2
    # an entry that is not an int, a float or a Fraction is named, not compared
    for bad in ("0.5", None, 1 + 0j, True):
        with pytest.raises(InvariantError, match="p_pp must be an int, a float or a Fraction"):
            JointProbs(bad, 0.5, 0, 0)
        with pytest.raises(InvariantError, match="p_mm must be an int, a float or a Fraction"):
            JointProbs(0, 0, 0.5, bad)
        with pytest.raises(InvariantError, match="e_a must be an int, a float or a Fraction"):
            ExpectationTriple(0, bad, 0)
    assert JointProbs(1, 0, 0, 0).p_pp == 1
    assert ExpectationTriple(Fraction(1, 2), -1, 0.25).e_b == 0.25


# --- promise-family closed forms ---------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_target_probability_on_promise(n):
    for a in SignVector.all_vectors(n):
        assert dj_target_probability(a, a) == Fraction(1, n)
        assert joint_plus_probability(a, a) == Fraction(1, n)
    a = SignVector((1,) * n)
    b = SignVector((1,) * (n // 2) + (-1,) * (n // 2))
    assert dj_target_probability(a, b) == 0
    assert joint_plus_probability(a, b) == 0


def test_target_probability_rejects_off_promise():
    a = SignVector.parse("++++")
    b = SignVector.parse("+++-")  # dot = 2
    with pytest.raises(PromiseViolationError):
        dj_target_probability(a, b)
    # the general closed form still applies off-promise
    assert joint_plus_probability(a, b) == Fraction(4, 64)


# --- maximally entangled identity against the kron reference ---------------


def by_value(state):
    """The same entries without the structural tag: takes the kron path."""
    return DensityMatrix(state.entries)


@pytest.fixture
def kron_calls(monkeypatch):
    calls = []
    reference = oracle._trace_kron_exact

    def counted(left, right, state):
        calls.append(1)
        return reference(left, right, state)

    monkeypatch.setattr(oracle, "_trace_kron_exact", counted)
    return calls


@pytest.fixture
def law_parts_calls(monkeypatch):
    calls = []
    reference = oracle._law_parts

    def counted(pa, pb, state):
        calls.append(1)
        return reference(pa, pb, state)

    monkeypatch.setattr(oracle, "_law_parts", counted)
    return calls


def assert_identity_matches_kron(projectors, state):
    """Every ordered pair: the tagged path equals the kron path exactly."""
    reference = by_value(state)
    observables = [projector_to_observable(p) for p in projectors]
    for pa in projectors:
        for pb in projectors:
            fast = predict_joint_probs(pa, pb, state)
            assert fast == predict_joint_probs(pa, pb, reference)
            assert fast.exact
    for oa in observables:
        for ob in observables:
            fast = predict_expectations(oa, ob, state)
            assert fast == predict_expectations(oa, ob, reference)
            assert fast.exact


@pytest.mark.parametrize("n", [2, 4, 6])
def test_identity_matches_kron_on_sign_vectors(n):
    projectors = [sign_vector_projector(v) for v in SignVector.all_vectors(n)]
    assert_identity_matches_kron(projectors, maximally_entangled(n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sign_vector_law_matches_sum_and_kron_routes(n, law_parts_calls, kron_calls):
    """Every ordered pair, off the promise too: the cached closed form on
    tagged projectors equals the sum_ij P_ij Q_ij route on the same entries
    built by value, and the kron route on the state built by value."""
    state = maximally_entangled(n)
    reference = by_value(state)
    vectors = list(SignVector.all_vectors(n))
    tagged = [sign_vector_projector(v) for v in vectors]
    untagged = [Projector(RationalMatrix(np.outer(v.coords, v.coords), n)) for v in vectors]
    for pa, qa in zip(tagged, untagged):
        for pb, qb in zip(tagged, untagged):
            closed = predict_joint_probs(pa, pb, state)
            assert closed.exact
            assert closed == predict_joint_probs(qa, qb, state)
            assert closed == predict_joint_probs(pa, pb, reference)
    # the closed form reaches neither route; each other call reaches one
    pairs = len(vectors) ** 2
    assert len(law_parts_calls) == 2 * pairs and len(kron_calls) == 3 * pairs


@pytest.mark.parametrize("n", [2, 4])
def test_identity_matches_kron_on_higher_rank_projectors(n):
    vectors = list(SignVector.all_vectors(n))
    diagonal = [Projector(RationalMatrix(np.diag(v.to_bits()), 1)) for v in vectors]
    rank_one = [sign_vector_projector(v) for v in vectors[:4]]
    # P_a + P_b for orthogonal a, b: rank two with denominator n
    a = vectors[0]
    rank_two = [Projector(RationalMatrix(
        sign_vector_projector(a).entries.num + sign_vector_projector(b).entries.num, n))
        for b in vectors if a.dot(b) == 0][:4]
    projectors = diagonal + rank_two + [p.complement() for p in diagonal + rank_one]
    assert_identity_matches_kron(projectors, maximally_entangled(n))


def test_identity_matches_kron_on_wide_numerators():
    """Python-int numerators past the int64 range, on both paths."""
    scale = 2**70
    n = 4
    projectors = []
    for v in list(SignVector.all_vectors(n))[:6]:
        p = sign_vector_projector(v).entries
        projectors.append(Projector(RationalMatrix(p.num.astype(object) * scale,
                                                   p.den * scale)))
    projectors += [p.complement() for p in projectors[:2]]
    state = maximally_entangled(n)
    reference = by_value(state)
    for pa in projectors:
        for pb in projectors:
            assert predict_joint_probs(pa, pb, state) == \
                predict_joint_probs(pa, pb, reference)


def test_tagged_state_skips_kron(kron_calls):
    a, b = SignVector.parse("++--"), SignVector.parse("+-+-")
    state = maximally_entangled(4)
    predict_joint_probs(sign_vector_projector(a), sign_vector_projector(b), state)
    predict_expectations(sign_vector_observable(a), sign_vector_observable(b), state)
    assert kron_calls == []


def test_state_built_by_value_takes_kron(kron_calls):
    a, b = SignVector.parse("++--"), SignVector.parse("+-+-")
    state = by_value(maximally_entangled(4))
    assert state.entries.equals(maximally_entangled(4).entries)
    predict_joint_probs(sign_vector_projector(a), sign_vector_projector(b), state)
    assert len(kron_calls) == 3
    predict_expectations(sign_vector_observable(a), sign_vector_observable(b), state)
    assert len(kron_calls) == 6


def test_untagged_operands_reach_law_parts(law_parts_calls):
    a, b = SignVector.parse("++--"), SignVector.parse("+-+-")
    state = maximally_entangled(4)
    tagged_a, tagged_b = sign_vector_projector(a), sign_vector_projector(b)
    closed = predict_joint_probs(tagged_a, tagged_b, state)
    # the tag is set only by an exact `sign_vector_projector`, never by value
    untagged = [Projector(tagged_a.entries), tagged_a.complement(),
                sign_vector_projector(a, exact=False),
                observable_to_projector(sign_vector_observable(a))]
    assert tagged_a._sign_vector is a
    assert all(p._sign_vector is None for p in untagged)
    assert predict_joint_probs(untagged[0], tagged_b, state) == closed
    assert len(law_parts_calls) == 1
    loose = predict_joint_probs(untagged[2], sign_vector_projector(b, exact=False),
                                maximally_entangled(4, exact=False))
    assert not loose.exact and len(law_parts_calls) == 2
    assert predict_joint_probs(tagged_a, tagged_b, by_value(state)) == closed
    assert len(law_parts_calls) == 3
    assert probs_to_expectations(closed) == predict_expectations(
        sign_vector_observable(a), sign_vector_observable(b), state)
    assert len(law_parts_calls) == 4
    # tagged operands whose lengths are not the state's n: 2 x 8 = 4^2
    short, wide = SignVector.parse("+-"), SignVector.parse("++--+-+-")
    odd = predict_joint_probs(sign_vector_projector(short), sign_vector_projector(wide), state)
    assert len(law_parts_calls) == 5
    assert odd == predict_joint_probs(sign_vector_projector(short),
                                      sign_vector_projector(wide), by_value(state))


def test_promise_sweep_builds_two_laws(law_parts_calls):
    """One law per (n, a.b), shared by every scenario that has that key;
    no tagged pair reaches `_law_parts`."""
    oracle._sign_vector_law.cache_clear()
    scenarios = promise_scenarios(8)
    assert law_parts_calls == []
    info = oracle._sign_vector_law.cache_info()
    assert info.currsize == 2 and info.misses == 2
    assert info.hits == len(scenarios) - 2 == 18_174
    assert len({id(sc.target) for sc in scenarios}) == 2
    # the protocol derives its own law: equal to the oracle's, never the same object
    protocol = SendAllReplyProtocol(8)
    for sc in scenarios[:2]:
        law = protocol.exact_distribution(sc.input_a, sc.input_b)
        assert law == sc.target and law is not sc.target


def test_unequal_party_dims_take_kron(kron_calls):
    """1 x 4 party dims match a 4 x 4 state, but the identity needs n x n."""
    state = maximally_entangled(2)
    scalar = Projector(RationalMatrix(np.array([[1]]), 1))
    wide = Projector(RationalMatrix(np.diag([1, 0, 0, 1]), 1))
    probs = predict_joint_probs(scalar, wide, state)
    assert len(kron_calls) == 3
    assert probs == predict_joint_probs(scalar, wide, by_value(state))
    assert probs.p_pp == 1  # the diagonal of Phi lies on |00> and |11>
