"""Postulate engine: states, evolution, measurement, composition, and the
extension/correction translation between h-parametrized conventional
operators and dual-complex operators."""

import gc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    embed,
    random_complex_hermitian,
    random_complex_unitary,
    random_dc_hermitian,
    random_dc_unitary,
    random_dc_vector,
    unembed,
)
from dcquantum import linalg, quantum, spectral
from dcquantum.errors import (
    DimMismatch,
    IncompleteFamily,
    IncompleteMeasurement,
    InfinitesimalVector,
    MalformedInput,
    ModulusOfInfinitesimal,
    NotHermitian,
    NotUnitary,
    NotUnitaryAtZero,
)
from dcquantum.linalg import (
    DCMatrix,
    DCVector,
    completeness_defect,
    dilation_block,
    eig_unitary,
    mat_exp,
    stinespring,
    vnorm,
)
from dcquantum.quantum import (
    Measurement,
    QuantumState,
    complex_correct_measurement,
    complex_correct_unitary,
    dc_extend_measurement,
    dc_extend_unitary,
    dilation_blocks,
    evolve,
    measure,
    measurement_from_complex,
    normalize,
    sample,
    sampled_family,
    schrodinger_step,
    tensor,
    tensor_op,
)
from dcquantum.scalar import EPS, DualComplex
from dcquantum.walk import corrected_gate, dirac_gate

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# dilation of the {|0><0|, |1><0|} measurement used in several tests:
# significant part is a swap of the middle basis vectors, and the chosen
# Hermitian generator fills the gauge-free entries with pi
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
H_GAUGE = np.pi * np.array(
    [
        [1, 0, 0, 1 / np.sqrt(3)],
        [0, 1, 0, 0],
        [0, 0, 1, -2 / np.sqrt(6)],
        [1 / np.sqrt(3), 0, -2 / np.sqrt(6), 1],
    ],
    dtype=complex,
)


def ket(dim, i):
    return QuantumState(DCVector.basis(dim, i))


STEP = 1e-6  # sampling step of the conventional (scipy) families below


def sampled(fam, step=STEP):
    """The ring family through a conventional unitary family's samples
    at 0 and +-step."""
    return sampled_family(fam(0.0), fam(step), fam(-step), step)


def sampled_measurement(fam, step=STEP):
    """The ring family through a conventional measurement family's
    samples, one `sampled_family` per operator."""
    slots = [sampled_family(*ops, step) for ops in zip(fam(0.0), fam(step), fam(-step))]
    return lambda h: [f(h) for f in slots]


class TestStatesAndNormalize:
    def test_normalize_three_four(self):
        s = normalize(DCVector(np.array([3.0, 4.0])))
        assert np.allclose(s.vec.sig, [0.6, 0.8])

    def test_normalize_unit_is_identity(self):
        v = DCVector(np.array([1.0, 0.0]), np.array([0.0, 1j]))
        s = normalize(v)
        assert np.allclose(s.vec.sig, v.sig) and np.allclose(s.vec.inf, v.inf)

    def test_normalize_fixes_dual_part(self, rng):
        for dim in (2, 3, 5):
            s = normalize(random_dc_vector(dim, rng))
            n = vnorm(s.vec)
            assert abs(n.sig - 1.0) < 1e-12 and abs(n.inf) < 1e-12

    def test_normalize_infinitesimal_raises(self):
        with pytest.raises(InfinitesimalVector):
            normalize(DCVector(np.zeros(2), np.array([1.0, 0.0])))

    def test_state_rejects_wrong_norm(self):
        with pytest.raises(InfinitesimalVector):
            QuantumState(DCVector(np.array([1.0, 1.0])))
        with pytest.raises(InfinitesimalVector):
            QuantumState(DCVector(np.array([1.0, 0.0]), np.array([0.5, 0.0])))

    @pytest.mark.parametrize("sig, inf", [
        ([np.nan, 0.0], [0.0, 0.0]),
        ([1.0, 0.0], [0.0, np.nan]),
        ([1.0, 0.0], [np.inf, 0.0]),
        ([1.0, 0.0], [0.0, -np.inf]),
    ], ids=["nan-sig", "nan-eps", "inf-eps", "inf-eps-off-support"])
    def test_state_rejects_non_finite_vector(self, sig, inf):
        with np.errstate(invalid="ignore"), pytest.raises(InfinitesimalVector):
            QuantumState(DCVector(np.array(sig), np.array(inf)))

    def test_infinitesimal_state_raises_infinitesimal_vector(self):
        with pytest.raises(InfinitesimalVector):
            QuantumState(DCVector(np.zeros(2), np.array([1.0, 0.0])))


class TestEvolve:
    def test_identity(self):
        s = ket(2, 0)
        out = evolve(s, DCMatrix.identity(2))
        assert np.allclose(out.vec.sig, s.vec.sig)

    def test_mass_gate_on_right_mover(self):
        m = 0.7
        g = DCMatrix(SX, -1j * m * np.eye(2))
        out = evolve(ket(2, 0), g)
        assert np.allclose(out.vec.sig, [0, 1])
        assert np.allclose(out.vec.inf, [-1j * m, 0])

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            evolve(ket(2, 0), DCMatrix(2 * np.eye(2)))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            evolve(ket(3, 0), DCMatrix.identity(2))

    def test_preserves_state_invariant(self, rng):
        for dim in (2, 4, 7):
            s = normalize(random_dc_vector(dim, rng))
            out = evolve(s, random_dc_unitary(dim, rng))
            n = vnorm(out.vec)
            assert abs(n.sig - 1.0) < 1e-9 and abs(n.inf) < 1e-9

    def test_large_dual_unitary(self, rng):
        # (I + i eps H) U with eps-part entries near 3e8: an absolute defect of 2e-7
        u = random_dc_unitary(64, rng)
        u = DCMatrix(u.sig, u.inf * (3e8 / np.abs(u.inf).max()))
        out = evolve(ket(64, 0), u)
        assert np.array_equal(out.vec.sig, u.sig[:, 0])
        assert np.array_equal(out.vec.inf, u.inf[:, 0])
        assert len(eig_unitary(u).values) == 64


class TestSchrodingerStep:
    def test_zero_time(self):
        s = normalize(DCVector(np.array([1.0, 1j])))
        out = schrodinger_step(s, DCMatrix(SZ), 0.0)
        assert np.allclose(out.vec.sig, s.vec.sig)

    def test_pi_phase(self):
        s = normalize(DCVector(np.array([1.0, 1.0])))
        out = schrodinger_step(s, DCMatrix(SZ), np.pi)
        assert np.allclose(out.vec.sig, -s.vec.sig, atol=1e-12)

    def test_infinitesimal_generator_first_order(self):
        out = schrodinger_step(ket(2, 0), DCMatrix(np.zeros((2, 2)), SZ), 0.3)
        assert np.allclose(out.vec.sig, [1, 0])
        assert np.allclose(out.vec.inf, [-0.3j, 0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            schrodinger_step(ket(2, 0), DCMatrix(1j * SX), 0.1)

    def test_subnormal_generator_steps(self):
        # eigenvalue gaps below the smallest normal float: expm1(d) / d is 1 there
        t = 5e-324
        h = DCMatrix(np.array([[t, t * (1 + 1j)], [t * (1 - 1j), t]]))
        s = normalize(DCVector(np.array([1.0, 1j])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = schrodinger_step(s, h, 1.0)
        assert np.isfinite(out.vec.sig).all() and np.isfinite(out.vec.inf).all()
        assert np.abs(out.vec.sig - s.vec.sig).max() <= 1e-15
        n = vnorm(out.vec)
        assert abs(n.sig - 1.0) <= 1e-15 and abs(n.inf) <= 1e-15

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_matches_the_block_image_oracle(self, rng, n):
        # expm of the block image of -i dt H_eps, applied to the state's image
        h = random_dc_hermitian(n, rng)
        s = normalize(random_dc_vector(n, rng))
        want = unembed(scipy.linalg.expm(embed(h.scale(-0.37j))) @ embed(s.vec))
        got = schrodinger_step(s, h, 0.37).vec
        for part in ("sig", "inf"):
            w = getattr(want, part)
            assert np.abs(getattr(got, part) - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def chain_step(s, h, dt):
    """The propagator built and checked on every step: the oracle."""
    return evolve(s, mat_exp(h.scale(-1j * dt)))


def same_bits(a: QuantumState, b: QuantumState) -> bool:
    return (a.vec.sig.tobytes(), a.vec.inf.tobytes()) == (b.vec.sig.tobytes(), b.vec.inf.tobytes())


class TestPropagatorMemo:
    """schrodinger_step keeps the last verified exp(-i dt H_eps) beside
    H_eps, keyed by its identity and the bits of -i dt."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the propagator and of the two checks, by name."""
        counts = {}
        for name in ("_scaled_exp", "is_hermitian", "is_unitary"):
            def counting(*args, _f=getattr(quantum, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _f(*args)
            monkeypatch.setattr(quantum, name, counting)
        return counts

    @pytest.mark.parametrize("dt", [0.05, 0.0, -0.0, np.pi, np.float32(0.05)],
                             ids=["0.05", "0.0", "-0.0", "pi", "float32"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_thirty_steps_match_the_chain_bit_for_bit(self, n, dt, rng):
        h = random_dc_hermitian(n, rng)
        s = want = normalize(random_dc_vector(n, rng))
        for _ in range(30):
            s, want = schrodinger_step(s, h, dt), chain_step(want, h, dt)
            assert same_bits(s, want)

    def test_alternating_dts_match_the_chain(self, rng):
        h = random_dc_hermitian(5, rng)
        s = want = normalize(random_dc_vector(5, rng))
        for dt in [0.05, 0.07, 0.05, 0.05, -0.05, 0.0, -0.0, 0.07] * 3:
            s, want = schrodinger_step(s, h, dt), chain_step(want, h, dt)
            assert same_bits(s, want)

    def test_alternating_hamiltonians_match_the_chain(self, rng):
        hs = [random_dc_hermitian(5, rng) for _ in range(2)]
        hs.append(DCMatrix(hs[0].sig, hs[0].inf))  # equal to hs[0], another object
        s = want = normalize(random_dc_vector(5, rng))
        for i in [0, 1, 0, 0, 2, 1, 1, 2] * 3:
            s, want = schrodinger_step(s, hs[i], 0.05), chain_step(want, hs[i], 0.05)
            assert same_bits(s, want)

    def test_built_and_checked_once_per_hamiltonian_and_dt(self, counts, rng):
        h1, h2 = random_dc_hermitian(4, rng), random_dc_hermitian(4, rng)
        s = normalize(random_dc_vector(4, rng))
        for h, dt in [(h1, 0.05), (h2, 0.05), (h2, 0.1), (h1, 0.05)]:
            for _ in range(30):
                s = schrodinger_step(s, h, dt)
        assert counts == {"_scaled_exp": 4, "is_hermitian": 4, "is_unitary": 4}

    @pytest.mark.parametrize("pair", [(0.0, -0.0), (np.float32(0.05), 0.05),
                                      (np.float32(0.05), float(np.float32(0.05)))],
                             ids=["signed-zero", "float32-float64", "float32-same-value"])
    def test_dts_of_other_bits_are_other_keys(self, pair, counts, rng):
        h = random_dc_hermitian(3, rng)
        s = normalize(random_dc_vector(3, rng))
        for dt in pair * 3:
            s = schrodinger_step(s, h, dt)
        assert counts["_scaled_exp"] == 6

    def test_a_dual_dt_is_never_kept(self, counts, rng):
        # -i dt is then a DualComplex, which has no bits to key on
        h = random_dc_hermitian(3, rng)
        s = want = normalize(random_dc_vector(3, rng))
        for _ in range(3):
            dt = DualComplex(0.05, 0.0)
            s, want = schrodinger_step(s, h, dt), chain_step(want, h, dt)
            assert same_bits(s, want)
        assert counts["_scaled_exp"] == 3

    def test_non_hermitian_raises_on_every_call(self, counts, rng):
        bad = DCMatrix(1j * SX)
        for _ in range(3):
            with pytest.raises(NotHermitian):
                schrodinger_step(ket(2, 0), bad, 0.1)
        assert counts == {"is_hermitian": 3}
        h = random_dc_hermitian(2, rng)
        assert same_bits(schrodinger_step(ket(2, 0), h, 0.1), chain_step(ket(2, 0), h, 0.1))

    def test_failed_unitary_check_is_not_kept(self, counts):
        h = DCMatrix(SZ)
        for _ in range(3):
            with pytest.raises(NotUnitary):
                schrodinger_step(ket(2, 0), h, float("nan"))
        assert counts["_scaled_exp"] == 3 and counts["is_unitary"] == 3

    def test_dim_mismatch_after_a_hit(self, counts, rng):
        h = random_dc_hermitian(2, rng)
        s = schrodinger_step(schrodinger_step(ket(2, 0), h, 0.1), h, 0.1)
        assert counts["_scaled_exp"] == 1
        with pytest.raises(DimMismatch, match=r"operator \(2, 2\) on state of dim 3"):
            schrodinger_step(ket(3, 0), h, 0.1)
        assert same_bits(schrodinger_step(s, h, 0.1), chain_step(s, h, 0.1))
        assert counts["_scaled_exp"] == 1

    def test_hamiltonian_is_freed_and_unchanged(self, rng):
        h = random_dc_hermitian(3, rng)
        copy = DCMatrix(h.sig, h.inf)
        schrodinger_step(ket(3, 0), h, 0.1)
        assert vars(h).keys() == {"sig", "inf"} and repr(h) == repr(copy)
        held = weakref.ref(h)
        del h
        gc.collect()
        assert held() is None


def _bits(a) -> bytes:
    """The bytes of a ring value's parts, of a dual scalar's, or of None."""
    if a is None:
        return b""
    return np.asarray(a.sig).tobytes() + np.asarray(a.inf).tobytes()


#: signed zeros and subnormals, whose products with -i dt can underflow to
#: zeros of either sign, beside moderate values
_STEP_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -0.5]) | st.floats(-4.0, 4.0)


def _exactly_hermitian(draw, n):
    """A Hermitian n x n array whose lower triangle conjugates its upper
    one entry by entry, so that a -0.0 keeps its sign."""
    x = draw(hnp.arrays(np.float64, (n, n, 2), elements=_STEP_ENTRIES)).view(complex)[..., 0]
    h = np.where(np.tri(n, k=-1, dtype=bool), x.conj().T, x)
    np.fill_diagonal(h, x.diagonal().real)
    return h


@st.composite
def _schrodinger_cases(draw):
    """(H + eps V, dt): H exactly Hermitian, or all zeros, or Hermitian only
    within REQUIRE_ATOL (a tilted entry: -i dt H then takes the series);
    V exactly Hermitian; dt of either sign, signed zeros included."""
    n = draw(st.integers(1, 5))
    h = draw(st.sampled_from(["exact", "zero", "tilted"]))
    sig = np.zeros((n, n)) if h == "zero" else _exactly_hermitian(draw, n)
    if h == "tilted":
        sig[0, -1] += 1e-10
    dt = draw(st.sampled_from([0.0, -0.0, 0.05, -0.37, 1e-300, 2.5]) | st.floats(-3.0, 3.0))
    return DCMatrix(sig, _exactly_hermitian(draw, n)), dt


class TestPropagatorWithoutScaledCopy:
    """schrodinger_step forms exp(-i dt H_eps) from H_eps's parts, with no
    dual copy of -i dt H_eps; its bits are those of the dual copy's mat_exp."""

    @given(_schrodinger_cases())
    @settings(max_examples=300, deadline=None)
    def test_propagator_is_mat_exp_of_the_scaled_generator(self, case):
        h, dt = case
        quantum._propagator = (None, None, None)
        with warnings.catch_warnings(), mock.patch.object(quantum, "evolve",
                                                          wraps=quantum.evolve) as evolved:
            warnings.simplefilter("ignore", RuntimeWarning)  # subnormal products
            want = mat_exp(h.scale(-1j * dt))
            try:
                schrodinger_step(ket(h.rows, 0), h, dt)
            except NotUnitary:
                # eigenvalues a subnormal apart give a NaN eps-part, in
                # the dual copy's propagator too
                assert not linalg.is_unitary(want, linalg.REQUIRE_ATOL)
            else:
                assert quantum._propagator[0]() is h
        assert _bits(evolved.call_args.args[1]) == _bits(want)

    @pytest.mark.parametrize("dt", [0.05, -0.0])
    def test_a_generator_hermitian_within_tolerance_takes_the_series(self, dt, monkeypatch, rng):
        h = random_dc_hermitian(6, rng)
        h = DCMatrix(h.sig + np.eye(6, k=1) * 1e-10, h.inf)
        series = []
        monkeypatch.setattr(spectral, "_mat_exp_taylor",
                            lambda m, _f=spectral._mat_exp_taylor: series.append(m) or _f(m))
        monkeypatch.setattr(quantum, "_propagator", (None, None, None))
        schrodinger_step(ket(6, 0), h, dt)
        want = mat_exp(h.scale(-1j * dt))
        assert len(series) == 2 * (dt != 0)  # -i dt H is 0 at dt = 0, so Hermitian
        assert _bits(quantum._propagator[2]) == _bits(want)


@st.composite
def _eps_free_families(draw):
    """The operators of a complete family without eps-parts: the row blocks
    of a random isometry, or a diagonal projector and its complement."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return tuple(np.diag(d).astype(complex) for d in
                     (lambda p: (p, 1.0 - p))(rng.integers(0, 2, n).astype(float)))
    q = np.linalg.qr(rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n)))[0]
    return q[:n], q[n:]


class TestEpsFreeOperators:
    """An operator given without an eps-part holds a zero-strided view of
    one zero; measuring with it gives the bits explicit zeros give."""

    @given(_eps_free_families(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_measure_as_with_explicit_zeros(self, ops, data):
        n = ops[0].shape[1]
        parts = [data.draw(hnp.arrays(np.float64, (n, 2), elements=_STEP_ENTRIES))
                 .view(complex)[:, 0] for _ in range(2)]
        assume(np.linalg.norm(parts[0]) > 1e-3)
        s = normalize(DCVector(*parts))
        free = Measurement(tuple(DCMatrix(op) for op in ops))
        explicit = Measurement(tuple(DCMatrix(op, np.zeros_like(op)) for op in ops))
        assert all(op.inf.strides == (0, 0) for op in free.operators)
        got, want = measure(s, free), measure(s, explicit)
        assert ([(o.label, _bits(o.probability), _bits(o.post and o.post.vec)) for o in got]
                == [(o.label, _bits(o.probability), _bits(o.post and o.post.vec))
                    for o in want])


class TestMeasure:
    @pytest.mark.parametrize("labels", [("a",), ("a", "b", "c"), ()])
    def test_one_label_per_operator(self, labels):
        ops = (DCMatrix(np.diag([1.0, 0.0])), DCMatrix(np.diag([0.0, 1.0])))
        with pytest.raises(DimMismatch, match="one label per measurement operator"):
            Measurement(ops, labels)

    def test_projective_on_plus(self):
        m = measurement_from_complex(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=("up", "down")
        )
        s = normalize(DCVector(np.array([1.0, 1.0])))
        outcomes = measure(s, m)
        for o in outcomes:
            assert abs(o.probability.sig - 0.5) < 1e-12
            assert abs(o.probability.inf) < 1e-12
            assert not o.zero_branch
        assert np.allclose(outcomes[0].post.vec.sig, [1, 0])
        assert np.allclose(outcomes[1].post.vec.sig, [0, 1])

    def test_zero_branch(self):
        m = measurement_from_complex(
            [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])]
        )
        outcomes = measure(ket(2, 0), m)
        assert outcomes[0].probability.sig == pytest.approx(1.0)
        assert outcomes[0].probability.inf == pytest.approx(0.0)
        assert outcomes[1].zero_branch
        assert outcomes[1].probability.sig == 0.0

    def test_probabilities_sum_to_one(self, rng):
        for dim, k in ((2, 2), (3, 2), (2, 3)):
            big = random_dc_unitary(dim * k, rng)
            m = Measurement(tuple(dilation_blocks(big, k)))
            s = normalize(random_dc_vector(dim, rng))
            total_sig = sum(o.probability.sig for o in measure(s, m))
            total_inf = sum(o.probability.inf for o in measure(s, m))
            assert abs(total_sig - 1.0) < 1e-9 and abs(total_inf) < 1e-9

    def test_dual_probability_and_post_state(self):
        # state with an infinitesimal part overlapping the projector range
        s = QuantumState(
            DCVector(np.array([0.6, 0.8]), np.array([0.4, -0.3]))
        )
        m = measurement_from_complex([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        out = measure(s, m)
        assert abs(out[0].probability.sig - 0.36) < 1e-12
        assert abs(out[0].probability.inf - 2 * 0.6 * 0.4) < 1e-12
        n = vnorm(out[0].post.vec)
        assert abs(n.sig - 1.0) < 1e-12 and abs(n.inf) < 1e-12

    def test_incomplete_family_rejected(self):
        with pytest.raises(IncompleteMeasurement):
            measurement_from_complex([np.diag([1.0, 0.0])])
        with pytest.raises(IncompleteFamily, match="empty"):
            Measurement(())

    def test_dim_mismatch(self):
        m = measurement_from_complex([np.eye(2)])
        with pytest.raises(DimMismatch):
            measure(ket(3, 0), m)

    @pytest.mark.parametrize("other", [np.zeros((1, 1)), np.zeros((2, 3))],
                             ids=["1x1-broadcasts", "2x3"])
    def test_operators_of_another_column_count_rejected(self, other):
        # the 1x1 product broadcast in the completeness sum; 2x3 raised numpy's ValueError
        with pytest.raises(DimMismatch, match="operator 1 has"):
            Measurement((DCMatrix(np.eye(2)), DCMatrix(other)))

    def test_rectangular_operators_with_equal_columns_accepted(self):
        m = Measurement((DCMatrix(0.6 * np.eye(2)),
                         DCMatrix(np.array([[0.8, 0.0], [0.0, 0.8], [0.0, 0.0]]))))
        out = measure(ket(2, 0), m)
        assert [o.probability.sig for o in out] == pytest.approx([0.36, 0.64])
        assert out[1].post.dim == 3


class TestSample:
    def test_deterministic_in_seed(self):
        s = normalize(DCVector(np.array([1.0, 1.0])))
        m = measurement_from_complex([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert sample(s, m, seed=7) == sample(s, m, seed=7)

    def test_frequencies_match_probabilities(self):
        s = normalize(DCVector(np.array([1.0, np.sqrt(3.0)])))  # p = 1/4, 3/4
        m = measurement_from_complex([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        n = 1500
        hits = sum(sample(s, m, seed=i) == 0 for i in range(n))
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert abs(hits - n * 0.25) < 3 * sigma


class TestTensor:
    def test_basis_indexing(self):
        s = tensor(ket(2, 0), ket(2, 1))
        assert np.allclose(s.vec.sig, [0, 1, 0, 0])

    def test_dual_parts_combine(self):
        a = QuantumState(DCVector(np.array([1.0, 0]), np.array([1j, 0])))
        b = ket(2, 0)
        s = tensor(a, b)
        assert np.allclose(s.vec.sig, [1, 0, 0, 0])
        assert np.allclose(s.vec.inf, [1j, 0, 0, 0])

    def test_op_compatibility(self, rng):
        a_op, b_op = random_dc_unitary(2, rng), random_dc_unitary(3, rng)
        a = normalize(random_dc_vector(2, rng))
        b = normalize(random_dc_vector(3, rng))
        left = evolve(tensor(a, b), tensor_op(a_op, b_op))
        right = tensor(evolve(a, a_op), evolve(b, b_op))
        assert np.abs(left.vec.sig - right.vec.sig).max() < 1e-10
        assert np.abs(left.vec.inf - right.vec.inf).max() < 1e-10


class TestExtendUnitary:
    def test_phase_family(self):
        u_eps = dc_extend_unitary(sampled(lambda h: scipy.linalg.expm(1j * h * SZ)))
        assert np.allclose(u_eps.sig, np.eye(2))
        assert np.abs(u_eps.inf - 1j * SZ).max() < 1e-9

    def test_constant_family(self):
        u_eps = dc_extend_unitary(lambda h: DCMatrix(SX))
        assert np.allclose(u_eps.sig, SX) and np.abs(u_eps.inf).max() < 1e-9

    def test_mass_coupling_family(self):
        m = 1.3
        u_eps = dc_extend_unitary(sampled(lambda h: scipy.linalg.expm(-1j * h * m * SX) @ SX))
        assert np.allclose(u_eps.sig, SX)
        assert np.abs(u_eps.inf - (-1j * m) * np.eye(2)).max() < 1e-8

    def test_closed_form_derivative_is_used(self):
        # a known derivative D is the affine family U_0 + h D
        u_eps = dc_extend_unitary(lambda h: DCMatrix(np.eye(2)) + DCMatrix(1j * SX).scale(h))
        assert np.allclose(u_eps.inf, 1j * SX)

    def test_rejects_non_unitary_base_point(self):
        with pytest.raises(NotUnitaryAtZero):
            dc_extend_unitary(lambda h: DCMatrix(2 * np.eye(2)))

    @pytest.mark.parametrize("n", [4, 32, 128])
    def test_ring_family_extends_exactly(self, n, rng):
        # exp(-ihH) U_0 in ring arithmetic: its eps-part is -iHU_0 to
        # rounding, where a central difference at 1e-6 is off by ~1e-11
        herm = random_complex_hermitian(n, rng)
        u0 = random_complex_unitary(n, rng)
        u_eps = dc_extend_unitary(lambda h: mat_exp(DCMatrix(herm).scale(-1j * h))
                                  @ DCMatrix(u0))
        want = -1j * herm @ u0
        assert np.array_equal(u_eps.sig, u0)
        assert np.abs(u_eps.inf - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n, degenerate", [(2, False), (5, False), (16, False), (16, True)])
    def test_mat_exp_family_matches_the_block_image_oracle(self, rng, n, degenerate):
        # h -> exp(A + hB) for anti-Hermitian A and B extends to
        # exp(A + eps B), which expm of the block image [[A, B], [0, A]]
        # holds; a degenerate A takes the divided differences' coincident
        # branch
        q = random_complex_unitary(n, rng)
        lam = rng.uniform(-2.0, 2.0, n)
        if degenerate:
            lam = rng.choice(lam[:3], n)
        h = (q * lam) @ q.conj().T
        a = 1j * (0.5 * (h + h.conj().T))  # exactly anti-Hermitian: the closed form
        b = 1j * random_complex_hermitian(n, rng)
        got = dc_extend_unitary(lambda t: mat_exp(DCMatrix(a) + DCMatrix(b).scale(t)))
        want = unembed(scipy.linalg.expm(embed(DCMatrix(a, b))))
        for part in ("sig", "inf"):
            w = getattr(want, part)
            assert np.abs(getattr(got, part) - w).max() <= 1e-12 * max(1.0, np.abs(w).max())

    @pytest.mark.parametrize("m", [0.7, -2.3, 1e3, 0.0])
    def test_walk_gate_family_is_the_dirac_gate(self, m):
        # sigma_x exp(-imh sigma_x): at eps the Dirac gate bit for bit,
        # at real h the corrected conventional gate
        def fam(h):
            return DCMatrix(SX) @ mat_exp(DCMatrix(SX).scale(-1j * m * h))

        got, want = dc_extend_unitary(fam), dirac_gate(m)
        assert np.array_equal(got.sig, want.sig) and np.array_equal(got.inf, want.inf)
        for h in (1e-3, 0.1):
            assert np.abs(fam(h).sig - corrected_gate(m, h)).max() <= 1e-12


class TestCorrectUnitary:
    def test_closed_form_on_mass_gate(self):
        m, h = 0.8, 0.1
        g = DCMatrix(SX, -1j * m * np.eye(2))
        out = complex_correct_unitary(g, h)
        want = np.cos(m * h) * SX - 1j * np.sin(m * h) * np.eye(2)
        assert np.abs(out - want).max() < 1e-12

    def test_h_zero_returns_significant_part(self, rng):
        u_eps = random_dc_unitary(3, rng)
        assert np.abs(complex_correct_unitary(u_eps, 0.0) - u_eps.sig).max() < 1e-12

    def test_second_order_agreement_with_source_family(self, rng):
        # family with an O(h^2) term the dual extension cannot see
        h1 = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
        h2 = np.array([[1.0, 0.5j], [-0.5j, 0.2]])
        fam = lambda h: scipy.linalg.expm(1j * h * h1 + 1j * h * h * h2) @ SX
        u_eps = dc_extend_unitary(sampled(fam))

        def err(h):
            return np.abs(complex_correct_unitary(u_eps, h) - fam(h)).max()

        ratio = err(1e-2) / err(5e-3)
        assert 3.3 < ratio < 4.7

    def test_round_trip_exact_form(self):
        herm = np.array([[0.3, 0.1j], [-0.1j, -0.2]])
        fam = lambda h: scipy.linalg.expm(1j * h * herm) @ SZ
        u_eps = dc_extend_unitary(sampled(fam))
        for h in (0.05, 0.2, 0.7):
            assert np.abs(complex_correct_unitary(u_eps, h) - fam(h)).max() < 1e-6


class TestMeasurementTranslation:
    def family(self, h):
        big = scipy.linalg.expm(1j * h * H_GAUGE) @ SWAP
        return [big[0:2, 0:2], big[2:4, 0:2]]

    def test_extension_base_point(self):
        m = dc_extend_measurement(sampled_measurement(self.family))
        assert np.allclose(m.operators[0].sig, [[1, 0], [0, 0]])
        assert np.allclose(m.operators[1].sig, [[0, 1], [0, 0]])

    def test_constant_family_has_zero_infinitesimal(self):
        m = dc_extend_measurement(
            lambda h: [DCMatrix(np.diag([1.0, 0.0])), DCMatrix(np.diag([0.0, 1.0]))]
        )
        for op in m.operators:
            assert np.abs(op.inf).max() < 1e-9

    def test_correction_at_h_zero(self):
        m = dc_extend_measurement(sampled_measurement(self.family))
        for got, op in zip(complex_correct_measurement(m, 0.0), m.operators):
            assert np.abs(got - op.sig).max() < 1e-12

    def test_correction_with_explicit_dilation(self):
        m = dc_extend_measurement(sampled_measurement(self.family))
        dilation = DCMatrix(SWAP, 1j * H_GAUGE @ SWAP)
        h = 0.2
        got = complex_correct_measurement(m, h, dilation=dilation)
        want = self.family(h)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() < 1e-10

    def test_corrected_blocks_are_complete(self, rng):
        big = random_dc_unitary(4, rng)
        m = Measurement(tuple(dilation_blocks(big, 2)))
        blocks = complex_correct_measurement(m, 0.15)
        total = sum(b.conj().T @ b for b in blocks)
        assert np.abs(total - np.eye(2)).max() < 1e-9

    def test_rectangular_measurement_corrects(self):
        # 0.6 I_2 and a 3x2 operator, with eps-parts i A M (A Hermitian)
        # that keep the family complete to first order
        r = np.array([[0.8, 0.0], [0.0, 0.8], [0.0, 0.0]])
        a = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = Measurement((DCMatrix(0.6 * np.eye(2), 0.6j * SX), DCMatrix(r, 1j * a @ r)))
        blocks = complex_correct_measurement(m, 0.1)
        assert [b.shape for b in blocks] == [(2, 2), (3, 2)]
        total = sum(b.conj().T @ b for b in blocks)
        assert np.abs(total - np.eye(2)).max() < 1e-12
        for got, op in zip(complex_correct_measurement(m, 0.0), m.operators):
            assert np.abs(got - op.sig).max() < 1e-12

    def test_default_gauge_probabilities_agree_to_second_order(self):
        # outcome probabilities do not depend on the dilation gauge, so the
        # default Gram-Schmidt completion must agree with the source family
        # at second order even though the operators themselves may differ
        m = dc_extend_measurement(sampled_measurement(self.family))
        psi = np.array([0.6, 0.8])

        def perr(h):
            worst = 0.0
            for got, ref in zip(complex_correct_measurement(m, h), self.family(h)):
                p_got = np.vdot(got @ psi, got @ psi).real
                p_ref = np.vdot(ref @ psi, ref @ psi).real
                worst = max(worst, abs(p_got - p_ref))
            return worst

        # agreement is at least second order (here it is even better)
        assert perr(1e-2) / perr(5e-3) > 3.0
        assert perr(1e-2) < 1e-6

    def test_extend_then_correct_round_trip(self):
        m = dc_extend_measurement(sampled_measurement(self.family))
        dilation = DCMatrix(SWAP, 1j * H_GAUGE @ SWAP)
        h = 1e-3
        for got, ref in zip(
            complex_correct_measurement(m, h, dilation=dilation), self.family(h)
        ):
            assert np.abs(got - ref).max() < 1e-6


class TestCorrectMeasurementChecksOnce:
    """complex_correct_measurement completes the family Measurement has
    already checked, without deciding its completeness again."""

    @staticmethod
    def family(rng, rows, d):
        v = random_dc_unitary(sum(rows), rng)
        ends = np.cumsum(rows)[:-1]
        return Measurement(tuple(DCMatrix(s, i) for s, i in
                                 zip(np.split(v.sig[:, :d], ends), np.split(v.inf[:, :d], ends))))

    @pytest.mark.parametrize("rows,d", [((3, 3), 3), ((2, 3, 1), 2), ((5, 4), 4)],
                             ids=["square", "rectangular", "mixed"])
    def test_blocks_are_those_of_the_stinespring_dilation(self, rows, d, rng):
        m = self.family(rng, rows, d)
        got = complex_correct_measurement(m, 0.1)
        want = complex_correct_measurement(m, 0.1, dilation=stinespring(m.operators))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_only_the_dilation_is_checked(self, rng, monkeypatch):
        m = self.family(rng, (2, 3), 2)
        dilation = stinespring(m.operators)
        shapes = []

        def recording(a, kind, _residual=linalg.residual):
            shapes.append(a.shape)
            return _residual(a, kind)

        monkeypatch.setattr(linalg, "residual", recording)
        complex_correct_measurement(m, 0.1)
        assert shapes == []  # its own completion is unitary by construction
        complex_correct_measurement(m, 0.1, dilation=dilation)
        assert shapes == [(5, 5)]  # decompose_unitary's check of a passed dilation


class TestDilationBlocks:
    def test_square_family_round_trips(self, rng):
        big = random_dc_unitary(6, rng)
        blocks = dilation_blocks(big, 3)
        assert [b.shape for b in blocks] == [(2, 2)] * 3
        assert np.array_equal(blocks[2].inf, big.inf[4:6, :2])

    @pytest.mark.parametrize("outcomes", [2, 3, 0, -1])
    def test_rows_that_do_not_split_raise(self, outcomes):
        # the 5x5 dilation of 0.6 I_2 and a 3x2 operator has no equal d x d blocks
        r = np.array([[0.8, 0.0], [0.0, 0.8], [0.0, 0.0]])
        u = stinespring((DCMatrix(0.6 * np.eye(2)), DCMatrix(r)))
        with pytest.raises(DimMismatch):
            dilation_blocks(u, outcomes)


def _unit_disk(rng, shape):
    """Complex entries of modulus at most 1."""
    return (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) / np.sqrt(2)


@st.composite
def _families(draw):
    """1 to 4 operators with a common column count, square or rectangular,
    entries of modulus at most 1 in both parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return tuple(DCMatrix(_unit_disk(rng, (r, d)), _unit_disk(rng, (r, d))) for r in rows)


def _summed_completeness_defect(family):
    """The former formula: the max-norm distance of sum_m M_m^dag M_m,
    accumulated operator by operator, from I + 0eps."""
    d = family[0].cols
    acc = DCMatrix.zeros(d)
    for m in family:
        acc = acc + (m.adjoint() @ m)
    return max(np.abs(acc.sig - np.eye(d)).max(), np.abs(acc.inf).max())


def _norm_predicate(vec):
    """The former state test: the dual norm is 1 + 0eps within the completeness
    tolerance, and an infinitesimal vector is no state."""
    try:
        n = vnorm(vec)
    except ModulusOfInfinitesimal:
        return False, float("inf")
    worst = max(abs(n.sig - 1.0), abs(n.inf))
    return worst <= linalg._COMPLETE_ATOL, worst


class TestOneIsometryResidual:
    """A family's stack and a state's column are checked by the isometry
    residual, which agrees with the formulas it replaced."""

    @given(_families())
    @settings(max_examples=300, deadline=None)
    def test_completeness_defect_is_the_summed_defect(self, family):
        assert abs(completeness_defect(family) - _summed_completeness_defect(family)) <= 1e-14

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.sampled_from([0.0, 1e-13, 1e-11, 1e-8, 1e-6, 1e-3, 0.5, 1.0]),
           st.sampled_from([-1.0, 1.0]),
           st.sampled_from([0.0, 1e-13, 1e-11, 1e-8, 1e-6, 1e-3, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_state_accepts_as_the_norm_predicate(self, seed, dim, stretch, sign, drift):
        # a unit vector, its length off by `stretch` and Re<sig|inf> by `drift`
        rng = np.random.default_rng(seed)
        sig = _unit_disk(rng, dim)
        sig /= np.linalg.norm(sig)
        inf = 0.5 * _unit_disk(rng, dim)
        inf -= np.vdot(sig, inf).real * sig
        vec = DCVector(sig * (1.0 + sign * stretch), inf + drift * sig)
        assume(max(np.abs(vec.sig).max(), np.abs(vec.inf).max()) <= 1.0)
        ok, worst = _norm_predicate(vec)
        tol = linalg._COMPLETE_ATOL
        assume(not tol / 10 < worst < 10 * tol)
        try:
            QuantumState(vec)
            accepted = True
        except InfinitesimalVector:
            accepted = False
        assert accepted == ok


def _with_signed_zeros(rng, a):
    """A copy of a whose exactly zero real and imaginary components get
    random signs."""
    out = np.array(a, dtype=complex)
    for part in (out.real, out.imag):  # writable views
        zero = part == 0
        part[zero] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int(zero.sum())))
    return out


def _has_negative_zero(a) -> bool:
    return any(bool(np.any((part == 0) & np.signbit(part))) for part in (a.real, a.imag))


@st.composite
def _sampled_isometries(draw, square, steps):
    """(at_zero, at_plus, at_minus, step): an isometry family
    V_0 +- step iAV_0 (A Hermitian with zero entries) sampled at 0 and
    +-step and split into operators of 1 to 3 rows; one unitary operator
    when square.  V_0 is dense, or permutation columns with unit phases
    and zeros of random sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.lists(st.integers(1, 3), min_size=1, max_size=1 if square else 4))
    total = sum(rows)
    d = total if square else draw(st.integers(1, total))
    step = draw(st.sampled_from(steps))
    if draw(st.booleans()):
        v0 = random_complex_unitary(total, rng)[:, :d]
    else:
        phases = rng.choice([1, -1, 1j, -1j], size=d)
        v0 = _with_signed_zeros(rng, np.eye(total)[rng.permutation(total)][:, :d] * phases)
    mask = rng.random((total, total)) < 0.5
    v1 = 1j * (random_complex_hermitian(total, rng) * (mask & mask.T)) @ v0
    ends = np.cumsum(rows)[:-1]
    return (*(np.split(s, ends) for s in (v0, v0 + step * v1, v0 - step * v1)), step)


def _central_difference(at_zero, at_plus, at_minus, step):
    """The former extension's (S_0, D): the samples' central difference."""
    return at_zero, (at_plus - at_minus) / (2.0 * step)


def _assert_same(got: DCMatrix, want: DCMatrix, bits: bool):
    for g, w in ((got.sig, want.sig), (got.inf, want.inf)):
        assert np.array_equal(g, w)
        assert not bits or g.tobytes() == w.tobytes()


class TestExtensionIsEvaluationAtEps:
    """A sampled family's interpolant, evaluated at EPS, extends as the
    former central difference did (Hermitian-projected for a unitary):
    entrywise equal, and bit for bit unless S_0 or D holds a -0.0, whose
    sign S_0 + 0 D and 0 + 1 D drop."""

    @given(_sampled_isometries(square=True, steps=[1e-6, 1e-3, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_unitary_is_the_projected_central_difference(self, samples):
        (s0,), (sp,), (sm,), step = samples
        u0, d = _central_difference(s0, sp, sm, step)
        gen = -1j * d @ u0.conj().T
        want = DCMatrix(u0, 1j * (0.5 * (gen + gen.conj().T)) @ u0)
        got = dc_extend_unitary(sampled_family(s0, sp, sm, step))
        _assert_same(got, want, not (_has_negative_zero(s0) or _has_negative_zero(d)))

    # at a step of 1e-6 the difference's rounding (~1e-10) nears the
    # completeness tolerance, which both extensions would then fail alike
    @given(_sampled_isometries(square=False, steps=[1e-4, 1e-3, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_measurement_is_the_central_difference(self, samples):
        *slots, step = samples
        ops = [DCMatrix(*_central_difference(*slot, step)) for slot in zip(*slots)]
        families = [sampled_family(*slot, step) for slot in zip(*slots)]
        got = dc_extend_measurement(lambda h: [f(h) for f in families])
        bits = not any(_has_negative_zero(op.sig) or _has_negative_zero(op.inf) for op in ops)
        for g, w in zip(got.operators, Measurement(tuple(ops)).operators):
            _assert_same(g, w, bits)

    @pytest.mark.parametrize("plus, minus, step", [
        (np.eye(2), -np.eye(2), 1e-320),
        (np.full((2, 2), 1e308), np.full((2, 2), -1e308), 1.0),
        (np.full((2, 2), np.inf), np.full((2, 2), np.inf), 1.0),
    ], ids=["overflowing-quotient", "overflowing-difference", "inf-minus-inf"])
    def test_a_difference_that_is_not_finite_raises(self, plus, minus, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            with pytest.raises(MalformedInput, match=f"at step {step!r} is not finite"):
                sampled_family(np.eye(2), plus, minus, step)

    def test_eps_is_the_infinitesimal_unit(self):
        assert EPS == DualComplex(0.0, 1.0) and EPS * EPS == 0
