import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcquantum.errors import (
    BothPartsZero,
    DivisorInfinitesimal,
    LogOfInfinitesimal,
    ModulusOfInfinitesimal,
    NegativeRoot,
    RootOfInfinitesimal,
)
from dcquantum.scalar import (
    Classification,
    DualComplex,
    DualNumber,
    DualReal,
    classify,
    cos_s,
    div,
    div_infinitesimal_convention,
    exp_s,
    extend_analytic,
    log_s,
    modulus,
    nth_root,
    pow_int,
    sin_s,
    sqrt_s,
)

EPS = DualComplex(0, 1)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
dual_complex = st.builds(
    lambda a, b, c, d: DualComplex(complex(a, b), complex(c, d)),
    finite, finite, finite, finite,
)


def close(a: DualComplex, b: DualComplex, tol=1e-9):
    return abs(a.sig - b.sig) <= tol and abs(a.inf - b.inf) <= tol


class TestMul:
    def test_eps_squared_is_exactly_zero(self):
        w = EPS * EPS
        assert w.sig == 0 and w.inf == 0

    def test_hand_expansion(self):
        assert DualComplex(1, 2) * DualComplex(3, 4) == DualComplex(3, 10)

    def test_scalar_times_infinitesimal(self):
        t = 2.5
        assert DualComplex(1j) * DualComplex(0, t) == DualComplex(0, 1j * t)

    def test_nilpotency_is_bit_exact_for_any_infinitesimal(self):
        w = DualComplex(0, 3.7 - 0.2j)
        assert (w * w).sig == 0j and (w * w).inf == 0j

    @settings(max_examples=200)
    @given(dual_complex, dual_complex, dual_complex)
    def test_ring_axioms(self, a, b, c):
        assert close((a * b) * c, a * (b * c), tol=1e-8)
        assert a * b == b * a
        assert close(a * (b + c), a * b + a * c, tol=1e-8)


class TestDiv:
    def test_example(self):
        assert div(DualComplex(1, 2), DualComplex(2)) == DualComplex(0.5, 1.0)

    def test_self_division(self):
        w = DualComplex(2 - 1j, 0.5 + 3j)
        assert close(div(w, w), DualComplex(1), tol=1e-12)

    def test_by_infinitesimal_raises(self):
        with pytest.raises(DivisorInfinitesimal):
            div(DualComplex(1), DualComplex(0, 1))

    def test_round_trip(self):
        a, b = DualComplex(1 + 2j, -0.5j), DualComplex(3 - 1j, 2)
        assert close(div(a * b, b), a, tol=1e-12)


class TestDivInfinitesimalConvention:
    def test_two_eps_over_one_eps(self):
        out = div_infinitesimal_convention(DualComplex(0, 2), DualComplex(0, 1))
        assert out == DualComplex(2, 0)

    def test_zero_numerator(self):
        out = div_infinitesimal_convention(DualComplex(0, 0), DualComplex(0, 5))
        assert out == DualComplex(0)

    def test_zero_divisor_raises(self):
        with pytest.raises(BothPartsZero):
            div_infinitesimal_convention(DualComplex(0, 3), DualComplex(0, 0))


class TestPowRoot:
    def test_zeroth_power(self):
        assert pow_int(DualComplex(3 + 1j, 2), 0) == DualComplex(1)

    def test_cube_matches_repeated_mul(self):
        w = DualComplex(2, 1)
        by_mul = w * w * w
        assert pow_int(w, 3) == by_mul == DualComplex(8, 12)

    def test_square_of_infinitesimal(self):
        assert pow_int(DualComplex(0, 1j), 2) == DualComplex(0)

    def test_principal_sqrt(self):
        assert close(sqrt_s(DualComplex(4, 4)), DualComplex(2, 1))
        assert close(sqrt_s(DualComplex(1)), DualComplex(1))

    def test_branch_synchronization(self):
        # sqrt(-1 + 2eps) on the i branch must square back, so it is i - i*eps
        root = sqrt_s(DualComplex(-1, 2))
        assert close(root, DualComplex(1j, -1j), tol=1e-12)
        assert close(pow_int(root, 2), DualComplex(-1, 2), tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_root_pow_round_trip_all_branches(self, n):
        w = DualComplex(-2 + 1.5j, 0.7 - 0.3j)
        for k in range(n):
            assert close(pow_int(nth_root(w, n, k), n), w, tol=1e-9)

    def test_root_of_infinitesimal_raises(self):
        with pytest.raises(RootOfInfinitesimal):
            nth_root(DualComplex(0, 1), 2)

    def test_real_sqrt(self):
        assert DualReal(4.0, 2.0).sqrt() == DualReal(2.0, 0.5)

    @pytest.mark.parametrize("value", [DualReal(-1.0, 0.0), DualReal(-4.0, 3.0)])
    def test_real_sqrt_of_negative_is_typed(self, value):
        # a DCError, and still a ValueError for callers that catch that
        with pytest.raises(NegativeRoot, match="negative"):
            value.sqrt()
        with pytest.raises(ValueError):
            value.sqrt()


class TestAnalyticExtension:
    def test_exp_at_pure_eps(self):
        assert close(exp_s(DualComplex(0, 1)), DualComplex(1, 1))

    def test_exp_at_zero(self):
        assert exp_s(DualComplex(0)) == DualComplex(1)

    def test_sin_near_zero(self):
        t = 0.25j
        assert close(sin_s(DualComplex(0, t)), DualComplex(0, t))

    def test_cos_near_zero(self):
        assert close(cos_s(DualComplex(0, 2)), DualComplex(1, 0))

    def test_log_example(self):
        assert close(log_s(DualComplex(2, 4)), DualComplex(math.log(2), 2))

    def test_exp_log_round_trip(self):
        w = DualComplex(1.5 - 0.5j, 3)
        assert close(exp_s(log_s(w)), w, tol=1e-12)
        assert close(log_s(DualComplex(1, 3)), DualComplex(0, 3))

    def test_pythagorean_identity(self):
        w = DualComplex(0.7 + 0.2j, 1.5 - 1j)
        ident = sin_s(w) * sin_s(w) + cos_s(w) * cos_s(w)
        assert close(ident, DualComplex(1), tol=1e-12)

    def test_log_of_infinitesimal_raises(self):
        with pytest.raises(LogOfInfinitesimal):
            log_s(DualComplex(0, 1))

    @pytest.mark.parametrize(
        "f,fprime",
        [
            (cmath.exp, cmath.exp),
            (cmath.log, lambda z: 1 / z),
            (cmath.sin, cmath.cos),
            (cmath.cos, lambda z: -cmath.sin(z)),
        ],
    )
    def test_matches_central_finite_differences(self, f, fprime, rng):
        step = 1e-6
        for _ in range(50):
            z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            out = extend_analytic(f, fprime, DualComplex(z, 1))
            fd = (f(z + step) - f(z - step)) / (2 * step)
            assert abs(out.inf - fd) <= 1e-5 * max(1.0, abs(fd))


class TestConjModulus:
    def test_conj_example(self):
        assert DualComplex(1, 1j).conj() == DualComplex(1, -1j)

    def test_modulus_example(self):
        m = modulus(DualComplex(3 + 4j, 1))
        assert abs(m.sig - 5.0) < 1e-12 and abs(m.inf - 0.6) < 1e-12

    def test_modulus_squared_equals_w_conj_w(self):
        w = DualComplex(1 - 2j, 0.5 + 1j)
        m = modulus(w)
        prod = w * w.conj()
        assert abs(m.sig**2 - prod.sig) < 1e-10
        assert abs(2 * m.sig * m.inf - prod.inf) < 1e-10

    def test_modulus_of_zero(self):
        assert modulus(DualComplex(0)) == DualReal(0.0, 0.0)

    def test_modulus_of_infinitesimal_flags_zero(self):
        with pytest.raises(ModulusOfInfinitesimal) as exc:
            modulus(DualComplex(0, 5))
        assert exc.value.value == DualReal(0.0, 0.0)


def test_classification():
    assert classify(DualComplex(1, 0)) is Classification.APPRECIABLE
    assert classify(DualComplex(0, 1)) is Classification.INFINITESIMAL
    assert classify(DualComplex(0, 0)) is Classification.ZERO
    assert classify(DualComplex(1e-15, 1)) is Classification.INFINITESIMAL


def test_text_rendering():
    assert "ε" in str(DualComplex(1 + 2j, 3 - 4j))


# ---------------------------------------------------------------------------
# Reference ring: the hand-written per-class formulas that DualNumber and
# the one Leibniz rule replaced.  The fold must reproduce them to the bit.
# ---------------------------------------------------------------------------


def _reference_coerce(x, real: bool):
    """(sig, inf) of an operand as the reference DualReal (real=True) or
    DualComplex would coerce it, or None where it returns NotImplemented."""
    if real:
        if isinstance(x, DualReal):
            return x.sig, x.inf
        if isinstance(x, (int, float)):
            return float(x), 0.0
        return None
    if isinstance(x, DualComplex):
        return x.sig, x.inf
    if isinstance(x, DualReal):
        return complex(x.sig), complex(x.inf)
    if isinstance(x, (int, float, complex)):
        return complex(x), 0j
    return None


def _reference_op(name, a, b):
    real = not (isinstance(a, DualComplex) or isinstance(b, DualComplex))
    x, y = _reference_coerce(a, real), _reference_coerce(b, real)
    if x is None or y is None:
        return TypeError
    cls = DualReal if real else DualComplex
    if name == "add":
        return cls(x[0] + y[0], x[1] + y[1])
    if name == "sub":
        return cls(x[0] - y[0], x[1] - y[1])
    return cls(x[0] * y[0], x[1] * y[0] + x[0] * y[1])


_NZ = -0.0
_RING_OPERANDS = [
    DualComplex(1 + 2j, 3 - 4j), DualComplex(complex(_NZ, _NZ), complex(_NZ, 0.0)),
    DualComplex(complex(-1.5, _NZ), complex(_NZ, 2.0)),
    DualReal(2.0, -3.0), DualReal(_NZ, _NZ), DualReal(-1.25, _NZ),
    3, 0, True, 1.5, _NZ, 2 - 3j, complex(_NZ, _NZ), complex(_NZ, 1.0),
]
_RING_OPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
             "mul": lambda a, b: a * b}


class TestRingFoldBitIdentical:
    @pytest.mark.parametrize("name", sorted(_RING_OPS))
    def test_binary_operations_both_orders(self, name):
        op = _RING_OPS[name]
        checked = 0
        for a in _RING_OPERANDS:
            for b in _RING_OPERANDS:
                if not (isinstance(a, (DualComplex, DualReal))
                        or isinstance(b, (DualComplex, DualReal))):
                    continue
                want = _reference_op(name, a, b)
                if want is TypeError:
                    with pytest.raises(TypeError):
                        op(a, b)
                    continue
                got = op(a, b)
                assert type(got) is type(want) and repr(got) == repr(want), (a, b)
                checked += 1
        assert checked > 100

    def test_negation(self):
        for w in _RING_OPERANDS[:6]:
            assert repr(-w) == repr(type(w)(-w.sig, -w.inf))

    def test_dual_real_plus_complex_is_a_type_error(self):
        with pytest.raises(TypeError):
            DualReal(1) + 1j
        with pytest.raises(TypeError):
            1j * DualReal(1)

    def test_ring_methods_live_in_the_base(self):
        for cls in (DualComplex, DualReal):
            assert not {"__add__", "__sub__", "__mul__"} & set(vars(cls))
            assert issubclass(cls, DualNumber)


class TestDualRealOrderOperands:
    @pytest.mark.parametrize("other", [DualComplex(1), "x", None, 1j],
                             ids=["dual-complex", "str", "none", "complex"])
    def test_non_real_operand_is_a_type_error(self, other):
        for op in (lambda a, b: a < b, lambda a, b: a <= b,
                   lambda a, b: a > b, lambda a, b: a >= b):
            with pytest.raises(TypeError):
                op(DualReal(1.0), other)
            with pytest.raises(TypeError):
                op(other, DualReal(1.0))

    def test_real_operands_still_compare(self):
        assert DualReal(1.0) < 2 and 2 > DualReal(1.0)
        assert DualReal(1.0, -1.0) < DualReal(1.0) <= 1.0 <= DualReal(1.0)
