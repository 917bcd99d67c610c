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
