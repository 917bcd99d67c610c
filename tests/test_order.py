"""Total ring order on dual reals: lexicographic with eps > 0."""

from hypothesis import given
from hypothesis import strategies as st

from dcquantum.scalar import DualComplex, DualReal, Ordering, compare

# dyadic rationals in a bounded range: +, * stay exact in float64, so the
# algebraic order properties below hold without rounding caveats
dyadic = st.integers(min_value=-1024, max_value=1024).map(lambda n: n / 64)
dual_real = st.builds(DualReal, dyadic, dyadic)


def test_infinitesimal_tie_break():
    assert compare(DualReal(0, 1), DualReal(0, 2)) is Ordering.LT


def test_any_infinitesimal_below_any_positive_real():
    assert compare(DualReal(1, 100), DualReal(1.001, 0)) is Ordering.LT
    assert DualReal(0, 1e9) < DualReal(1e-6, 0)


def test_reflexive_equality():
    w = DualReal(2.5, -3)
    assert compare(w, w) is Ordering.EQ


@given(dual_real, dual_real, dual_real)
def test_translation_invariance(a, b, c):
    # exact: float addition applied to both sides identically
    if a <= b:
        assert a + c <= b + c


@given(dual_real, dual_real)
def test_product_of_nonnegatives_is_nonnegative(a, b):
    zero = DualReal(0, 0)
    if a >= zero and b >= zero:
        assert a * b >= zero


@given(dual_real, dual_real)
def test_totality_and_antisymmetry(a, b):
    assert (a <= b) or (b <= a)
    if a <= b and b <= a:
        assert a == b


def test_infinitesimal_square_is_exactly_zero():
    w = DualReal(0, 7.3)
    assert (w * w) == DualReal(0.0, 0.0)


def test_equality_coerces_like_the_arithmetic():
    assert DualReal(1) == 1 and 1 == DualReal(1)
    assert DualComplex(1) == 1 and DualComplex(1j) == 1j
    assert DualReal(1) == DualComplex(1) and DualComplex(1, 2) == DualReal(1, 2)
    assert DualReal(1, 2) != 1 and DualComplex(1) != DualComplex(1, 1e-300)
    assert DualReal(1) != "1"


def test_equal_values_hash_equal():
    assert hash(DualReal(1.0)) == hash(1) == hash(DualComplex(1))
    assert hash(DualReal(-0.0, 0.0)) == hash(DualReal(0.0, -0.0))
    assert hash(DualReal(0.5, 2)) == hash(DualComplex(0.5, 2))
    assert len({DualReal(1), DualComplex(1), 1, 1.0}) == 1


# dyadic values hit equality often; arbitrary floats bring -0.0, infinities
# and subnormals
any_dual_real = st.one_of(dual_real, st.builds(DualReal, st.floats(allow_nan=False),
                                               st.floats(allow_nan=False)))


@given(any_dual_real, any_dual_real)
def test_equality_is_the_order_s_equality(a, b):
    assert (a == b) == (compare(a, b) is Ordering.EQ)
    if a == b:
        assert hash(a) == hash(b)
