"""Dirac walk: gate, stepping, continuum limit, Lorentz covariance."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import embed, unembed
from dcquantum.errors import PatchMismatch
from dcquantum.linalg import DCMatrix, OperatorKind, classify_op, decompose_unitary
from dcquantum.scalar import DualComplex
from dcquantum.walk import (
    CovarianceReport,
    WalkState,
    continuum_residual,
    corrected_gate,
    covariance_check,
    dirac_gate,
    dirac_plane_wave,
    lorentz_encodings,
    point_source,
    run,
    step,
    walk_vs_continuum_error,
)
from dcquantum.linalg import DCVector
from dcquantum.cli import main
from dcquantum.serialize import write_trajectory_csv
from dcquantum import walk as walk_module


class TestGate:
    def test_entries(self):
        g = dirac_gate(0.5)
        assert np.allclose(g.sig, [[0, 1], [1, 0]])
        assert np.allclose(g.inf, -0.5j * np.eye(2))

    def test_is_dual_unitary(self):
        assert OperatorKind.UNITARY in classify_op(dirac_gate(1.7))

    def test_generator_is_mass_coupling(self):
        m = 1.1
        _, h = decompose_unitary(dirac_gate(m))
        assert np.allclose(h, [[0, -m], [-m, 0]])

    def test_corrected_gate_closed_form(self):
        m, h = 0.8, 0.3
        g = corrected_gate(m, h)
        c, s = math.cos(m * h), math.sin(m * h)
        assert np.allclose(g, [[-1j * s, c], [c, -1j * s]])
        assert np.allclose(g @ g.conj().T, np.eye(2))

    def test_corrected_gate_tends_to_dual_gate(self):
        m, h = 0.8, 1e-6
        g_eps = dirac_gate(m)
        approx = g_eps.sig + h * g_eps.inf
        assert np.abs(corrected_gate(m, h) - approx).max() < 1e-11

    @pytest.mark.parametrize("m, h", [(1e308, 10.0), (-10.0, 1e308), (math.inf, 0.1)])
    def test_corrected_gate_rejects_an_overflowing_phase(self, m, h):
        with pytest.raises(ValueError, match="overflows a float"):
            corrected_gate(m, h)

    def test_continuum_error_rejects_a_mass_overflowing_the_spacing(self):
        with pytest.raises(ValueError, match=r"mass 1e\+308 times step"):
            walk_vs_continuum_error(1, m=1e308)


class TestStep:
    def test_massless_pure_shift(self):
        w = point_source(8, x0=3)
        w2 = step(w, 0.0)
        assert np.allclose(w2.plus.sig, np.eye(8)[4])
        assert np.abs(w2.plus.inf).max() == 0
        assert np.abs(w2.minus.sig).max() == 0

    def test_single_right_mover_first_step(self):
        m = 0.9
        w = step(point_source(8, x0=3), m)
        # psi+ rides to x0+1; an infinitesimal left-mover -im eps appears at x0-1
        assert w.plus.sig[4] == 1.0
        assert w.minus.inf[2] == -1j * m
        assert np.count_nonzero(w.plus.sig) == 1
        assert np.count_nonzero(w.minus.inf) == 1

    def test_wraparound(self):
        w = step(point_source(4, x0=3), 0.0)
        assert w.plus.sig[0] == 1.0

    def test_norm_conserved_over_many_steps(self):
        plus = np.exp(2j * np.pi * np.arange(16) / 16) / np.sqrt(32)
        minus = np.exp(-2j * np.pi * np.arange(16) / 16) / np.sqrt(32)
        w = WalkState(DCVector(plus), DCVector(minus))
        for _ in range(100):
            w = step(w, 1.3)
        n = w.total_norm()
        assert abs(n.sig - 1.0) < 1e-12 and abs(n.inf) < 1e-12

    def test_run_snapshots(self):
        snaps = run(point_source(8), 0.5, steps=6, record_every=2)
        assert [s.time for s in snaps] == [0, 2, 4, 6]
        snaps = run(point_source(8), 0.5, steps=5, record_every=2)
        assert [s.time for s in snaps] == [0, 2, 4, 5]

    @pytest.mark.parametrize("sites", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("m", [0.9, -1.3])
    def test_bit_identical_to_roll_recurrence(self, sites, m, rng):
        """The plain np.roll recurrence the kernel replaces, kept as the
        reference: every step must agree to the bit, signed zeros
        included."""
        pool = np.array([0.0, -0.0, 1.5, -0.7, 5e-324])

        def field():
            z = np.empty(sites, dtype=complex)
            for part in (z.real, z.imag):
                part[:] = np.where(rng.random(sites) < 0.5, rng.choice(pool, sites),
                                   rng.standard_normal(sites))
            return z

        ps, pi, ms, mi = (field() for _ in range(4))
        w = WalkState(DCVector(ps, pi), DCVector(ms, mi))
        for n in range(1, 121):
            w = step(w, m)
            ps, pi, ms, mi = (np.roll(ps, 1), np.roll(pi - 1j * m * ms, 1),
                              np.roll(ms, -1), np.roll(mi - 1j * m * ps, -1))
            assert w.time == n
            for got, want in zip((w.plus.sig, w.plus.inf, w.minus.sig, w.minus.inf),
                                 (ps, pi, ms, mi)):
                assert got.tobytes() == want.tobytes()

    def test_snapshots_read_only_and_disjoint(self):
        snaps = run(point_source(8), 0.7, steps=5)
        parts = [a for s in snaps for a in (s.plus.sig, s.plus.inf,
                                            s.minus.sig, s.minus.inf)]
        assert not any(a.flags.writeable for a in parts)
        with pytest.raises(ValueError):
            snaps[-1].minus.inf[0] = 1.0
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_mismatched_fields_rejected(self):
        with pytest.raises(PatchMismatch):
            WalkState(DCVector(np.zeros(3)), DCVector(np.zeros(4)))


def _roll_walk(ps, pi, ms, mi, m, steps, record_every):
    """The plain np.roll stepping recurrence, kept as the bit-exact
    reference for `run`: the four parts at every recorded time."""
    snaps = [(0, ps, pi, ms, mi)]
    for n in range(1, steps + 1):
        ps, pi, ms, mi = (np.roll(ps, 1), np.roll(pi - 1j * m * ms, 1),
                          np.roll(ms, -1), np.roll(mi - 1j * m * ps, -1))
        if n % record_every == 0 or n == steps:
            snaps.append((n, ps, pi, ms, mi))
    return snaps


def _dyson_walk(ps, pi, ms, mi, m, t):
    """The walk at time t as its Dyson series, which ends at first order
    over C[eps]: the sig-parts are the initial ones carried t sites, and
    the eps-parts gain one term -(i m) sig_other per step s < t, carried
    the t - s sites left to go after being sourced s sites along."""
    plus_inf = np.roll(pi, t) - sum((np.roll(1j * m * ms, t - 2 * s) for s in range(t)),
                                    np.zeros_like(pi))
    minus_inf = np.roll(mi, -t) - sum((np.roll(1j * m * ps, 2 * s - t) for s in range(t)),
                                      np.zeros_like(mi))
    return np.roll(ps, t), plus_inf, np.roll(ms, -t), minus_inf


def _parts(w: WalkState):
    return w.plus.sig, w.plus.inf, w.minus.sig, w.minus.inf


def _field_bits(a: np.ndarray) -> bytes:
    """The bytes of a complex array with every NaN component made one
    NaN.  IEEE 754 leaves the sign of a NaN made from NaN or inf*0
    operands open, and numpy's vector and scalar multiply loops settle
    it differently (the np.roll recurrence itself gives a position-
    dependent sign for an infinite mass), so only where NaNs stand is
    compared; the CSV writes every NaN as "nan" in any case."""
    parts = a.view(float).copy()
    parts[np.isnan(parts)] = math.nan
    return parts.tobytes()


# reals that walks get wrong first: signed zeros, subnormals, NaN
_EDGE_REALS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.nan, 1.0, -0.7])
_MASSES = st.sampled_from([0.0, -0.0, 0.7, -2.3, 1e3, math.inf, -math.inf, math.nan])


@st.composite
def _walks(draw, reals, masses):
    """(four parts, mass, steps, record_every) on 0-70 sites, walked up
    to three times round the ring."""
    sites = draw(st.integers(0, 70))
    parts = draw(hnp.arrays(np.float64, (4, sites, 2), elements=reals))
    steps = draw(st.integers(0, 3 * max(sites, 1)))
    return (tuple(parts.view(complex)[..., 0]), draw(masses), steps,
            draw(st.integers(1, 7)))


def _state(parts) -> WalkState:
    ps, pi, ms, mi = parts
    return WalkState(DCVector(ps, pi), DCVector(ms, mi))


def _assert_walks_as_recurrence(parts, m, steps, every):
    """Every snapshot of `run` has the bits of the stepping recurrence's."""
    with np.errstate(all="ignore"):  # an infinite or NaN mass makes NaN
        want = _roll_walk(*parts, m, steps, every)
        got = list(run(_state(parts), m, steps, every))
    assert [s.time for s in got] == [t for t, *_ in want]
    for snap, (_, *ref) in zip(got, want):
        for a, b in zip(_parts(snap), ref):
            assert _field_bits(a) == _field_bits(b)


class TestRun:
    @given(walk=_walks(st.one_of(_EDGE_REALS, st.floats(-4.0, 4.0)), _MASSES))
    @example(walk=((np.zeros(0, complex),) * 4, 0.7, 3, 1))
    @example(walk=((np.array([1.0 + 0j]), np.array([-0.0j]), np.array([0.5j]),
                    np.array([-0.0 + 0j])), -2.3, 4, 3))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_roll_recurrence(self, walk):
        """Every recorded snapshot's four parts, to the bit (signed zeros
        included; NaN by position), against the stepping recurrence."""
        _assert_walks_as_recurrence(*walk)

    @given(walk=_walks(st.floats(-4.0, 4.0), st.sampled_from([0.0, 0.7, -2.3, 1e3])))
    @settings(max_examples=100, deadline=None)
    def test_matches_dyson_series(self, walk):
        """Each snapshot against the closed form psi(t) = S^t psi0 +
        eps sum_{s<t} S^(t-1-s) C S^s psi0, C = -i m sigma_x.  The
        sig-parts are transport, so they agree exactly.  The eps-parts add
        the same t + 1 terms in another order: each side rounds each
        component t times, by at most half an ulp of a partial sum, whose
        modulus is at most B = (1 + t|m|) 4 sqrt(2) for entries in
        [-4, 4]; so the two differ in modulus by at most sqrt(2) t eps B."""
        parts, m, steps, every = walk
        ps, pi, ms, mi = parts
        for snap in run(_state(parts), m, steps, every):
            t = snap.time
            want = _dyson_walk(ps, pi, ms, mi, m, t)
            tol = 8 * t * np.finfo(float).eps * (1 + t * abs(m))  # sqrt(2) t eps B
            for i, (a, b) in enumerate(zip(_parts(snap), want)):
                if i % 2 == 0:
                    assert a.tobytes() == b.tobytes()
                else:
                    np.testing.assert_allclose(a, b, rtol=0, atol=tol)

    def test_times_offset_from_initial_state(self):
        w = WalkState(point_source(5).plus, point_source(5).minus, time=7)
        snaps = run(w, 0.4, 4, 3)
        assert snaps[0] is w
        assert [s.time for s in snaps] == [7, 10, 11]
        assert step(w, 0.4).time == 8

    @pytest.mark.parametrize("every", [0, -1])
    def test_record_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match=r"^record_every must be >= 1, got "):
            run(point_source(4), 0.5, 3, every)


class TestTrajectory:
    """`run` returns a lazy trajectory: each iteration walks afresh."""

    @given(walk=_walks(st.one_of(_EDGE_REALS, st.floats(-4.0, 4.0)), _MASSES))
    @settings(max_examples=100, deadline=None)
    def test_iterations_agree_to_the_byte(self, walk):
        parts, m, steps, every = walk
        traj = run(_state(parts), m, steps, every)
        with np.errstate(all="ignore"):  # an infinite or NaN mass makes NaN
            first, second = list(traj), list(traj)
        assert [s.time for s in first] == [s.time for s in second]
        for a, b in zip(first, second):
            for u, v in zip(_parts(a), _parts(b)):
                assert u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("steps", [0, 1, 5, 7])
    @pytest.mark.parametrize("every", [1, 3])
    def test_len_counts_the_recorded_times(self, steps, every):
        traj = run(point_source(6), 0.5, steps, every)
        times = [0] + [t for t in range(1, steps + 1) if t % every == 0 or t == steps]
        assert len(traj) == len(times)
        assert [s.time for s in traj] == times

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_index_is_that_snapshot_of_an_iteration(self, i):
        traj = run(point_source(9, x0=2), -0.8, 13, 2)
        want = list(traj)[i]
        got = traj[i]
        assert got.time == want.time
        for u, v in zip(_parts(got), _parts(want)):
            assert u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("i", [8, -9])
    def test_index_out_of_range_rejected(self, i):
        traj = run(point_source(4), 0.5, 7)
        with pytest.raises(IndexError):
            traj[i]

    def test_snapshots_of_two_iterations_disjoint_and_read_only(self):
        traj = run(point_source(8), 0.7, steps=5)
        w, *first = traj
        _, *second = traj
        parts = [a for s in first + second for a in _parts(s)]
        assert not any(a.flags.writeable for a in parts)
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not np.shares_memory(a, b)
        assert all(not np.shares_memory(a, b) for a in parts for b in _parts(w))

    def test_fields_are_frozen(self):
        traj = run(point_source(4), 0.5, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.steps = 4
        assert traj.steps == 3

    def test_two_runs_compare_by_identity(self):
        w = point_source(4)
        first, second = run(w, 0.5, 3), run(w, 0.5, 3)
        assert first == first and first != second
        assert len({first, second, first}) == 2


def _step_image(sites: int, m: float) -> np.ndarray:
    """The block image [[S, C], [0, S]] (4n x 4n) of one step W = S + eps C
    on the column (psi+; psi-) of 2n sites: S carries psi+ one site right
    and psi- one site left round the ring, and C = S (-i m sigma_x) adds
    each mover's -i m times the other."""
    eye = np.eye(sites)
    s = np.zeros((2 * sites, 2 * sites), dtype=complex)
    s[:sites, :sites], s[sites:, sites:] = np.roll(eye, 1, axis=0), np.roll(eye, -1, axis=0)
    return embed(DCMatrix(s, s @ (-1j * m * np.roll(np.eye(2 * sites), sites, axis=1))))


@st.composite
def _wrapping_walks(draw):
    """(four parts, mass, steps, record_every) on 1-64 sites, walked up to
    three times round the ring, with finite entries and masses."""
    sites = draw(st.integers(1, 64))
    reals = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(-4.0, 4.0)
    parts = draw(hnp.arrays(np.float64, (4, sites, 2), elements=reals))
    mass = draw(st.sampled_from([0.0, -0.0, 0.7, -2.3, 1e3]))
    return (tuple(parts.view(complex)[..., 0]), mass, draw(st.integers(0, 3 * sites)),
            draw(st.integers(1, 7)))


class TestBlockImage:
    """An oracle that shares no code with the walk's kernel or with the
    stepping recurrence: t steps are the power W^t of one dual matrix, and
    the block image a + eps b -> [[a, b], [0, a]] is faithful, so each
    snapshot's image is B^t applied to the initial state's."""

    @given(walk=_wrapping_walks())
    @example(walk=(tuple(np.linspace(-1.0, 1.0, 4 * 64).reshape(4, 64) + 0.5j), 0.7, 192, 7))
    @settings(max_examples=60, deadline=None)
    def test_snapshots_are_powers_of_the_block_image(self, walk):
        parts, m, steps, every = walk
        block = _step_image(len(parts[0]), m)
        image = embed(DCVector(np.concatenate(parts[0::2]), np.concatenate(parts[1::2])))
        t = 0
        for snap in run(_state(parts), m, steps, every):
            image = np.linalg.matrix_power(block, snap.time - t) @ image
            t = snap.time
            want = unembed(image)
            # the sig-part is transport, each entry one product with 1
            # among products with 0, so exact (up to the sign of a zero)
            assert np.array_equal(np.concatenate([snap.plus.sig, snap.minus.sig]), want.sig)
            # the eps-part sums t + 1 terms in another order: the Dyson bound
            np.testing.assert_allclose(np.concatenate([snap.plus.inf, snap.minus.inf]),
                                       want.inf, rtol=0,
                                       atol=8 * t * np.finfo(float).eps * (1 + t * abs(m)))


# components of the few entries a sparse field holds
_SPARSE_REALS = st.sampled_from([-0.0, 5e-324, math.nan, 1.0, -0.7])


@st.composite
def _sparse_walks(draw):
    """(four parts, mass, steps, record_every) on 0-200 sites, each part
    +0 except a few entries, often at either end of the ring so that a
    support spans the wrap; walked up to three times round the ring."""
    sites = draw(st.integers(0, 200))
    parts = np.zeros((4, sites), dtype=complex)
    if sites:
        site = st.one_of(st.sampled_from([0, sites - 1]), st.integers(0, sites - 1))
        for part in parts:
            for x in draw(st.lists(site, max_size=3)):
                part[x] = complex(draw(_SPARSE_REALS), draw(_SPARSE_REALS))
    steps = draw(st.integers(0, 3 * max(sites, 1)))
    return tuple(parts), draw(_MASSES), steps, draw(st.integers(1, 7))


def _fields(sites, entries):
    """The four parts on `sites` sites, +0 except the {site: value} of entries."""
    parts = np.zeros((4, sites), dtype=complex)
    for part, values in zip(parts, entries):
        for x, value in values.items():
            part[x] = value
    return tuple(parts)


# sig-parts whose arcs end on -0.0 entries, whose products are +-0 with a
# set bit or none, as the sign of the mass has it
_NEGATIVE_ZERO_ENDS = _fields(16, ({3: complex(0.0, -0.0), 5: 1.0, 8: complex(-0.0, 0.0)}, {},
                                   {9: complex(-0.0, 0.0), 11: 0.5j, 13: complex(0.0, -0.0)}, {}))


class TestSparseSupport:
    """The fold subtracts only the span of products that are not +0+0j."""

    @given(walk=_sparse_walks())
    @example(walk=((np.array([1.0, 0, 0, 0, 2.0], complex),) + (np.zeros(5, complex),) * 3,
                   0.7, 15, 1))
    # eps-parts whose arcs are disjoint from each other and from the sig-parts'
    @example(walk=(_fields(40, ({5: 1.0, 7: -0.5j}, {25: 0.25, 28: 2j}, {}, {33: -1.0})),
                   0.7, 30, 1))
    @example(walk=(_fields(40, ({5: 1.0, 7: -0.5j}, {25: 0.25, 28: 2j}, {}, {33: -1.0})),
                   -0.7, 6, 2))
    # arcs that straddle the end of the ring: movers starting next to it
    @example(walk=(_fields(32, ({30: 1.0, 31: 0.5}, {29: 1j}, {0: -0.3, 1: 0.8j}, {2: 0.1})),
                   0.6, 9, 1))
    @example(walk=(_fields(32, ({31: 1.0}, {}, {0: 1j}, {})), -1.1, 20, 3))
    # light cones wider than the ring
    @example(walk=(_fields(12, ({6: 1.0}, {}, {}, {})), 0.6, 40, 1))
    @example(walk=(_fields(12, ({3: 1.0, 4: 0.5j}, {9: 0.3}, {7: -1.0}, {0: 2.0, 11: 1j})),
                   -0.4, 41, 4))
    # spans that hold -0 products: a point source at m = -0.0, and sig-parts
    # whose arcs end on -0.0 entries
    @example(walk=(_fields(12, ({6: 1.0}, {}, {}, {})), -0.0, 30, 1))
    @example(walk=(_NEGATIVE_ZERO_ENDS, 0.7, 40, 1))
    @example(walk=(_NEGATIVE_ZERO_ENDS, -0.7, 40, 3))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_roll_recurrence(self, walk):
        _assert_walks_as_recurrence(*walk)

    def test_zero_products_keep_a_negative_zero_eps_part(self):
        """psi-.sig is +0 everywhere, so psi+ folds nothing: its -0.0
        eps-part must stay -0.0, as -0.0 - (+0.0) does."""
        n = 6
        neg = np.full(n, complex(-0.0, -0.0))
        w = WalkState(DCVector(np.eye(n)[2], neg), DCVector(np.zeros(n)))
        *_, last = run(w, 0.7, 9)
        assert last.plus.inf.tobytes() == neg.tobytes()

    def test_negative_zero_products_reach_a_negative_zero_eps_part(self):
        """With m < 0 every psi+ product is +0 - 0j, which turns the
        imaginary -0.0 of psi+.inf into +0.0 at the first step."""
        n = 6
        w = WalkState(DCVector(np.eye(n)[2], np.full(n, complex(-0.0, -0.0))),
                      DCVector(np.zeros(n)))
        *_, last = run(w, -0.7, 9)
        assert last.plus.inf.tobytes() == np.full(n, complex(-0.0, 0.0)).tobytes()

    @pytest.mark.parametrize("sites, entries, m, whole", [
        (24, ({3: 1.0}, {}, {10: 0.5j}, {}), math.inf, True),
        (24, ({3: 1.0}, {}, {10: 0.5j}, {}), -math.inf, True),
        (24, ({3: 1.0}, {}, {10: 0.5j}, {}), math.nan, True),
        # psi+.inf holds -0.0 far from psi-.sig's arc: zero products reach it
        (24, ({3: 1.0}, {17: complex(-0.0, -0.0)}, {10: 0.5j}, {}), -0.7, True),
        (24, ({3: 1.0}, {17: complex(-0.0, -0.0)}, {10: 0.5j}, {}), 0.7, True),
        (24, ({3: 1.0}, {17: 0.5}, {10: 0.5j}, {}), -0.7, False),
    ], ids=["inf", "-inf", "nan", "negative-zero-eps", "negative-zero-eps-positive-mass",
            "finite"])
    def test_whole_ring_products_exactly_when_a_zero_can_change_a_bit(
            self, sites, entries, m, whole, monkeypatch):
        """An infinite or NaN mass makes NaN of a zero sig, and a zero
        product changes an accumulator that holds -0.0: then psi+'s
        products span the ring; otherwise only psi-.sig's arc."""
        products = []
        support = walk_module._support

        def recording(p):
            products.append(len(p))
            return support(p)

        monkeypatch.setattr(walk_module, "_support", recording)
        _assert_walks_as_recurrence(_fields(sites, entries), m, 2 * sites + 5, 1)
        assert products[0] == (sites if whole else 1)

    @pytest.mark.parametrize("m", [0.6, -0.6, 0.0, -0.0])
    def test_point_source_folds_one_site(self, m, monkeypatch):
        """A point source's eps-parts start +0, so whatever the sign of
        the mass only the source's product is subtracted."""
        spans = []
        support = walk_module._support

        def recording(products):
            lo, span = support(products)
            spans.append(len(span))
            return lo, span

        monkeypatch.setattr(walk_module, "_support", recording)
        list(run(point_source(64, x0=5), m, 10))
        # at m = -0.0 the source's product is -0j: a set bit, but
        # subtracting it from the +0+0j accumulator changes nothing
        assert spans == [0, 0 if m == 0 and math.copysign(1, m) > 0 else 1]


class TestEpsFreeParts:
    """A DCVector given no eps-part holds a zero-strided view of one zero:
    the walk's bit scans and the CSV writer read it in place, as the
    explicit zeros it stands for."""

    @pytest.mark.parametrize("m", [0.7, -0.0, math.inf])
    def test_walks_and_writes_as_explicit_zeros(self, m, tmp_path):
        n = 1500  # two pieces of rows in the writer
        sig = np.zeros((2, n), complex)
        sig[0, 990:1010] = np.linspace(-1.0, 1.0, 20) + 0.5j
        sig[1, [3, 1200]] = complex(-0.0, 1.0), complex(0.25, -0.0)
        free = WalkState(DCVector(sig[0]), DCVector(sig[1]))
        explicit = WalkState(DCVector(sig[0], np.zeros(n)), DCVector(sig[1], np.zeros(n)))
        assert free.plus.inf.strides == free.minus.inf.strides == (0,)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an infinite mass makes NaN
            for w, name in ((free, "free.csv"), (explicit, "explicit.csv")):
                write_trajectory_csv(run(w, m, 40, 7), str(tmp_path / name))
        assert (tmp_path / "free.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


class TestContinuumResidual:
    def test_plane_wave_residual_is_second_order(self):
        k, m = 1.0, 1.0
        psip, psim, omega = dirac_plane_wave(k, m)
        assert omega == pytest.approx(math.sqrt(k * k + m * m))

        def worst(h):
            rp, rm = continuum_residual(psip, psim, m, x=0.3, t=0.2, h=h)
            return max(abs(rp), abs(rm))

        ratio = worst(1e-3) / worst(5e-4)
        assert 3.5 < ratio < 4.5

    def test_massless_plane_wave_is_exact(self):
        psip, psim, _ = dirac_plane_wave(1.0, 0.0)
        rp, rm = continuum_residual(psip, psim, 0.0, x=0.7, t=0.1, h=0.05)
        assert abs(rp) < 1e-14 and abs(rm) < 1e-14

    def test_constant_spinor_residual(self):
        # x-independent functions probe only the mass rotation: the residual
        # per row is |e^{-imh} - (cos mh - i sin mh)| = 0 for the symmetric
        # spinor, checked against the exact solution of d_t psi = -im sigma1 psi
        m, h = 1.0, 0.05
        psip = lambda x, t: np.exp(-1j * m * t) / np.sqrt(2)
        psim = lambda x, t: np.exp(-1j * m * t) / np.sqrt(2)
        rp, rm = continuum_residual(psip, psim, m, x=0.0, t=0.0, h=h)
        assert abs(rp) < 1e-14 and abs(rm) < 1e-14

    def test_non_solution_residual_is_first_order(self):
        psip = lambda x, t: np.exp(1j * x)
        psim = lambda x, t: 0.0 * x

        def worst(h):
            rp, rm = continuum_residual(psip, psim, 1.0, x=0.0, t=0.0, h=h)
            return max(abs(rp), abs(rm))

        ratio = worst(1e-3) / worst(5e-4)
        assert 1.7 < ratio < 2.3


class TestWalkConvergence:
    def test_first_order_in_h(self):
        errs = [walk_vs_continuum_error(n)[0] for n in (128, 256, 512)]
        for big, small in zip(errs, errs[1:]):
            assert 1.6 < big / small < 2.4

    def test_error_is_small_at_fine_resolution(self):
        err, h, t_end = walk_vs_continuum_error(1024)
        assert err < 0.02
        assert t_end == pytest.approx(1.0, abs=h)

    @pytest.mark.parametrize("k", [0.5, -1.25, 1e-300, float("nan"), float("inf")])
    def test_a_wave_that_does_not_fit_the_lattice_raises(self, k):
        with pytest.raises(ValueError, match="does not fit the periodic lattice"):
            walk_vs_continuum_error(16, k=k)

    @pytest.mark.parametrize("k", [0, 2, -3.0, np.float64(4.0)])
    def test_integer_wavenumbers_fit(self, k):
        err, h, t_end = walk_vs_continuum_error(256, k=k)
        assert math.isfinite(err) and h == 2.0 * math.pi / 256


class TestLorentz:
    def test_encoding_columns(self):
        p = lorentz_encodings(4, 9, m=2.0)
        assert np.allclose(p.e_alpha.sig, 0.5)
        assert np.allclose(p.e_beta.sig, 1.0 / 3.0)
        assert p.m_prime == pytest.approx(2.0 / 6.0)

    def test_invalid_patch(self):
        with pytest.raises(PatchMismatch):
            lorentz_encodings(0, 2)

    def test_trivial_patch(self):
        p = lorentz_encodings(1, 1)
        rep = covariance_check(p, (DualComplex(0.3 + 0.1j), DualComplex(-0.2)))
        assert rep.max_discrepancy < 1e-15 and rep.passed

    def test_dual_exact_patch(self):
        p = lorentz_encodings(2, 3)
        inputs = (DualComplex(0.4 - 0.2j, 0.1), DualComplex(0.3j, -0.5))
        rep = covariance_check(p, inputs)
        assert rep.mode == "dual_exact"
        assert rep.max_discrepancy < 1e-12
        assert rep.passed

    def test_dual_exact_many_patches(self, rng):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                p = lorentz_encodings(alpha, beta, m=0.7)
                inputs = (
                    DualComplex(complex(*rng.standard_normal(2)),
                                complex(*rng.standard_normal(2))),
                    DualComplex(complex(*rng.standard_normal(2)),
                                complex(*rng.standard_normal(2))),
                )
                rep = covariance_check(p, inputs)
                assert rep.max_discrepancy < 1e-12

    def test_corrected_mode_second_order(self):
        p = lorentz_encodings(2, 2)
        inputs = (DualComplex(0.5, 0.2), DualComplex(0.3 - 0.1j, 0.0))
        rep = covariance_check(p, inputs, mode="corrected", h=1e-2)
        assert rep.mode == "corrected"
        assert rep.fitted_order == pytest.approx(2.0, abs=0.2)
        assert rep.passed

    @pytest.mark.parametrize("h", [1e-9, 1e-6])
    def test_corrected_mode_below_fit_floor_fails(self, h):
        # D(h) is rounding noise (5.6e-17 and 1.1e-13) too small to fit an
        # order: such a run shows nothing, so it once passed vacuously
        p = lorentz_encodings(2, 3)
        rep = covariance_check(p, (DualComplex(0.6, 0.1), DualComplex(0.3j)),
                               mode="corrected", h=h)
        assert rep.fitted_order is None and rep.max_discrepancy > 0.0
        assert not rep.passed

    def test_corrected_mode_massless_patch_is_exact(self):
        p = lorentz_encodings(2, 3, m=0.0)
        rep = covariance_check(p, (DualComplex(0.6, 0.1), DualComplex(0.3j)),
                               mode="corrected", h=1e-2)
        assert rep.max_discrepancy == 0.0 and rep.fitted_order is None
        assert rep.passed

    def test_unknown_mode(self):
        p = lorentz_encodings(1, 2)
        with pytest.raises(ValueError):
            covariance_check(p, (DualComplex(1), DualComplex(0)), mode="nope")

    @pytest.mark.parametrize("h", [0.0, -1e-2, math.nan, math.inf])
    def test_corrected_mode_rejects_bad_h(self, h):
        p = lorentz_encodings(2, 2)
        with pytest.raises(ValueError, match="finite h > 0"):
            covariance_check(p, (DualComplex(0.5), DualComplex(0.3)), mode="corrected", h=h)

    @pytest.mark.parametrize("mode, mass", [("dual_exact", math.nan), ("dual_exact", math.inf),
                                            ("corrected", math.nan)])
    def test_non_finite_discrepancy_fails(self, mode, mass):
        # a NaN eps-part once dropped out of the reduction, so the check
        # reported 0.0 and passed; the NaN shows in the verdict, not as a warning
        p = lorentz_encodings(2, 3, m=mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = covariance_check(p, (DualComplex(0.6, 0.1), DualComplex(0.3j)), mode=mode)
        assert math.isnan(rep.max_discrepancy)
        assert not rep.passed

    def test_wire_values_single_left_mover(self):
        # one left-moving unit amplitude through a 1 x 3 patch: each output
        # right wire keeps a_i plus an infinitesimal -i m' psi-/sqrt(3)
        p = lorentz_encodings(1, 3, m=1.0)
        psim = DualComplex(1.0)
        rep = covariance_check(p, (DualComplex(0), psim))
        assert rep.max_discrepancy < 1e-12


# ---------------------------------------------------------------------------
# Reference implementations: the per-formula loops that the walk module
# folded into one gate application and one covariance routine.  The
# folded code must reproduce them to the bit.
# ---------------------------------------------------------------------------


def _reference_continuum_residual(psip, psim, m, x, t, h):
    g = corrected_gate(m, h)
    pred_minus = g[0, 0] * psip(x, t) + g[0, 1] * psim(x, t)
    pred_plus = g[1, 0] * psip(x, t) + g[1, 1] * psim(x, t)
    return psip(x + h, t + h) - pred_plus, psim(x - h, t + h) - pred_minus


def _reference_walk_error(sites, k, m, length=2.0 * math.pi, t_final=1.0):
    h = length / sites
    steps = max(1, round(t_final / h))
    t_end = steps * h
    psip, psim, _ = dirac_plane_wave(k, m)
    x = np.arange(sites) * h
    plus, minus = psip(x, 0.0), psim(x, 0.0)
    norm0 = math.sqrt(float(np.vdot(plus, plus).real + np.vdot(minus, minus).real))
    plus, minus = plus / norm0, minus / norm0
    g = corrected_gate(m, h)
    for _ in range(steps):
        new_minus = np.roll(g[0, 0] * plus + g[0, 1] * minus, -1)
        new_plus = np.roll(g[1, 0] * plus + g[1, 1] * minus, 1)
        plus, minus = new_plus, new_minus
    ref_plus, ref_minus = psip(x, t_end) / norm0, psim(x, t_end) / norm0
    err = math.sqrt(float(np.vdot(plus - ref_plus, plus - ref_plus).real)
                    + float(np.vdot(minus - ref_minus, minus - ref_minus).real))
    return err, h, t_end


def _reference_patch_outputs(patch, g_prime, g, psip, psim):
    """Wire outputs of the gate grid and of one gate then the encodings,
    with g_prime and g nested [row][col] entry lists."""
    a, b = patch.alpha, patch.beta
    sa, sb = 1.0 / math.sqrt(a), 1.0 / math.sqrt(b)
    rights, lefts = [psip * sa] * a, [psim * sb] * b
    for wave in range(a + b - 1):
        for i in range(a):
            j = wave - i
            if 0 <= j < b:
                r, l = rights[i], lefts[j]
                lefts[j] = g_prime[0][0] * r + g_prime[0][1] * l
                rights[i] = g_prime[1][0] * r + g_prime[1][1] * l
    out_minus = g[0][0] * psip + g[0][1] * psim
    out_plus = g[1][0] * psip + g[1][1] * psim
    return [w - out_plus * sa for w in rights] + [w - out_minus * sb for w in lefts]


def _reference_dual_discrepancy(patch, psip, psim):
    def entries(m):
        gate = dirac_gate(m)
        return [[gate[0, 0], gate[0, 1]], [gate[1, 0], gate[1, 1]]]

    diffs = _reference_patch_outputs(patch, entries(patch.m_prime), entries(patch.m),
                                     psip, psim)
    return max(max(abs(d.sig), abs(d.inf)) for d in diffs)


def _reference_corrected_report(patch, psip, psim, h):
    """The complex-amplitude twin: plain complex inputs at eps = hh and
    numpy gate entries, with the order fit over {h, h/2, h/4}."""
    def at(hh):
        g_prime, g = corrected_gate(patch.m_prime, hh), corrected_gate(patch.m, hh)
        diffs = _reference_patch_outputs(patch, g_prime, g, psip.sig + hh * psip.inf,
                                         psim.sig + hh * psim.inf)
        return max(abs(d) for d in diffs)

    ds = [at(h), at(h / 2.0), at(h / 4.0)]
    order = None
    if min(ds) > 1e-14:
        order = float(np.mean([math.log2(ds[0] / ds[1]), math.log2(ds[1] / ds[2])]))
    return max(ds), order


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestFoldedPathsBitIdentical:
    @pytest.mark.parametrize("sites, k, m", [(64, 1.0, 1.0), (128, 2.0, 0.5),
                                             (100, 3.0, 0.0), (256, 1.0, -0.7)])
    def test_walk_vs_continuum_error(self, sites, k, m):
        got = walk_vs_continuum_error(sites, k=k, m=m)
        want = _reference_walk_error(sites, k, m)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_continuum_residual(self, h):
        psip, psim, _ = dirac_plane_wave(1.0, 0.8)
        for x in (0.3, np.linspace(-1.0, 2.0, 9)):
            got = continuum_residual(psip, psim, 0.8, x=x, t=0.2, h=h)
            want = _reference_continuum_residual(psip, psim, 0.8, x=x, t=0.2, h=h)
            for g, w in zip(got, want):
                assert (type(g), np.shape(g)) == (type(w), np.shape(w))
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 3), (8, 8), (1, 5), (5, 1),
                                             (13, 7), (64, 64)])
    def test_covariance_both_modes(self, alpha, beta, rng):
        patch = lorentz_encodings(alpha, beta, m=0.9)
        for _ in range(3):
            v = rng.standard_normal(8)
            psip = DualComplex(complex(v[0], v[1]), complex(v[2], v[3]))
            psim = DualComplex(complex(v[4], v[5]), complex(v[6], v[7]))
            dual = covariance_check(patch, (psip, psim))
            assert _bits(dual.max_discrepancy) == _bits(
                _reference_dual_discrepancy(patch, psip, psim))
            corrected = covariance_check(patch, (psip, psim), mode="corrected", h=1e-2)
            d, order = _reference_corrected_report(patch, psip, psim, 1e-2)
            assert _bits(corrected.max_discrepancy) == _bits(d)
            assert corrected.fitted_order == order
            if alpha * beta > 1:
                assert order is not None

    @given(alpha=st.integers(1, 12), beta=st.integers(1, 12),
           m=st.sampled_from([0.0, -0.0, 1e-3]) | st.floats(-3.0, 3.0),
           parts=hnp.arrays(np.float64, 8, elements=st.sampled_from([0.0, -0.0, 5e-324])
                            | st.floats(-4.0, 4.0)),
           h=st.sampled_from([0.5, 1e-2, 1e-4, 1e-6]))
    @settings(max_examples=200, deadline=None)
    def test_corrected_report_on_a_sample(self, alpha, beta, m, parts, h):
        """Corrected mode runs its three conventional runs as rows of one
        grid, without the eps-parts, which are 0: the report keeps its
        bits, and the verdict its rule."""
        patch = lorentz_encodings(alpha, beta, m=m)
        psip = DualComplex(complex(*parts[:2]), complex(*parts[2:4]))
        psim = DualComplex(complex(*parts[4:6]), complex(*parts[6:]))
        rep = covariance_check(patch, (psip, psim), mode="corrected", h=h)
        d, order = _reference_corrected_report(patch, psip, psim, h)
        assert _bits(rep.max_discrepancy) == _bits(d)
        assert (rep.fitted_order is None) == (order is None)
        if order is not None:
            assert _bits(rep.fitted_order) == _bits(order)

    @pytest.mark.parametrize("psip, h", [(DualComplex(1e308, 1e308), 1.0),
                                         (DualComplex(0.5, np.inf), 1e-2),
                                         (DualComplex(np.nan), 1e-2)])
    def test_a_non_finite_corrected_discrepancy_fails(self, psip, h):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = covariance_check(lorentz_encodings(2, 3, m=0.7), (psip, DualComplex(0.3j)),
                                   mode="corrected", h=h)
        assert not math.isfinite(rep.max_discrepancy)
        assert not rep.passed


# The README example; the same bytes since the walk kernel and the CSV
# writer were first rewritten.
README_WALK_SHA256 = "0b3691964b0edca23f2b079cdfecdb4256a2e950850c305af5c63462fdf26c56"


def test_readme_walk_csv_is_golden(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["walk", "--mass", "0.5", "--sites", "256", "--steps", "200",
                 "--record-every", "10", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_WALK_SHA256
    assert capsys.readouterr().out == "final dual norm: 1.0 + (0.0)eps\n"
