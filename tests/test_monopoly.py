"""Single-supplier adoption: closed forms against direct integration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference
from marketdyn import monopoly as mono, numerics
from marketdyn.errors import ParameterError
from marketdyn.trajectory import time_grid


def rk4_channel(kind, params, y0, grid, index):
    field = reference.monopoly_field(kind, params)
    rows = numerics.sample_ivp(field, y0, grid)
    return [r[index] for r in rows]


# ---------------------------------------------------------------------------
# constant rate
# ---------------------------------------------------------------------------

def test_half_market_calibration():
    m = mono.SimpleAdoption(a=math.log(2.0) / 5.0)
    assert m.a == pytest.approx(0.1386, abs=1e-4)
    lat = mono.simple_latency(m)
    assert lat.t50 == pytest.approx(5.0, abs=1e-12)
    assert lat.t10 == pytest.approx(0.760, abs=1e-3)


def test_latency_ratio_is_scale_free():
    for a in (math.log(2.0), 0.3, 2.7):
        lat = mono.simple_latency(mono.SimpleAdoption(a=a))
        assert lat.t10 / lat.t50 == pytest.approx(math.log(10 / 9) / math.log(2), rel=1e-12)
    lat1 = mono.simple_latency(mono.SimpleAdoption(a=math.log(2.0)))
    assert lat1.t50 == pytest.approx(1.0)
    assert lat1.t10 == pytest.approx(0.152, abs=1e-3)


def test_saturated_start_is_static():
    grid = time_grid(0.0, 10.0, 21)
    traj = mono.simple_path(mono.SimpleAdoption(a=1.0, u0=1.0), grid)
    assert all(u == 1.0 for u in traj.channel("u"))
    assert all(d == 0.0 for d in traj.channel("D"))


def test_simple_path_matches_rk4():
    m = mono.SimpleAdoption(a=0.1386, u0=0.05, N=1000.0)
    grid = time_grid(0.0, 25.0, 101)
    traj = mono.simple_path(m, grid)
    oracle = rk4_channel("simple", m, [m.u0], grid, 0)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), oracle)) <= 1e-9


def test_latency_with_initial_share():
    m = mono.SimpleAdoption(a=0.5, u0=0.2)
    lat = mono.simple_latency(m)
    assert 1.0 - (1.0 - m.u0) * math.exp(-m.a * lat.t50) == pytest.approx(0.5, abs=1e-10)
    assert lat.t10 == 0.0


# ---------------------------------------------------------------------------
# time-dependent rates
# ---------------------------------------------------------------------------

def test_constant_schedule_reduces_to_simple():
    grid = time_grid(0.0, 12.0, 49)
    a = 0.37
    simple = mono.simple_path(mono.SimpleAdoption(a=a, u0=0.1, N=2.0), grid)
    scheduled = mono.scheduled_path(mono.ConstantRate(a), 0.1, grid, N=2.0)
    for ch in ("u", "D"):
        assert max(abs(x - y) for x, y in zip(simple.channel(ch),
                                              scheduled.channel(ch))) <= 1e-12


def test_exp_decay_asymptote():
    sched = mono.ExpDecayRate(a0=0.8, beta=0.3)
    cap = sched.asymptotic_share()
    assert cap == pytest.approx(1.0 - math.exp(-0.8 / 0.3), rel=1e-12)
    grid = time_grid(0.0, 200.0, 101)
    u = mono.scheduled_path(sched, 0.0, grid).channel("u")
    assert all(v < cap + 1e-12 for v in u)
    assert u[-1] == pytest.approx(cap, abs=1e-9)


def test_cutoff_freezes_market():
    sched = mono.CutoffRate(a=0.4, T=3.0)
    grid = time_grid(0.0, 10.0, 101)
    traj = mono.scheduled_path(sched, 0.0, grid)
    frozen = 1.0 - math.exp(-0.4 * 3.0)
    for t, u, d in zip(grid, traj.channel("u"), traj.channel("D")):
        if t > 3.0:
            assert u == frozen
            assert d == 0.0


@pytest.mark.parametrize("sched", [
    mono.LinearRate(0.1, 0.05),
    mono.ExpDecayRate(0.8, 0.3),
    mono.TabulatedRate(((0.0, 0.1), (2.0, 0.5), (5.0, 0.2))),
])
def test_scheduled_paths_match_rk4(sched):
    grid = time_grid(0.0, 10.0, 51)
    traj = mono.scheduled_path(sched, 0.0, grid)
    oracle = rk4_channel("scheduled", sched, [0.0], grid, 0)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), oracle)) <= 1e-9


def test_tabulated_holds_edges():
    sched = mono.TabulatedRate(((1.0, 0.2), (3.0, 0.6)))
    assert sched.rate(0.0) == 0.2
    assert sched.rate(10.0) == 0.6
    assert sched.rate(2.0) == pytest.approx(0.4)
    # The integral holds the edge values too and is exact on every piece.
    assert sched.cumulative(0.0) == 0.0
    assert sched.cumulative(0.5) == pytest.approx(0.1, rel=1e-15)
    assert sched.cumulative(2.0) == pytest.approx(0.5, rel=1e-15)
    assert sched.cumulative(4.0) == pytest.approx(1.6, rel=1e-15)


@pytest.mark.parametrize("points", [
    ((2.0, 0.3),),
    ((1.0, 0.2), (3.0, 0.6)),
    ((0.0, 0.1), (4.0, 0.6), (10.0, 0.2)),
    ((-1.5, 0.0), (0.1, 0.7), (0.3, 0.05), (2.0, 1.3), (2.0000001, 0.4), (9.0, 0.0)),
], ids=["one_knot", "two_knots", "three_knots", "six_knots"])
def test_tabulated_bisection_matches_the_scan_bit_for_bit(points):
    # At every knot, between knots and outside the table, in rate and in the
    # integral from 0, from each knot and to each knot.
    sched = mono.TabulatedRate(points)
    knots = [k for k, _ in points]
    between = [0.5 * (k0 + k1) for k0, k1 in zip(knots, knots[1:])]
    between += [k0 + 1e-9 * (k1 - k0) for k0, k1 in zip(knots, knots[1:])]
    times = knots + between + [knots[0] - 1.0, knots[-1] + 1.0, 0.0, -0.0, 1e300]
    for t in times:
        assert sched.rate(t).hex() == reference.tabulated_rate(points, t).hex()
        for start in times:
            assert (sched.cumulative(t, start).hex()
                    == reference.tabulated_cumulative(points, t, start).hex())
        assert sched.cumulative(t).hex() == reference.tabulated_cumulative(points, t).hex()


@st.composite
def tables_and_spans(draw):
    """A table of 1-6 knots and a (start, t) pair, each end on a knot, between
    knots, before or after the table; t may equal start or lie before it."""
    n = draw(st.integers(1, 6))
    knots = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True)))
    rates = draw(st.lists(st.floats(0.0, 1e3) | st.just(-0.0), min_size=n, max_size=n))
    ends = [st.sampled_from(knots), st.floats(-1e4, knots[0]), st.floats(knots[-1], 1e4)]
    if n > 1:
        ends.append(st.builds(lambda i, w: knots[i] + w * (knots[i + 1] - knots[i]),
                              st.integers(0, n - 2), st.floats(0.0, 1.0)))
    start = draw(st.one_of(ends))
    t = draw(st.one_of(*ends, st.just(start)))
    return tuple(zip(knots, rates)), start, t


@given(tables_and_spans())
def test_tabulated_stored_pieces_match_the_cut_list_bit_for_bit(table_and_span):
    # The integral sums the stored knot-to-knot pieces with the two partial
    # ones; fsum rounds the same summands to the same double as the cut list.
    points, start, t = table_and_span
    sched = mono.TabulatedRate(points)
    assert (sched.cumulative(t, start).hex()
            == reference.tabulated_cumulative(points, t, start).hex())


@pytest.mark.parametrize("sched", [
    mono.ConstantRate(0.3), mono.LinearRate(0.2, 0.05), mono.ExpDecayRate(0.5, 0.1),
    mono.CutoffRate(0.4, 12.0), mono.TabulatedRate(((1.0, 0.2), (3.0, 0.6), (20.0, 0.1))),
], ids=["constant", "linear", "exp_decay", "cutoff", "tabulated"])
def test_cumulative_over_a_span_is_the_difference_of_cumulatives(sched):
    for start, t in ((0.0, 5.0), (2.0, 2.5), (10.0, 30.0), (7.0, 7.0)):
        assert sched.cumulative(t, start) == pytest.approx(
            sched.cumulative(t) - sched.cumulative(start), rel=1e-12, abs=1e-15)


def test_cumulative_over_a_short_late_span_keeps_its_digits():
    # The difference of two cumulatives at t = 1e6 keeps only about six of
    # the sixteen digits of the integral over a span of 1e-3.
    start, t = 1e6, 1e6 + 1e-3
    linear = mono.LinearRate(0.1, 0.01)
    exact = (Fraction(t) - Fraction(start)) * (
        Fraction(0.1) + Fraction(0.01) * (Fraction(t) + Fraction(start)) / 2)
    assert linear.cumulative(t, start) == pytest.approx(float(exact), rel=1e-14)
    assert linear.cumulative(t) - linear.cumulative(start) != pytest.approx(
        float(exact), rel=1e-8)


def test_exp_decay_cumulative_keeps_its_digits_at_small_times():
    # (a0 / beta) (1 - e^(-beta t)) cancelled to about 6e-5 relative at
    # t = 1e-12; the integral is a0 t (1 - beta t / 2 + (beta t)^2 / 6 - ...).
    sched = mono.ExpDecayRate(1.0, 0.3)
    for t in (1e-12, 1e-9, 1e-6):
        assert sched.cumulative(t) == pytest.approx(t * (1.0 - 0.15 * t + 0.015 * t * t),
                                                    rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_single_segment_equals_simple():
    grid = time_grid(0.0, 8.0, 33)
    seg = mono.segmented_path([mono.Segment(1.0, mono.ConstantRate(0.7))], 1.0, grid)
    simple = mono.simple_path(mono.SimpleAdoption(a=0.7), grid)
    assert max(abs(a - b) for a, b in zip(seg.channel("u"), simple.channel("u"))) <= 1e-14


def test_equal_rates_pool():
    grid = time_grid(0.0, 8.0, 33)
    segs = [mono.Segment(0.3, mono.ConstantRate(0.7)),
            mono.Segment(0.7, mono.ConstantRate(0.7))]
    pooled = mono.simple_path(mono.SimpleAdoption(a=0.7), grid)
    traj = mono.segmented_path(segs, 1.0, grid)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), pooled.channel("u"))) <= 1e-14


def test_two_segment_value_and_rk4():
    segs = [mono.Segment(0.5, mono.ConstantRate(1.0)),
            mono.Segment(0.5, mono.ConstantRate(2.0))]
    grid = time_grid(0.0, 1.0, 11)
    traj = mono.segmented_path(segs, 1.0, grid)
    direct = 1.0 - 0.5 * math.exp(-1.0) - 0.5 * math.exp(-2.0)
    assert traj.channel("u")[-1] == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(0.7484, abs=1e-4)
    oracle = rk4_channel("segmented", segs, [0.0, 0.0], grid, 0)
    total = [a + b for a, b in zip(oracle, rk4_channel("segmented", segs, [0.0, 0.0], grid, 1))]
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), total)) <= 1e-9


def test_segment_sizes_must_sum_to_one():
    with pytest.raises(ParameterError):
        mono.segmented_path([mono.Segment(0.4, mono.ConstantRate(1.0))], 1.0,
                            time_grid(0.0, 1.0, 3))


# ---------------------------------------------------------------------------
# hesitation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["absorbing_hesitation", "returning_hesitation"])
def test_hesitation_conserves_population(variant):
    p = mono.HesitationParams(a=0.8, b=1.3, c=0.4, variant=variant)
    grid = time_grid(0.0, 10.0, 101)
    traj = mono.hesitation_path(p, grid)
    worst = max(abs(a + b + c - 1.0) for a, b, c in
                zip(traj.channel("p"), traj.channel("h"), traj.channel("u")))
    assert worst <= 1e-12
    assert traj.channel("p")[0] == 1.0
    assert traj.channel("h")[0] == 0.0
    assert traj.channel("u")[0] == 0.0


@pytest.mark.parametrize("variant", ["absorbing_hesitation", "returning_hesitation"])
def test_hesitation_matches_rk4(variant):
    p = mono.HesitationParams(a=1.0, b=1.0, c=1.0, variant=variant)
    grid = time_grid(0.0, 10.0, 101)
    traj = mono.hesitation_path(p, grid)
    oracle = rk4_channel("hesitation", p, [1.0, 0.0, 0.0], grid, 2)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), oracle)) <= 1e-7


def test_returning_hesitation_rejects_a_vanishing_eigenvalue():
    with pytest.raises(ParameterError, match="negative transition eigenvalues"):
        mono.HesitationParams(a=1.0, b=1.0, c=5e-324, variant="returning_hesitation")


def test_hesitation_confluent_limit():
    # c = a + b collapses the generic denominators; the limit form must
    # still satisfy the system.
    p = mono.HesitationParams(a=1.0, b=1.0, c=2.0, variant="absorbing_hesitation")
    grid = time_grid(0.0, 8.0, 81)
    traj = mono.hesitation_path(p, grid)
    oracle = rk4_channel("hesitation", p, [1.0, 0.0, 0.0], grid, 2)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), oracle)) <= 1e-9


def test_no_hesitation_channel_when_b_vanishes():
    # b -> 0 is outside the validated domain, so compare against the
    # limit expression at small b instead.
    p = mono.HesitationParams(a=0.9, b=1e-12, c=0.4, variant="absorbing_hesitation")
    grid = time_grid(0.0, 5.0, 21)
    traj = mono.hesitation_path(p, grid)
    for t, u in zip(grid, traj.channel("u")):
        assert u == pytest.approx(1.0 - math.exp(-p.a * t), abs=1e-9)


def test_returning_eigenvalue_relations():
    p = mono.HesitationParams(a=0.7, b=1.9, c=0.3, variant="returning_hesitation")
    lam1, lam2, r = p.eigenvalues()
    assert lam2 < lam1 < 0.0
    assert lam1 * lam2 == pytest.approx(p.a * p.c, rel=1e-12)
    assert lam1 + lam2 == pytest.approx(-(p.a + p.b + p.c), rel=1e-12)
    assert lam1 - lam2 == pytest.approx(r, rel=1e-12)


# ---------------------------------------------------------------------------
# birth and death
# ---------------------------------------------------------------------------

def test_birth_death_reduces_to_simple():
    p = mono.BirthDeathParams(a=0.9, d=0.0, f=0.0, g=0.0)
    grid = time_grid(0.0, 6.0, 25)
    traj = mono.birth_death_path(p, grid)
    for t, u in zip(grid, traj.channel("u")):
        assert u == pytest.approx(1.0 - math.exp(-0.9 * t), rel=1e-12, abs=1e-14)


def test_birth_death_starts_empty():
    p = mono.BirthDeathParams(a=1.0, d=0.1, f=0.2, g=0.05)
    traj = mono.birth_death_path(p, time_grid(0.0, 1.0, 3))
    assert traj.channel("u")[0] == 0.0


def test_birth_death_matches_rk4():
    p = mono.BirthDeathParams(a=1.0, d=0.1, f=0.2, g=0.05)
    grid = time_grid(0.0, 25.0, 126)
    traj = mono.birth_death_path(p, grid)
    oracle = rk4_channel("birth_death", p, [1.0, 0.0], grid, 1)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), oracle)) <= 1e-7


def test_birth_death_confluent_limit():
    # The pool-drain assumption a + f > d + g keeps the confluent
    # denominator strictly positive, so approach it from above.
    p = mono.BirthDeathParams(a=1.0, d=0.1, f=0.2, g=1.1 - 1e-12)
    grid = time_grid(0.0, 10.0, 51)
    traj = mono.birth_death_path(p, grid)
    oracle = rk4_channel("birth_death", p, [1.0, 0.0], grid, 1)
    assert max(abs(a - b) for a, b in zip(traj.channel("u"), oracle)) <= 1e-9


def test_birth_death_demand_ignores_subscriber_deaths():
    # Demand is the subscription inflow a N p(t); p(t) only drains
    # through a + f - d, so g must not appear in its exponent.
    p = mono.BirthDeathParams(a=1.0, d=0.1, f=0.2, g=0.05)
    grid = time_grid(0.0, 5.0, 11)
    traj = mono.birth_death_path(p, grid, N=100.0)
    for t, d in zip(grid, traj.channel("D")):
        assert d == pytest.approx(100.0 * math.exp(-(1.0 + 0.2 - 0.1) * t), rel=1e-12)


def test_birth_death_requires_draining_pool():
    with pytest.raises(ParameterError):
        mono.BirthDeathParams(a=0.5, d=1.0, f=0.1, g=0.2)


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------

@given(st.floats(0.05, 3.0), st.floats(0.0, 0.9))
def test_share_monotone_demand_nonnegative(a, u0):
    grid = time_grid(0.0, 10.0, 41)
    traj = mono.simple_path(mono.SimpleAdoption(a=a, u0=u0), grid)
    u = traj.channel("u")
    assert all(x2 >= x1 for x1, x2 in zip(u, u[1:]))
    assert all(d >= 0.0 for d in traj.channel("D"))


@given(st.floats(0.05, 2.0), st.floats(0.01, 1.5))
def test_scheduled_share_monotone(a0, a1):
    grid = time_grid(0.0, 6.0, 31)
    traj = mono.scheduled_path(mono.LinearRate(a0, a1), 0.0, grid)
    u = traj.channel("u")
    assert all(x2 >= x1 for x1, x2 in zip(u, u[1:]))
    assert all(d >= 0.0 for d in traj.channel("D"))
