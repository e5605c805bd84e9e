"""Game lifecycles: all six cases, their relations, and complementary games."""

import math

import pytest
from hypothesis import given, strategies as st

import reference
from marketdyn import games, numerics
from marketdyn.errors import DomainError, InitiationError, ParameterError
from marketdyn.monopoly import ConstantRate, ExpDecayRate, LinearRate
from marketdyn.trajectory import time_grid

N = 1000.0


def rk4_oracle(case, grid):
    field = reference.bpq_field(case)
    init = case.initial
    return numerics.sample_ivp(field, [init.B, init.P, init.Q], grid)


def max_channel_gap(traj, rows, channel, index):
    return max(abs(a - r[index]) for a, r in zip(traj.channel(channel), rows))


ALL_CASES = [
    games.Case1(a=0.7, b=0.5, c=0.1, N=N),
    games.Case1(a=0.7, b=0.8, c=0.1, N=N),            # confluent b = a + c
    games.Case1(a=LinearRate(0.5, 0.2), b=1.0, c=0.0, N=N),
    games.Case1(a=0.4, b=LinearRate(0.2, 0.15), c=0.0, N=N),
    games.Case2(beta=0.002, b=0.5, N=N, P0=10.0),
    games.Case3(a=0.1, beta=0.001, b=0.8, N=N),
    games.Case4(beta=0.002, gamma=0.003, N=N, P0=10.0, Q0=10.0),
    games.Case5(a=0.2, gamma=0.004, N=N, Q0=10.0),
    games.Case6(a=0.3, b=0.2, gamma=0.001, N=N),
]


# ---------------------------------------------------------------------------
# shared structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: type(c).__name__ + str(ALL_CASES.index(c) if c in ALL_CASES else ""))
def test_conservation_everywhere(case):
    grid = time_grid(0.0, 30.0, 151)
    traj = games.bpq_path(case, grid)
    worst = max(abs(b + p + q - N) for b, p, q in
                zip(traj.channel("B"), traj.channel("P"), traj.channel("Q")))
    assert worst <= 1e-9 * N


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: type(c).__name__)
def test_buyers_fall_quitters_rise(case):
    grid = time_grid(0.0, 30.0, 151)
    traj = games.bpq_path(case, grid)
    b = traj.channel("B")
    q = traj.channel("Q")
    assert all(x2 <= x1 + 1e-9 * N for x1, x2 in zip(b, b[1:]))
    assert all(x2 >= x1 - 1e-9 * N for x1, x2 in zip(q, q[1:]))


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: type(c).__name__)
def test_peak_balance_condition(case):
    # At the player peak the inflow a(t,P)B equals the outflow b(t,Q)P.
    grid = time_grid(0.0, 30.0, 3001)
    traj = games.bpq_path(case, grid)
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    if k in (0, len(p) - 1):
        pytest.skip("no interior peak on this horizon")
    s = tuple(traj.channel(ch)[k] for ch in "BPQ")
    a_int, b_int, _ = games.intensities(case)
    t = traj.times[k]
    residual = abs(a_int(t, s) * s[0] - b_int(t, s) * s[1])
    # The grid argmax sits within one step of the true peak, where the
    # residual crosses zero; bound it by the local slope times the step.
    h = grid[1] - grid[0]
    slope = 2.0 * max(abs(a_int(t, s) * s[0]), abs(b_int(t, s) * s[1]), 1.0)
    assert residual <= slope * h * 10


def test_clean_start_state():
    traj = games.bpq_path(games.Case1(a=0.7, b=0.5, c=0.1, N=N), [0.0, 1.0])
    assert tuple(traj.channel(ch)[0] for ch in "BPQ") == (N, 0.0, 0.0)


def test_initiation_errors():
    with pytest.raises(InitiationError):
        games.Case2(beta=0.002, b=0.5, N=N, P0=0.0)
    with pytest.raises(InitiationError):
        games.Case4(beta=0.002, gamma=0.003, N=N, P0=10.0, Q0=0.0)
    with pytest.raises(InitiationError):
        games.Case4(beta=0.002, gamma=0.003, N=N, P0=0.0, Q0=10.0)
    with pytest.raises(InitiationError):
        games.Case5(a=0.2, gamma=0.004, N=N, Q0=0.0)


# ---------------------------------------------------------------------------
# case 1
# ---------------------------------------------------------------------------

def test_case1_constants_against_rk4():
    case = games.Case1(a=0.7, b=0.5, c=0.1, N=N)
    grid = time_grid(0.0, 20.0, 101)
    traj = games.bpq_path(case, grid)
    rows = rk4_oracle(case, grid)
    assert max_channel_gap(traj, rows, "P", 1) <= 1e-6 * N


def test_case1_total_sales():
    a, b, c = 0.7, 0.5, 0.1
    case = games.Case1(a=a, b=b, c=c, N=N)
    traj = games.bpq_path(case, time_grid(0.0, 120.0, 61))
    assert traj.channel("C")[-1] == pytest.approx(a * N / (a + c), abs=1e-6 * N)
    peak = games.case1_peak(a, b, c, N)
    assert peak.C_inf == pytest.approx(a * N / (a + c), rel=1e-12)


def test_case1_peak_formula_and_grid():
    a, b, c = 1.0, 0.5, 0.0
    peak = games.case1_peak(a, b, c, N)
    assert peak.T_m == pytest.approx(math.log(2.0) / 0.5, rel=1e-12)
    grid = time_grid(0.0, 10.0, 20001)
    traj = games.bpq_path(games.Case1(a=a, b=b, c=c, N=N), grid)
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    assert abs(grid[k] - peak.T_m) <= grid[1] - grid[0]
    assert p[k] == pytest.approx(peak.P_m, abs=1e-6 * N)


def test_case1_confluent_peak():
    a, c = 0.7, 0.1
    b = a + c
    peak = games.case1_peak(a, b, c, N)
    assert peak.T_m == pytest.approx(1.0 / b, rel=1e-12)
    assert peak.P_m == pytest.approx(N * (a / b) * math.exp(-1.0), rel=1e-12)
    # Continuity: approaching the confluence reproduces the limit.
    near = games.case1_peak(a, b * (1.0 + 1e-7), c, N)
    assert near.T_m == pytest.approx(peak.T_m, rel=1e-6)


def test_case1_calibration():
    assert games.calibrate_case1(1.0, 2.0) == pytest.approx(math.log(4.0), rel=1e-12)
    assert games.calibrate_case1(1.0, 2.0) == pytest.approx(1.386, abs=1e-3)
    # Round trip: the calibrated rates reproduce the requested peak time.
    s = games.calibrate_case1(2.5, 3.0)
    peak = games.case1_peak(s, s / 3.0, 0.0, N)
    assert peak.T_m == pytest.approx(2.5, rel=1e-10)


def test_case1_small_time_expansion():
    a, b, c = 0.7, 0.5, 0.1
    traj = games.bpq_path(games.Case1(a=a, b=b, c=c, N=N),
                          [0.0, 1e-4, 2e-4, 5e-4, 1e-3])
    for t, p in zip(traj.times[1:], traj.channel("P")[1:]):
        expansion = a * N * t * (1.0 - (a + b + c) * t / 2.0)
        assert p == pytest.approx(expansion, rel=1e-4)


def test_case1_linear_inflow_against_rk4():
    case = games.Case1(a=LinearRate(0.5, 0.2), b=1.0, c=0.0, N=N)
    grid = time_grid(0.0, 10.0, 101)
    traj = games.bpq_path(case, grid)
    rows = rk4_oracle(case, grid)
    assert max_channel_gap(traj, rows, "P", 1) <= 1e-6 * N


def test_case1_linear_inflow_keeps_its_digits_where_the_square_is_large():
    # K = (a(0) + c - b) / sqrt(2 a1) = 3.92. An error-function form of P
    # cancels like e^(K^2) there; the integrating-factor route does not.
    mpmath = pytest.importorskip("mpmath")
    a0, a1, b, c = 1.9, 0.125, 0.06, 0.12
    case = games.Case1(a=LinearRate(a0, a1), b=b, c=c, N=N)
    grid = time_grid(0.0, 6.0, 1001)[:40]
    players = games.bpq_path(case, grid).channel("P")
    with mpmath.workdps(40):
        a0, a1, b, c = map(mpmath.mpf, (a0, a1, b, c))

        def reference(t):
            return mpmath.quad(lambda s: (a0 + a1 * s) * N
                               * mpmath.exp(-(a0 + c) * s - a1 / 2 * s * s - b * (t - s)),
                               [0, t])

        for t, p in zip(grid[1:], players[1:]):
            exact = reference(mpmath.mpf(t))
            assert abs(p - exact) <= 1e-13 * exact, t


def test_case1_linear_quit_rate_against_rk4():
    case = games.Case1(a=0.4, b=LinearRate(0.2, 0.15), c=0.0, N=N)
    grid = time_grid(0.0, 12.0, 121)
    traj = games.bpq_path(case, grid)
    rows = rk4_oracle(case, grid)
    assert max_channel_gap(traj, rows, "P", 1) <= 1e-5 * N


def test_case1_linear_branches_with_never_buy_rate():
    # A nonzero never-buy drain exercises the sales channel of both
    # linear branches; the 4-state integration carries the exact
    # cumulative sales for comparison.
    for case in (games.Case1(a=LinearRate(0.5, 0.2), b=1.0, c=0.2, N=N),
                 games.Case1(a=0.4, b=LinearRate(0.2, 0.15), c=0.2, N=N)):
        grid = time_grid(0.0, 10.0, 51)
        traj = games.bpq_path(case, grid)
        a_int, b_int, c_int = games.intensities(case)

        def rhs(t, s):
            a = a_int(t, s)
            demand = a * s[0]
            return [-(a + c_int(t)) * s[0], demand - b_int(t, s) * s[1],
                    b_int(t, s) * s[1] + c_int(t) * s[0], demand]

        rows = numerics.sample_ivp(rhs, [N, 0.0, 0.0, 0.0], grid)
        assert max(abs(x - r[1]) for x, r in zip(traj.channel("P"), rows)) <= 1e-5 * N
        assert max(abs(x - r[3]) for x, r in zip(traj.channel("C"), rows)) <= 1e-5 * N


def test_case1_linear_quit_rate_sales_keep_digits_at_small_rates():
    # C(t) = a N / (a + c) (1 - exp(-(a + c) t)) cancels when (a + c) t is
    # small; the sales must still match the exact value to full precision.
    mpmath = pytest.importorskip("mpmath")
    a = c = 1e-9
    case = games.Case1(a=a, b=LinearRate(0.2, 0.15), c=c, N=N)
    grid = time_grid(0.0, 1.0, 11)
    sales = games.bpq_path(case, grid).channel("C")
    with mpmath.workdps(30):
        for t, got in zip(grid[1:], sales[1:]):
            rate = mpmath.mpf(a) + mpmath.mpf(c)
            exact = mpmath.mpf(a) * N / rate * -mpmath.expm1(-rate * mpmath.mpf(t))
            assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_case1_general_schedules_against_rk4():
    case = games.Case1(a=ExpDecayRate(0.5, 0.1), b=LinearRate(0.3, 0.05),
                       c=0.1, N=N)
    grid = time_grid(0.0, 10.0, 101)
    traj = games.bpq_path(case, grid)
    rows = rk4_oracle(case, grid)
    assert max_channel_gap(traj, rows, "P", 1) <= 1e-5 * N


def test_case1_closed_form_route_carries_no_notes():
    routed = games.bpq_path(games.Case1(a=0.7, b=0.5, c=0.1, N=N), time_grid(0.0, 5.0, 11))
    assert not routed.notes


# ---------------------------------------------------------------------------
# case 2
# ---------------------------------------------------------------------------

CASE2 = games.Case2(beta=0.002, b=0.5, N=N, P0=10.0)


def test_case2_path_matches_rk4():
    grid = time_grid(0.0, 30.0, 151)
    traj = games.bpq_path(CASE2, grid)
    rows = rk4_oracle(CASE2, grid)
    for ch, idx in (("B", 0), ("P", 1), ("Q", 2)):
        assert max_channel_gap(traj, rows, ch, idx) <= 1e-5 * N


def test_case2_state_relations():
    rel = games.sir_relations(CASE2)
    clock = games._QuitClock(CASE2)

    def state(q):
        """(B, P, Q) on the quit clock at s = log(Delta / g) of quitter count q."""
        s = math.log(q - CASE2.Q0) - math.log(clock.q_inf - q) if q > CASE2.Q0 else -math.inf
        _, _, p, q_at, c = clock._at(s)
        return CASE2.B0 - c, p, q_at

    assert state(0.0)[0] == CASE2.B0
    assert rel.B_Tm == pytest.approx(CASE2.b / CASE2.beta, rel=1e-12)
    assert rel.P_Tm == pytest.approx(
        N - 250.0 - 250.0 * math.log(CASE2.beta * CASE2.B0 / CASE2.b), rel=1e-12)
    # B(Q) exponent: forward difference of ln B against -beta/b.
    (b1, _, q1), (b2, _, q2) = state(100.0), state(101.0)
    slope = (math.log(b2) - math.log(b1)) / (q2 - q1)
    assert slope == pytest.approx(-CASE2.beta / CASE2.b, rel=1e-9)
    # P(B) composes back through the conservation law.
    for q in (0.0, 50.0, 300.0):
        b, p, q_at = state(q)
        assert p == pytest.approx(N - b - q_at, rel=1e-12)


def test_case2_final_size_matches_long_run():
    rel = games.sir_relations(CASE2)
    grid = time_grid(0.0, 50.0 / CASE2.b, 51)
    rows = rk4_oracle(CASE2, grid)
    assert rows[-1][0] == pytest.approx(rel.B_inf, abs=1e-4 * N)
    # Self-consistency of the transcendental equation.
    assert rel.B_inf == pytest.approx(
        CASE2.B0 * math.exp(-(CASE2.beta / CASE2.b) * (N - rel.B_inf)), abs=1e-9 * N)


def test_case2_time_integral():
    clock = games._QuitClock(CASE2)
    assert clock.time_of(0.0) == 0.0
    ts = [clock.time_of(q) for q in (50.0, 150.0, 400.0, 700.0)]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    with pytest.raises(DomainError):
        clock.time_of(N)


def mp_quit_time(case, q):
    """t(q) = int_Q0^q dQ / (rate(Q) P(Q)) at 30 digits, the interval cut
    ever closer to q, where 1/P grows as q nears the final size."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        n, p0, q0, beta, q = map(mpmath.mpf, (case.N, case.P0, case.Q0, case.beta, q))
        b0 = n - p0 - q0
        if isinstance(case, games.Case2):
            ratio, rate = beta / case.b, lambda x: mpmath.mpf(case.b)
            players = lambda x: n - x - b0 * mpmath.exp(-ratio * (x - q0))  # noqa: E731
        else:
            ratio, rate = beta / case.gamma, lambda x: case.gamma * x
            players = lambda x: n - x - b0 * (x / q0) ** -ratio  # noqa: E731
        cuts = [q - (q - q0) / 4 ** k for k in range(1, 10)]
        return mpmath.quad(lambda x: 1 / (rate(x) * players(x)), [q0, *cuts, q])


CLOCK_CASES = (games.Case2(beta=0.002, b=0.5, N=N, P0=10.0),
               games.Case2(beta=0.002, b=0.5, N=N, P0=10.0, Q0=5.0),
               games.Case4(beta=0.002, gamma=0.003, N=N, P0=10.0, Q0=10.0))


@pytest.mark.parametrize("case", CLOCK_CASES, ids=["case2", "case2_Q0", "case4"])
def test_quit_clock_matches_mpmath_time_integral(case):
    # From the first window up to a gap to the final size of 1e-3 g0, where
    # the double q_inf still leaves the gap 13 digits.
    clock = games._QuitClock(case)
    targets = [case.Q0 + f * clock.g0 for f in (1e-6, 0.02, 0.3, 0.9, 1.0 - 1e-3)]
    if case.Q0 == 0.0:  # s below s_lo, where t is t_lo e^(s - s_lo)
        targets.append(math.exp(clock.s_lo - 3.0) * clock.g0)
    for q in targets:
        reference = mp_quit_time(case, q)
        assert abs(clock.time_of(q) - reference) <= numerics.WINDOW_TOL * reference, q
    assert clock.time_of(case.Q0) == 0.0


@pytest.mark.parametrize("case", CLOCK_CASES[:1] + CLOCK_CASES[2:], ids=["case2", "case4"])
def test_quit_clock_path_samples_match_mpmath(case):
    # Samples below t_lo, on the first windows, past the peak and up to a
    # gap to the final size of about 1: mpmath's t at the sampled Q is the
    # sample time. Case 4's Q = Q0 + Delta keeps 13 digits of Delta from
    # t = 0.1 on only, and its gap is 1 at t = 6.4.
    clock = games._QuitClock(case)
    if case.Q0 == 0.0:
        grid = [0.0, clock.t_lo / 8.0, clock.t_lo * 1e3, 1e-3, 0.1, 2.0, 6.0, 12.0, 18.0]
    else:
        grid = [0.0, 0.1, 1.0, 2.0, 4.0, 6.0]
    traj = games.bpq_path(case, grid)
    for t, q in zip(grid[1:], traj.channel("Q")[1:]):
        assert abs(mp_quit_time(case, q) - t) <= 1e-12 * t, t


def test_quit_clock_rejects_quitter_counts_outside_the_reachable_range():
    case = CLOCK_CASES[1]
    q_inf = N - games.sir_relations(case).B_inf
    clock = games._QuitClock(case)
    for q in (math.nextafter(case.Q0, 0.0), q_inf, N):
        with pytest.raises(DomainError, match="reachable range"):
            clock.time_of(q)
    assert clock.time_of(math.nextafter(q_inf, 0.0)) > 0.0


def test_case2_peak_time_matches_argmax():
    grid = time_grid(0.0, 30.0, 10001)
    traj = games.bpq_path(CASE2, grid)
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    assert abs(games._clock_peak(CASE2).T_m - grid[k]) <= grid[1] - grid[0]


def test_case2_seed_sensitivity():
    # Early exponential growth P ~ P0 exp((beta N - b) t): doubling a
    # seed that is much smaller than N doubles the early curve.
    growth = CASE2.beta * N - CASE2.b
    t_probe = 1.0 / growth
    small = games.bpq_path(
        games.Case2(beta=CASE2.beta, b=CASE2.b, N=N, P0=1.0),
        [0.0, t_probe]).channel("P")[-1]
    doubled = games.bpq_path(
        games.Case2(beta=CASE2.beta, b=CASE2.b, N=N, P0=2.0),
        [0.0, t_probe]).channel("P")[-1]
    assert doubled / small == pytest.approx(2.0, rel=0.01)
    assert small == pytest.approx(math.exp(1.0), rel=0.05)


def test_case2_no_interior_peak_flagged():
    weak = games.Case2(beta=0.0004, b=0.5, N=N, P0=10.0)  # beta B0 < b
    rel = games.sir_relations(weak)
    assert rel.P_Tm == weak.P0
    assert rel.B_Tm == weak.B0
    traj = games.bpq_path(weak, time_grid(0.0, 20.0, 201))
    p = traj.channel("P")
    assert all(x2 <= x1 + 1e-9 * N for x1, x2 in zip(p, p[1:]))


# ---------------------------------------------------------------------------
# case 3
# ---------------------------------------------------------------------------

CASE3 = games.Case3(a=0.1, beta=0.001, b=0.8, N=N)


def test_case3_reduces_to_case1_without_feedback():
    no_feedback = games.Case3(a=0.25, beta=0.0, b=0.6, N=N)
    grid = time_grid(0.0, 15.0, 76)
    traj = games.bpq_path(no_feedback, grid)
    closed = games.bpq_path(games.Case1(a=0.25, b=0.6, c=0.0, N=N), grid)
    for ch in ("B", "P", "Q"):
        worst = max(abs(a - b) for a, b in zip(traj.channel(ch), closed.channel(ch)))
        assert worst <= 1e-9 * N


def test_case3_small_time_growth():
    grid = [0.0, 1e-5, 1e-4, 5e-4]
    traj = games.bpq_path(CASE3, grid)
    for t, p in zip(grid[1:], traj.channel("P")[1:]):
        lead = CASE3.a * N * t
        assert p / lead == pytest.approx(1.0 + (N * CASE3.beta - CASE3.b) * t / 2.0,
                                         abs=1e-3)


def test_case3_peak_relation():
    grid = time_grid(0.0, 40.0, 2001)
    traj = games.bpq_path(CASE3, grid)
    t_m, (b_m, p_m, _) = games.refined_peak(CASE3, traj)
    # Relation P = a B / (b - beta B) at the balance-refined peak.
    relation = CASE3.a * b_m / (CASE3.b - CASE3.beta * b_m)
    assert p_m == pytest.approx(relation, rel=1e-6)
    # The refined time sits within one grid step of the grid argmax.
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    assert abs(t_m - grid[k]) <= grid[1] - grid[0]


# ---------------------------------------------------------------------------
# case 4
# ---------------------------------------------------------------------------

CASE4 = games.Case4(beta=0.002, gamma=0.003, N=N, P0=10.0, Q0=10.0)


def test_case4_path_matches_rk4():
    grid = time_grid(0.0, 30.0, 151)
    traj = games.bpq_path(CASE4, grid)
    rows = rk4_oracle(CASE4, grid)
    for ch, idx in (("B", 0), ("P", 1), ("Q", 2)):
        assert max_channel_gap(traj, rows, ch, idx) <= 1e-5 * N


def test_case4_first_integral_exponent():
    # beta = gamma collapses B(Q) to B0 Q0 / Q.
    case = games.Case4(beta=0.002, gamma=0.002, N=N, P0=10.0, Q0=10.0)
    traj = games.bpq_path(case, time_grid(0.0, 20.0, 101))
    for b, q in zip(traj.channel("B"), traj.channel("Q")):
        assert b == pytest.approx(case.B0 * case.Q0 / q, rel=1e-7)


def test_case4_initial_quit_velocity():
    rows = rk4_oracle(CASE4, [0.0, 1e-6])
    qdot = (rows[1][2] - rows[0][2]) / 1e-6
    assert qdot == pytest.approx(CASE4.gamma * CASE4.P0 * CASE4.Q0, rel=1e-4)


def test_case4_peak_value():
    grid = time_grid(0.0, 30.0, 10001)
    traj = games.bpq_path(CASE4, grid)
    peak = games.case4_peak(CASE4)
    assert max(traj.channel("P")) == pytest.approx(peak.P_m, abs=1e-4 * N)
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    assert abs(grid[k] - peak.T_m) <= grid[1] - grid[0]



def test_case4_peak_at_the_start_without_an_interior_maximum():
    # beta B0 <= gamma Q0: P' = P (beta B - gamma Q) is negative from t = 0 on.
    case = games.Case4(beta=0.001, gamma=0.1, N=N, P0=5.0, Q0=100.0)
    peak = games.case4_peak(case)
    assert (peak.T_m, peak.P_m) == (0.0, case.P0)
    p = games.bpq_path(case, time_grid(0.0, 1.0, 51)).channel("P")
    assert all(b < a for a, b in zip(p, p[1:]))


@st.composite
def time_inversion_games(draw):
    """A case 2 or case 4 game, with an interior peak or without, and a
    horizon of 1 to 200 times the initial quit time. Near beta B0 = quit
    rate a tiny seed moves P by less than rounding, so that band is left out."""
    p0 = 10.0 ** draw(st.floats(-9.0, math.log10(50.0)))
    spread = draw(st.one_of(st.floats(0.2, 0.8), st.floats(1.25, 6.0)))
    if draw(st.booleans()):
        b = draw(st.floats(0.05, 2.0))
        q0 = draw(st.sampled_from([0.0, 1.0, 50.0]))
        case = games.Case2(beta=spread * b / (N - p0 - q0), b=b, N=N, P0=p0, Q0=q0)
        rate = b
    else:
        gamma, q0 = draw(st.floats(1e-4, 1e-2)), draw(st.floats(0.1, 100.0))
        case = games.Case4(beta=spread * gamma * q0 / (N - p0 - q0), gamma=gamma, N=N,
                           P0=p0, Q0=q0)
        rate = gamma * q0
    return case, draw(st.floats(1.0, 200.0)) / rate


@given(time_inversion_games())
def test_time_inversion_paths_keep_the_invariants(game):
    case, horizon = game
    traj = games.bpq_path(case, time_grid(0.0, horizon, 50))
    b, p, q = traj.channel("B"), traj.channel("P"), traj.channel("Q")
    assert all(math.isfinite(v) for column in traj.columns for v in column)
    assert all(abs(x + y + z - N) <= 1e-12 * N for x, y, z in zip(b, p, q))
    assert all(q2 >= q1 for q1, q2 in zip(q, q[1:]))
    assert all(b2 <= b1 for b1, b2 in zip(b, b[1:]))
    # The ladder stopped short of the final size, so P froze there.
    k = p.index(max(p))
    assert all(p2 < p1 for p1, p2 in zip(p[k:], p[k + 1:]) if p1 > 1e-300)


# ---------------------------------------------------------------------------
# case 5
# ---------------------------------------------------------------------------

CASE5 = games.Case5(a=0.2, gamma=0.004, N=N, Q0=10.0)


def test_case5_path_matches_rk4():
    grid = time_grid(0.0, 30.0, 151)
    traj = games.bpq_path(CASE5, grid)
    rows = rk4_oracle(CASE5, grid)
    for ch, idx in (("B", 0), ("P", 1), ("Q", 2)):
        assert max_channel_gap(traj, rows, ch, idx) <= 1e-5 * N


def test_case5_transform_initial_condition():
    # Q(t) = 1/w(t), so w(0) = 1/Q0 shows up as Q(0) = Q0 exactly.
    traj = games.bpq_path(CASE5, [0.0, 0.5])
    assert traj.channel("Q")[0] == pytest.approx(CASE5.Q0, rel=1e-12)


def test_case5_peak_identity():
    grid = time_grid(0.0, 30.0, 2001)
    traj = games.bpq_path(CASE5, grid)
    t_m, (_, p_m, _) = games.refined_peak(CASE5, traj)
    assert reference.case5_peak_value(CASE5, t_m) == pytest.approx(p_m, abs=1e-6 * N)
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    assert abs(t_m - grid[k]) <= grid[1] - grid[0]
    assert reference.case5_peak_value(CASE5, t_m) == pytest.approx(p[k], abs=1e-4 * N)


def test_case5_accepts_seed_players():
    seeded = games.Case5(a=0.2, gamma=0.004, N=N, Q0=10.0, P0=25.0)
    grid = time_grid(0.0, 20.0, 101)
    traj = games.bpq_path(seeded, grid)
    assert traj.channel("P")[0] == pytest.approx(25.0, abs=1e-9 * N)
    rows = rk4_oracle(seeded, grid)
    assert max_channel_gap(traj, rows, "P", 1) <= 1e-5 * N


# ---------------------------------------------------------------------------
# case 6
# ---------------------------------------------------------------------------

CASE6 = games.Case6(a=0.3, b=0.2, gamma=0.001, N=N)


def test_case6_matches_full_system():
    grid = time_grid(0.0, 30.0, 151)
    traj = games.bpq_path(CASE6, grid)
    rows = rk4_oracle(CASE6, grid)
    for ch, idx in (("B", 0), ("P", 1), ("Q", 2)):
        assert max_channel_gap(traj, rows, ch, idx) <= 1e-8 * N


def test_case6_initial_growth():
    traj = games.bpq_path(CASE6, [0.0, 1e-6])
    assert traj.channel("P")[0] == 0.0
    pdot = traj.channel("P")[-1] / 1e-6
    assert pdot == pytest.approx(CASE6.a * N, rel=1e-4)


def test_case6_without_stimulation_reduces_to_case1():
    # gamma -> 0 limit compared at a tiny gamma.
    tiny = games.Case6(a=0.3, b=0.2, gamma=1e-12, N=N)
    grid = time_grid(0.0, 15.0, 76)
    traj = games.bpq_path(tiny, grid)
    closed = games.bpq_path(games.Case1(a=0.3, b=0.2, c=0.0, N=N), grid)
    for ch in ("B", "P", "Q"):
        worst = max(abs(a - b) for a, b in zip(traj.channel(ch), closed.channel(ch)))
        assert worst <= 1e-6 * N


# ---------------------------------------------------------------------------
# complementary games
# ---------------------------------------------------------------------------

SPEC = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=0.9, tau=1.0, N=N)


def test_complementary_against_full_system():
    grid = time_grid(0.0, 20.0, 101)
    traj = games.complementary_path(SPEC, grid)
    nc = SPEC.companion_population
    bc0 = nc * math.exp(-SPEC.a_c * SPEC.tau)
    pc0 = reference.companion_players(SPEC, 0.0)
    init = [N, 0.0, 0.0, bc0, pc0, nc - bc0 - pc0]
    rows = numerics.sample_ivp(reference.complementary_field(SPEC), init, grid)
    for ch, idx in (("B", 0), ("P", 1), ("Q", 2), ("B_c", 3), ("P_c", 4), ("Q_c", 5)):
        worst = max(abs(a - r[idx]) for a, r in zip(traj.channel(ch), rows))
        assert worst <= 1e-5 * N


def test_simultaneous_launch():
    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=0.9, tau=0.0, N=N)
    traj = games.complementary_path(spec, [0.0, 1.0])
    assert traj.channel("P")[0] == 0.0
    assert traj.channel("P_c")[0] == 0.0
    assert traj.channel("B")[0] == N


def test_weak_coupling_decouples():
    spec = games.ComplementarySpec(g=1e-15, b=0.5, a_c=0.4, b_c=0.9, tau=1.0, N=N)
    traj = games.complementary_path(spec, time_grid(0.0, 20.0, 21))
    assert all(b == pytest.approx(N, rel=1e-10) for b in traj.channel("B"))


def test_late_companion_launch_idles_game_one():
    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=0.9, tau=-2.0, N=N)
    grid = time_grid(0.0, 20.0, 201)
    traj = games.complementary_path(spec, grid)
    for t, b, pc in zip(grid, traj.channel("B"), traj.channel("P_c")):
        if t <= 2.0:
            assert b == N
            assert pc == 0.0
    assert traj.channel("B")[-1] < N
    # Oracle from the companion launch onward.
    sub = [t for t in grid if t >= 2.0]
    init = [N, 0.0, 0.0, spec.companion_population, 0.0, 0.0]
    rows = numerics.sample_ivp(reference.complementary_field(spec), init, sub)
    got_p = [p for t, p in zip(grid, traj.channel("P")) if t >= 2.0]
    worst = max(abs(a - r[1]) for a, r in zip(got_p, rows))
    assert worst <= 1e-5 * N


def test_companion_confluent_rates():
    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.6, b_c=0.6, tau=0.5, N=N)
    grid = time_grid(0.0, 15.0, 76)
    traj = games.complementary_path(spec, grid)
    nc = spec.companion_population
    s0 = 0.5
    bc0 = nc * math.exp(-0.6 * s0)
    pc0 = reference.companion_players(spec, 0.0)
    rows = numerics.sample_ivp(reference.complementary_field(spec),
                                   [N, 0.0, 0.0, bc0, pc0, nc - bc0 - pc0], grid)
    worst = max(abs(a - r[1]) for a, r in zip(traj.channel("P"), rows))
    assert worst <= 1e-5 * N


@pytest.mark.parametrize("b_c", [1e-12, 1e-300])
def test_companion_that_keeps_its_players(b_c):
    # An antiderivative of the coupling that carried a constant of size
    # N_c g / b_c lost its change over a step to rounding: at b_c = 1e-12
    # the quadrature gave up, and at 1e-300 B lost the linear growth of A.
    mpmath = pytest.importorskip("mpmath")
    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=b_c, tau=1.0, N=N)
    grid = [0.0, 0.5, 3.0, 15.0]
    traj = games.complementary_path(spec, grid)
    with mpmath.workdps(40):
        g, a_c, b_c = mpmath.mpf(spec.g), mpmath.mpf(spec.a_c), mpmath.mpf(b_c)

        def coupling(s):
            return spec.companion_population * g * (
                -mpmath.expm1(-b_c * s) / b_c
                - (mpmath.exp(-a_c * s) - mpmath.exp(-b_c * s)) / (b_c - a_c))

        for t, b in zip(grid, traj.channel("B")):
            reference = N * mpmath.exp(coupling(spec.tau) - coupling(t + spec.tau))
            assert abs(b - reference) <= 1e-13 * reference


def test_constant_proxy_reduces_to_mixed_inflow_case():
    proxied = reference.complementary_constant_approx(SPEC, p_c0=200.0,
                                                      feedback_beta=0.0005)
    assert isinstance(proxied, games.Case3)
    assert proxied.a == pytest.approx(SPEC.g * 200.0, rel=1e-12)
    assert proxied.b == SPEC.b
    direct = games.Case3(a=SPEC.g * 200.0, beta=0.0005, b=SPEC.b, N=N)
    grid = time_grid(0.0, 10.0, 51)
    left = games.bpq_path(proxied, grid)
    right = games.bpq_path(direct, grid)
    assert left.channel("P") == right.channel("P")
    with pytest.raises(ParameterError):
        reference.complementary_constant_approx(SPEC, p_c0=0.0)


def test_constant_proxy_at_companion_peak_overestimates_early_adoption():
    # Characterization: freezing the companion at its peak player count
    # can only speed up early adoption of game 1.
    grid = time_grid(0.0, 6.0, 61)
    true_path = games.complementary_path(SPEC, grid)
    pc_peak = max(true_path.channel("P_c"))
    approx = reference.complementary_constant_approx(SPEC, p_c0=pc_peak)
    approx_path = games.bpq_path(approx, grid)
    true_c = true_path.channel("C")
    approx_c = approx_path.channel("C")
    assert all(a >= t - 1e-9 * N for a, t in zip(approx_c, true_c))


# ---------------------------------------------------------------------------
# peak metrics dispatcher
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", [
    CASE2, CASE3, CASE5, CASE6,
    games.Case1(a=LinearRate(0.2, 0.05), b=ExpDecayRate(1.0, 0.3), c=0.0, N=N),
], ids=["case2", "case3", "case5", "case6", "case1_schedules"])
def test_peak_metrics_use_the_path_they_are_given(case, monkeypatch):
    grid = time_grid(0.0, 30.0, 401)
    traj = games.bpq_path(case, grid)

    def no_second_path(*args):
        raise AssertionError("the path was computed again")

    monkeypatch.setattr(games, "bpq_path", no_second_path)
    peak = games.peak_metrics(case, traj)
    # The peak is that of the path given: within a step of its grid argmax.
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    assert grid[k - 1] <= peak.T_m <= grid[k + 1]
    assert peak.P_m >= p[k] * (1.0 - 1e-12)


@pytest.mark.parametrize("case", ALL_CASES + [
    games.Case1(a=ExpDecayRate(0.5, 0.1), b=LinearRate(0.3, 0.05), c=0.1, N=N),
    games.Case5(a=0.2, gamma=0.004, N=N, Q0=10.0, P0=30.0),
], ids=lambda c: type(c).__name__)
def test_a_route_restarted_from_a_grid_row_continues_its_path(case):
    # Each route takes an optional start row (B, P, Q, C) at its grid's
    # first time, which is how refined_peak advances a grid row.
    grid = time_grid(0.0, 30.0, 31)
    traj = games.bpq_path(case, grid)
    k = 7
    row = [traj.channel(ch)[k] for ch in "BPQC"]
    rest = games.case_entry(case).path(case, grid[k:], row)
    assert rest.labels == traj.labels
    for channel in ("B", "P", "Q", "D", "C"):
        assert rest.channel(channel) == pytest.approx(traj.channel(channel)[k:],
                                                      rel=1e-9, abs=1e-9 * N)


@pytest.mark.parametrize("case", [ALL_CASES[0], CASE2, CASE4], ids=["case1", "case2", "case4"])
def test_refined_peak_agrees_with_the_closed_peak(case):
    traj = games.bpq_path(case, time_grid(0.0, 30.0, 301))
    t_m, (_, p_m, _) = games.refined_peak(case, traj)
    closed = games.case_entry(case).peak(case)
    assert t_m == pytest.approx(closed.T_m, rel=1e-9)
    assert p_m == pytest.approx(closed.P_m, rel=1e-9)


def test_refined_peak_far_inside_the_first_step():
    # T_m = ln(1 + a/b) / (a - b) at constant rates; the grid's first step is
    # 1e9 times longer, and the root is still found to its own digits.
    case = games.Case1(a=1e9, b=1.0, c=0.0, N=N)
    t_m, _ = games.refined_peak(case, games.bpq_path(case, time_grid(0.0, 20.0, 1000)))
    assert t_m == pytest.approx(games.case1_peak(1e9, 1.0, 0.0, N).T_m, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("a", [ExpDecayRate(0.5, 0.1), ConstantRate(0.5)],
                         ids=["exp_decay_a", "constant_a"])
@pytest.mark.parametrize("t0", [2.5, 5.0])
def test_case1_schedules_over_a_short_step_late_in_time(a, t0):
    # A step's player gain has a factor that vanishes like the offset from
    # the step's start; at t0 = 2.5, t0 + y rounds by about 4e-16, a large
    # part of that offset across a 2e-7 step.
    mpmath = pytest.importorskip("mpmath")
    case = games.Case1(a=a, b=LinearRate(0.3, 0.05), c=0.1, N=N)
    a0, beta = (a.a0, a.beta) if isinstance(a, ExpDecayRate) else (a.a, 0.0)
    with mpmath.workdps(30):
        def reference(t):
            inflow = (lambda u: a0 * u) if beta == 0.0 else (
                lambda u: a0 / beta * -mpmath.expm1(-beta * u))
            return mpmath.quad(lambda u: a0 * mpmath.exp(-beta * u) * N
                               * mpmath.exp(-inflow(u) - 0.1 * u)
                               * mpmath.exp(-(0.3 * (t - u) + 0.025 * (t * t - u * u))),
                               [0, t / 2, t])

        for span in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 2e-7, 1e-8, 1e-9):
            p = games.bpq_path(case, [0.0, t0, t0 + span]).channel("P")[-1]
            exact = reference(mpmath.mpf(t0) + mpmath.mpf(span))
            assert abs(p - exact) <= 1e-13 * exact, span


def test_peak_metrics_catalog():
    grid = time_grid(0.0, 30.0, 2001)

    def peak_metrics(case):
        return games.peak_metrics(case, games.bpq_path(case, grid))

    m1 = peak_metrics(games.Case1(a=1.0, b=0.5, c=0.0, N=N))
    assert m1.T_m == pytest.approx(math.log(2.0) / 0.5, rel=1e-12)
    m2 = peak_metrics(CASE2)
    assert m2.T_m == pytest.approx(games._clock_peak(CASE2).T_m, abs=0.03)
    assert m2.C_inf == pytest.approx(CASE2.B0 - games.sir_relations(CASE2).B_inf,
                                     rel=1e-9)
    m5 = peak_metrics(CASE5)
    assert m5.C_inf == CASE5.B0
    m6 = peak_metrics(CASE6)
    assert m6.C_inf == N


# ---------------------------------------------------------------------------
# long sample steps
# ---------------------------------------------------------------------------

@st.composite
def long_step_runs(draw):
    """A route carrying a shifted integral, its model, and a grid of 2 to 20
    samples over a horizon of 1 to 1e7 over the route's slowest rate."""
    def rate(lo, hi):
        return draw(st.floats(lo, hi))

    route = draw(st.sampled_from(["case5", "complementary", "case1_constant",
                                  "case1_linear_inflow", "case1_linear_quit",
                                  "case1_exp_decay"]))
    if route == "case5":
        model = games.Case5(a=rate(0.05, 2.0), gamma=rate(0.1, 5.0) / N, N=N,
                            Q0=rate(1.0, 50.0), P0=rate(0.0, 50.0))
        unit = model.gamma * N
    elif route == "complementary":
        model = games.ComplementarySpec(g=rate(0.1, 2.0) / N, b=rate(0.1, 1.0),
                                        a_c=rate(0.1, 1.0), b_c=rate(0.2, 1.5),
                                        tau=rate(-2.0, 2.0), N=N)
        unit = model.b
    else:
        a, b, c = rate(0.05, 2.0), rate(0.05, 2.0), rate(0.0, 0.5)
        unit = min(a, b)
        if route == "case1_linear_inflow":
            a = LinearRate(a, rate(0.01, 0.5))
        elif route == "case1_linear_quit":
            b = LinearRate(b, rate(0.01, 0.5))
        elif route == "case1_exp_decay":
            decay = rate(0.05, 1.0)
            a, unit = ExpDecayRate(a, decay), min(unit, decay)
        model = games.Case1(a=a, b=b, c=c, N=N)
    horizon = 10.0 ** rate(0.0, 7.0) / unit
    return model, time_grid(0.0, horizon, draw(st.integers(2, 20)))


@given(long_step_runs())
def test_long_sample_steps_keep_the_invariants(run):
    # A step far longer than the width of the weight e^(k(u) - k(t)) of a
    # shifted integral once put the weight between the quadrature nodes.
    model, grid = run
    if isinstance(model, games.ComplementarySpec):
        traj = games.complementary_path(model, grid)
        n, n_c = model.N, model.companion_population
        # Game 1's P is a sum of terms as large as N, so Q = N - B - P holds
        # its monotonicity only to a few units in the last place of N.
        compartments = [("B", "P", "Q", n, 1e-12 * n), ("B_c", "P_c", "Q_c", n_c, 0.0)]
    else:
        traj = games.bpq_path(model, grid)
        compartments = [("B", "P", "Q", model.N, 0.0)]
    assert all(math.isfinite(v) for column in traj.columns for v in column)
    for b_ch, p_ch, q_ch, n, slack in compartments:
        b, p, q = traj.channel(b_ch), traj.channel(p_ch), traj.channel(q_ch)
        assert all(abs(x + y + z - n) <= 1e-9 * n for x, y, z in zip(b, p, q))
        assert all(y >= -1e-9 * n for y in p)
        assert all(q2 >= q1 - slack for q1, q2 in zip(q, q[1:]))
