"""Numerical kernel: integrator, quadrature, roots, two-rate divided
differences, linear algebra."""

import json
import math
import random
import sys
import threading
import time
import traceback

import pytest
from hypothesis import given, strategies as st

import reference
from marketdyn import cli, competition, games, monopoly, numerics
from marketdyn.errors import (
    AccuracyNotReachedError,
    BracketInvalidError,
    IntegrationDivergedError,
    SingularMatrixError,
)
from marketdyn.numerics import SquareMatrix
from marketdyn.trajectory import time_grid


# ---------------------------------------------------------------------------
# sample_ivp (adaptive DOP853; the test_rk4_* names are kept from the
# fixed-step scheme the adaptive integrator replaced)
# ---------------------------------------------------------------------------

def exp_decay_field():
    return lambda t, y: [-y[0]]


def logistic_field(gamma):
    return lambda t, y: [gamma * y[0] * (1.0 - y[0])]


def logistic(gamma, u0, t):
    return u0 / (u0 + (1.0 - u0) * math.exp(-gamma * t))


def test_rk4_exponential_decay():
    rows = numerics.sample_ivp(exp_decay_field(), [1.0], [0.0, 1.0])
    assert len(rows) == 2
    assert rows[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_rk4_constant_field_stays_constant():
    rows = numerics.sample_ivp(lambda t, y: [0.0], [3.5], time_grid(0.0, 2.0, 21))
    assert all(r[0] == 3.5 for r in rows)


def test_rk4_logistic_matches_closed_form():
    # Closed form of the share equation with linear feedback is the oracle.
    gamma, u0 = 0.919, 0.01
    grid = time_grid(0.0, 5.0, 5001)
    rows = numerics.sample_ivp(logistic_field(gamma), [u0], grid)
    exact = [logistic(gamma, u0, t) for t in grid]
    worst = max(abs(r[0] - b) for r, b in zip(rows, exact))
    assert worst <= 1e-8


def test_rk4_divergence_reports_last_valid_time():
    with pytest.raises(IntegrationDivergedError) as exc:
        numerics.sample_ivp(lambda t, y: [y[0] * y[0]], [1.0], [0.0, 5.0])
    assert 0.0 <= exc.value.last_valid_time < 5.0


def test_rk4_final_point_clamped():
    seen = []

    def rhs(t, y):
        seen.append(t)
        return [-y[0]]

    rows = numerics.sample_ivp(rhs, [1.0], [0.0, 0.3, 1.0])
    assert max(seen) == 1.0
    assert rows[1][0] == pytest.approx(math.exp(-0.3), abs=1e-9)
    assert rows[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_sample_ivp_blowup_ends_before_the_pole():
    # y' = y^2, y(0) = 1 has y = 1/(1 - t): the step shrinks toward the
    # pole at t = 1 until it underflows, which ends the run.
    with pytest.raises(IntegrationDivergedError) as exc:
        numerics.sample_ivp(lambda t, y: [y[0] * y[0]], [1.0], [0.0, 2.0])
    assert 0.0 <= exc.value.last_valid_time < 1.0


def test_sample_ivp_step_collapse_ends_the_run():
    # y' = -1/(2y) from 1 is sqrt(1 - t), whose slope is unbounded at
    # t = 1: the step falls below 16 ulp of t there, which ends the run
    # after a few thousand right-hand sides instead of the step budget.
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return [-0.5 / y[0]]

    with pytest.raises(IntegrationDivergedError) as exc:
        numerics.sample_ivp(rhs, [1.0], [0.0, 2.0])
    assert exc.value.last_valid_time == pytest.approx(1.0, abs=1e-9)
    assert calls[0] < 10_000


def test_sample_ivp_closes_a_span_narrower_than_the_step_guard():
    # A root search probes times a few ulp past its bracket's left end.
    t0 = 10.0
    t1 = t0 + 2 * math.ulp(t0)
    rows = numerics.sample_ivp(exp_decay_field(), [1.0], [t0, t1])
    assert rows[-1][0] == pytest.approx(1.0, abs=1e-14)


def test_sample_ivp_gives_up_on_a_stiff_problem(monkeypatch):
    # Explicit steps on y' = -1e8 y stay near the stability limit 3e-8,
    # so [0, 1] would take some 3e7 of them.
    monkeypatch.setattr(numerics, "MAX_STEPS", 1000)
    with pytest.raises(IntegrationDivergedError) as exc:
        numerics.sample_ivp(lambda t, y: [-1e8 * y[0]], [1.0], [0.0, 1.0])
    assert 0.0 <= exc.value.last_valid_time < 1e-3


def test_sample_ivp_step_budget_ends_a_long_non_stiff_run(monkeypatch):
    # An oscillation at angular frequency 1000 over 100 time units needs
    # hundreds of thousands of accurate steps, none near the stability
    # limit: only the budget ends it.
    monkeypatch.setattr(numerics, "MAX_STEPS", 1000)
    with pytest.raises(IntegrationDivergedError, match="stalled") as exc:
        numerics.sample_ivp(lambda t, y: [y[1], -1e6 * y[0]], [1.0, 0.0], [0.0, 100.0])
    assert 0.0 < exc.value.last_valid_time < 100.0


def test_sample_ivp_non_finite_state_reports_last_valid_time():
    with pytest.raises(IntegrationDivergedError) as exc:
        numerics.sample_ivp(lambda t, y: [math.inf if t > 0.5 else 1.0], [0.0], [0.0, 1.0])
    assert 0.0 <= exc.value.last_valid_time <= 0.5


def test_sample_ivp_field_error_at_a_finite_state_propagates():
    # Only an overflowed stage state turns a field's failure into a
    # rejected step; a field undefined past t = 0.5 is the caller's error.
    with pytest.raises(ValueError, match="math domain error"):
        numerics.sample_ivp(lambda t, y: [math.sqrt(0.5 - t)], [0.0], [0.0, 1.0])


def test_sample_ivp_field_error_shows_the_lines_of_the_built_step():
    # The step is compiled from generated source; a traceback through it
    # still shows the line that called the field.
    with pytest.raises(ValueError) as exc:
        numerics.sample_ivp(lambda t, y: [math.sqrt(0.5 - t)], [0.0], [0.0, 1.0])
    frames = [f for f in traceback.extract_tb(exc.value.__traceback__)
              if f.filename == "<dop853 step n=1>"]
    assert len(frames) == 1
    assert "= rhs(" in frames[0].line


def test_sample_ivp_dense_output_matches_logistic():
    gamma, u0 = 0.919, 0.01
    grid = time_grid(0.0, 5.0, 1000)
    rows = numerics.sample_ivp(logistic_field(gamma), [u0], grid)
    assert len(rows) == len(grid)
    assert max(abs(r[0] - logistic(gamma, u0, t)) for r, t in zip(rows, grid)) <= 1e-10


@pytest.mark.parametrize("gamma,u0,horizon", [(0.919, 0.01, 5.0), (0.919, 0.01, 20.0),
                                               (2.0, 1e-4, 20.0)])
def test_sample_ivp_dense_output_keeps_the_step_accuracy(gamma, u0, horizon):
    # Most samples come from the interpolant between steps, where an
    # integrator loses digits first; every sample must stay within 2e-12
    # of the closed form.
    grid = time_grid(0.0, horizon, 1000)
    rows = numerics.sample_ivp(logistic_field(gamma), [u0], grid)
    assert max(abs(r[0] - logistic(gamma, u0, t)) for r, t in zip(rows, grid)) <= 2e-12


def test_sample_ivp_last_row_is_the_state_at_the_end():
    # Interior grid times are read off the dense output and do not move
    # the steps, so the last row is the state the last step lands on at
    # exactly grid[-1], whatever the grid in between.
    gamma, u0 = 0.919, 0.01
    seen = []

    def rhs(t, y):
        seen.append((t, y[0]))
        return [gamma * y[0] * (1.0 - y[0])]

    dense = numerics.sample_ivp(rhs, [u0], time_grid(0.0, 5.0, 1000))
    assert (5.0, dense[-1][0]) in seen
    ends = numerics.sample_ivp(logistic_field(gamma), [u0], [0.0, 5.0])
    assert dense[-1][0].hex() == ends[-1][0].hex()
    assert dense[-1][0] == pytest.approx(logistic(gamma, u0, 5.0), abs=1e-10)


def test_sample_ivp_is_bit_reproducible():
    grid = time_grid(0.0, 5.0, 1000)
    runs = [numerics.sample_ivp(logistic_field(0.919), [0.01], grid) for _ in range(2)]
    assert [r[0].hex() for r in runs[0]] == [r[0].hex() for r in runs[1]]


def _pinned_fields():
    """Name -> (field, y0, horizon) for fields of dimension 1 to 5."""
    comp = competition
    stimulated = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix(((0.0, 0.05), (0.12, 0.0))), b=(1.5, 0.4), eps=(1, 0))
    periodic = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix(((0.0, 0.04, 0.02), (0.03, 0.0, 0.05), (0.01, 0.06, 0.0))),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.02, 4.0, 0.3),)),
             comp.PairModulation(2, 1, (comp.Sinusoid(0.005, 7.5),))))
    spontaneous = comp.ChurnMatrix(((0.0, 0.1, 0.0, 0.2), (0.05, 0.0, 0.3, 0.0),
                                    (0.0, 0.1, 0.0, 0.1), (0.2, 0.0, 0.05, 0.0)))
    coupling = [[1.0 + 0.1 * i if i == j else 0.05 * (i - j) for j in range(5)]
                for i in range(5)]

    def linear(t, u):
        return [0.1 * (i + 1) - math.fsum(q * v for q, v in zip(row, u))
                for i, row in enumerate(coupling)]

    return {
        "logistic": (logistic_field(0.919), [0.01], 5.0),
        "stimulated_2": (comp.market_field(comp.BassCompetition(
            m=(0.02, 0.03), r=(0.4, 0.3), u0=(0.0, 0.0)), stimulated), [0.0, 0.0], 30.0),
        "periodic_3": (comp.market_field(comp.BassCompetition(
            m=(0.03, 0.02, 0.01), r=(0.3, 0.5, 0.2), u0=(0.0, 0.0, 0.0)), periodic),
            [0.0, 0.0, 0.0], 40.0),
        "bpq_case6": (reference.bpq_field(games.Case6(a=0.3, b=0.2, gamma=0.001, N=1000.0)),
                      [1000.0, 0.0, 0.0], 25.0),
        "spontaneous_4": (comp.market_field(comp.BassCompetition(
            m=(0.01, 0.02, 0.03, 0.04), r=(0.5, 0.4, 0.3, 0.2), u0=(0.0,) * 4), spontaneous),
            [0.0] * 4, 20.0),
        "linear_5": (linear, [1.0, 0.0, -0.5, 0.25, 0.0], 10.0),
        # The first trial step's stage states grow until the cube of one
        # overflows, so the step is retried at a third of its length.
        "overflow_first_step": (lambda t, y: [-1e20 * t * y[0] ** 3], [1.0], 1.0),
    }


#: sha256 of every row's float.hex, per field: (1000-sample grid, [0, T]).
PINNED_ROWS = {
    "logistic": ("3b94b38f46c2dcdbe36106db3d4dd0345adaff6eb46bc40fcb97baa5af7060a9",
                 "a8d12036975a3b43eabb77136c960ed64a4b8163e77c2ce4a5fb4814508623be"),
    "stimulated_2": ("39da5da281e7d81ef648a28748b92cba5466a8a1b87580ec6327e177149eb6eb",
                     "b9387e99a43c04aa75513154c6003a394d2bcf7f275cc3ee0af3b326b02d9c6a"),
    "periodic_3": ("64713307ef47c443b4853f4df44e8806532ac98a8f63527e2d68e441da3ce4d2",
                   "2b9a7771d7e162c4f1b32b81b46c2136058590b297e26d296ba682e9e10c86f9"),
    "bpq_case6": ("677dbfc01b3edd081de92dce7ca1a8a7f2d5c00d6d34aa8235fb1a37d5077f70",
                  "4f1da0741e356e8b25aef465a4b800cb214214b3ad4c8e2fdbbc5127ed5c726e"),
    "spontaneous_4": ("38b65a86b67429fa0f97fd27edda8b43f25ae96dcb881619647d0c8153c74698",
                      "2e96c7ce7117a0fb1145d08a923baa3076392fdba1de0437e15762e3e097f68e"),
    "linear_5": ("24a075f7947792dba47455f0d0352d406807d1cb7ff100b9ae29a8da9347efbc",
                 "85bf1b291a6df396f89b12700bdc95826260c7f92961cbeec682a1a35e818c2c"),
    "overflow_first_step": ("36b1fe1237974998eea0c2a7c5d55c06a512f105fff22b957cd851a68717efde",
                            "1319a3c47e6a6ef0bf4f4f283a1b98585d037d6e4fe8865e1f1d8deb2da42ec2"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_sample_ivp_rows_are_pinned_to_the_bit(name):
    # Any change to the step's arithmetic, its order of operations or the
    # controller moves these digests, with or without dense output.
    import hashlib
    field, y0, horizon = _pinned_fields()[name]
    digests = []
    for grid in (time_grid(0.0, horizon, 1000), [0.0, horizon]):
        rows = numerics.sample_ivp(field, y0, grid)
        assert len(rows) == len(grid)
        text = "\n".join(",".join(v.hex() for v in row) for row in rows)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == PINNED_ROWS[name]


def _relaxation(n):
    """Q, m and u0 of du/dt = m - Q u, Q an M-matrix, from a seeded draw."""
    rng = random.Random(n)
    q = SquareMatrix.from_rows([[rng.uniform(0.5, 1.5) if i == j else -rng.uniform(0.0, 0.05)
                                 for j in range(n)] for i in range(n)])
    return q, [rng.uniform(0.1, 1.0) for _ in range(n)], [rng.uniform(0.0, 1.0) for _ in range(n)]


@pytest.mark.parametrize("n", [7, 12])
def test_sample_ivp_wide_states_match_the_matrix_exponential(n):
    # The workloads draw at most four components; the step is built for
    # any n. Oracle: u(t) = v - e^(-Qt)(v - u0) with Q v = m.
    q, m, u0 = _relaxation(n)
    v = numerics.linear_solve(q, m)
    grid = time_grid(0.0, 4.0, 41)
    rows = numerics.sample_ivp(lambda t, u: [a - b for a, b in zip(m, q.apply(u))], u0, grid)
    for t, row in zip(grid, rows):
        decay = numerics.mat_exp_apply(q.scaled(-1.0), t, [a - b for a, b in zip(v, u0)])
        for got, want in zip(row, (a - b for a, b in zip(v, decay))):
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def test_sample_ivp_builds_the_step_of_a_dimension_once(monkeypatch):
    built = []
    source = numerics._dop853_source
    monkeypatch.setattr(numerics, "_dop853_source", lambda n: built.append(n) or source(n))
    monkeypatch.setattr(numerics, "_DOP853_BUILT", {})
    q, m, u0 = _relaxation(7)
    field = lambda t, u: [a - b for a, b in zip(m, q.apply(u))]  # noqa: E731
    first = numerics.sample_ivp(field, u0, [0.0, 1.0])
    assert numerics.sample_ivp(field, u0, [0.0, 1.0]) == first
    assert built == [7]


def test_sample_ivp_threads_share_one_build(monkeypatch):
    # Library callers may solve on threads: threads that need the same
    # missing dimension at once must build it once.
    built = []
    source = numerics._dop853_source

    def slow_source(n):
        built.append(n)
        time.sleep(0.05)   # hold the build open while the other threads arrive
        return source(n)

    monkeypatch.setattr(numerics, "_dop853_source", slow_source)
    monkeypatch.setattr(numerics, "_DOP853_BUILT", {})
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(k):
        barrier.wait()
        results[k] = numerics.sample_ivp(
            lambda t, y: [-y[0], y[0] - y[1], y[1]], [1.0, 0.0, 0.0], time_grid(0.0, 2.0, 50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert built == [3]
    assert results[0] is not None and results == [results[0]] * workers


def test_sample_ivp_rejects_a_grid_that_does_not_increase():
    with pytest.raises(ValueError):
        numerics.sample_ivp(exp_decay_field(), [1.0], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        numerics.sample_ivp(exp_decay_field(), [1.0], [])


def test_ode_fallback_rhs_budget(tmp_path, monkeypatch, capsys):
    # The winner-take-all long run took 40,000 right-hand sides with
    # fixed-step RK4 (10,000 steps); the adaptive pair needs a quarter.
    from test_golden import LONG_RUN_DOCS
    calls = [0]
    sample_ivp = numerics.sample_ivp

    def counted(field, y0, grid):
        def rhs(t, y):
            calls[0] += 1
            return field(t, y)
        return sample_ivp(rhs, y0, grid)

    monkeypatch.setattr(numerics, "sample_ivp", counted)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LONG_RUN_DOCS["stimulated_churn_winner_take_all"]))
    assert cli.main(["simulate", str(path), "--samples", "1000"]) == cli.EXIT_OK
    capsys.readouterr()
    assert 0 < calls[0] <= 40_000 // 4


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_constant():
    assert numerics.quadrature(lambda t: 1.0, 0.0, 1.0, 1e-10) == pytest.approx(1.0, abs=1e-12)


def taylor_exp_square_integral(x: float, terms: int = 40) -> float:
    # int_0^x exp(u^2) du = sum x^(2n+1) / (n! (2n+1))
    total = 0.0
    for n in range(terms):
        total += x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return total


def test_quadrature_exp_square_against_series():
    oracle = taylor_exp_square_integral(1.0)
    value = numerics.quadrature(lambda u: math.exp(u * u), 0.0, 1.0, 1e-11)
    assert oracle == pytest.approx(1.4626517, abs=1e-7)
    assert value == pytest.approx(oracle, abs=1e-9)


def test_quadrature_sir_band_matches_rk4_time_difference():
    # Time to move between two quitter levels, read off a direct
    # integration, must equal the band integral of dQ / (b P(Q)).
    from marketdyn import games
    case = games.Case2(beta=0.002, b=0.5, N=1000.0, P0=10.0)
    field = reference.bpq_field(case)
    times = time_grid(0.0, 12.0, 40001)
    rows = numerics.sample_ivp(field, [case.B0, case.P0, case.Q0], times)
    q = [r[2] for r in rows]

    def crossing(level):
        for i in range(len(q) - 1):
            if q[i] <= level <= q[i + 1]:
                w = (level - q[i]) / (q[i + 1] - q[i])
                return times[i] + w * (times[i + 1] - times[i])
        raise AssertionError("level not reached")

    q_lo, q_hi = 5.0, 40.0
    t_band = crossing(q_hi) - crossing(q_lo)
    beta, b, n, b0 = case.beta, case.b, case.N, case.B0
    integral = numerics.quadrature(
        lambda u: 1.0 / (b * (n - u - b0 * math.exp(-(beta / b) * u))),
        q_lo, q_hi, 1e-11)
    assert integral == pytest.approx(t_band, abs=1e-4)


def test_quadrature_subdivision_limit():
    with pytest.raises(AccuracyNotReachedError) as exc:
        numerics.quadrature(lambda x: math.sin(1.0 / (x + 1e-9)), 0.0, 1.0, 1e-14)
    assert math.isfinite(exc.value.best_estimate)


@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    st.floats(-2, 2), st.floats(-2, 2),
)
def test_quadrature_linearity_on_polynomials(c1, c2, alpha, beta):
    def poly(coeffs):
        return lambda x: sum(c * x ** k for k, c in enumerate(coeffs))

    f, g = poly(c1), poly(c2)
    tol = 1e-10
    int_f = numerics.quadrature(f, 0.0, 2.0, tol)
    int_g = numerics.quadrature(g, 0.0, 2.0, tol)
    combined = numerics.quadrature(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, tol)
    scale = max(1.0, abs(alpha * int_f) + abs(beta * int_g))
    assert abs(combined - (alpha * int_f + beta * int_g)) <= 2 * tol * scale


# ---------------------------------------------------------------------------
# Chebyshev windows and the windowed convolution
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-3, 3), min_size=1, max_size=numerics.CHEB_DEGREE + 1),
       st.floats(0.01, 20.0))
def test_chebyshev_window_is_exact_on_polynomials_of_its_degree(coeffs, length):
    # The interpolant of a polynomial of degree <= CHEB_DEGREE is the
    # polynomial itself, so its antiderivative is exact too.
    def poly(x):
        u = x / length
        return sum(c * u ** k for k, c in enumerate(coeffs))

    def antiderivative(x):
        u = x / length
        return length * sum(c * u ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    window = numerics.chebyshev_window(poly, length, 1e300)
    scale = sum(map(abs, coeffs))
    for x in (0.0, 0.3 * length, 0.77 * length, length):
        integral, value = window.integral_and_value(x)
        assert integral == window.integral(x)
        assert abs(integral - antiderivative(x)) <= 1e-13 * scale * length
        assert abs(value - poly(x)) <= 1e-13 * scale


def test_chebyshev_window_rejects_what_it_does_not_resolve():
    assert numerics.chebyshev_window(lambda x: math.cos(60.0 * x), 1.0) is None
    log = lambda x: math.log(x) if x > 0.0 else -math.inf  # noqa: E731
    assert numerics.chebyshev_window(log, 1.0) is None
    # Rounding noise is resolved once it is measured against a floor.
    noise = lambda x: 1e-30 * math.sin(1e6 * x)  # noqa: E731
    assert numerics.chebyshev_window(noise, 1.0) is None
    assert numerics.chebyshev_window(noise, 1.0, 1e-10) is not None


def mp_cos_convolution(mp, s, omega, t):
    """int_0^t cos(omega u) e^(s (u - t)) du."""
    s, omega, t = mp.mpf(s), mp.mpf(omega), mp.mpf(t)
    return ((s * mp.cos(omega * t) + omega * mp.sin(omega * t) - s * mp.exp(-s * t))
            / (s * s + omega * omega))


def cos_convolution(times, s, omega, counts=None):
    """numerics.shifted_integrals on f = cos(omega u), k = s u, counting its
    single steps and its windows, accepted and rejected."""
    counts = {} if counts is None else counts

    def step(acc, lo, hi):
        counts["steps"] = counts.get("steps", 0) + 1
        return numerics.shifted_integral_step(
            acc, lambda y: math.cos(omega * (hi + y)) * math.exp(s * y), lambda y: s * y, lo, hi)

    return numerics.shifted_integrals(
        lambda lo, x: math.cos(omega * (lo + x)) * math.exp(s * x), lambda lo, x: s * x,
        step, times, 0.0)


def counting_windows(monkeypatch, counts):
    window = numerics.chebyshev_window

    def counted(g, length, scale=0.0):
        series = window(g, length, scale)
        key = "windows" if series is not None else "rejected"
        counts[key] = counts.get(key, 0) + 1
        return series

    monkeypatch.setattr(numerics, "chebyshev_window", counted)


def test_shifted_integrals_match_an_mpmath_convolution_over_many_windows(mp, monkeypatch):
    s, omega = 2.0, 3.0
    times = time_grid(0.0, 30.0, 1201)
    counts = {}
    counting_windows(monkeypatch, counts)
    values = cos_convolution(times, s, omega, counts)
    assert counts.get("windows", 0) >= 50 and counts.get("steps", 0) <= 1
    for t, value in zip(times[1:], values, strict=True):
        assert abs(mp.mpf(value) - mp_cos_convolution(mp, s, omega, t)) <= 1e-14


def test_shifted_integrals_halve_a_window_their_series_misses(mp, monkeypatch):
    # omega = 40 puts six periods in the first trial window of 1/s = 1; its
    # series misses, and the halved windows hold three and one and a half.
    s, omega = 1.0, 40.0
    times = time_grid(0.0, 5.0, 501)
    counts = {}
    counting_windows(monkeypatch, counts)
    values = cos_convolution(times, s, omega, counts)
    assert counts.get("rejected", 0) >= 1 and counts.get("windows", 0) >= 5
    for t, value in zip(times[1:], values, strict=True):
        assert abs(mp.mpf(value) - mp_cos_convolution(mp, s, omega, t)) <= 1e-14


def test_shifted_integrals_take_single_steps_longer_than_a_window(mp, monkeypatch):
    # Dense stretches, where windows of 1/s = 0.5 hold 50 steps, around
    # steps of 2, which each go to the per-step quadrature.
    s, omega = 2.0, 3.0
    dense = [0.01 * i for i in range(101)]
    times = dense + [1.0 + 2.0 * i for i in range(1, 6)] + [11.0 + t for t in dense[1:]]
    counts = {}
    counting_windows(monkeypatch, counts)
    values = cos_convolution(times, s, omega, counts)
    assert counts.get("steps", 0) == 5 and counts.get("windows", 0) >= 4
    for t, value in zip(times[1:], values, strict=True):
        assert abs(mp.mpf(value) - mp_cos_convolution(mp, s, omega, t)) <= 1e-14


# ---------------------------------------------------------------------------
# solve_root
# ---------------------------------------------------------------------------

def test_root_sqrt_two():
    root = numerics.solve_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-13)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_root_half_market_time():
    a = math.log(2.0) / 5.0
    root = numerics.solve_root(lambda t: (1.0 - math.exp(-a * t)) - 0.5, 0.0, 50.0)
    assert root == pytest.approx(5.0, abs=1e-9)


def test_root_cutoff_share_time():
    # -gamma t1 = u1 + ln(1 - u1) evaluated directly at u1 = 1/2, gamma = 1.
    u1 = 0.5
    t1_direct = -(u1 + math.log(1.0 - u1))
    assert t1_direct == pytest.approx(0.1931, abs=5e-5)
    root = numerics.solve_root(lambda t: t - t1_direct, 0.0, 1.0)
    assert root == pytest.approx(t1_direct, abs=1e-10)


def test_root_requires_sign_change():
    with pytest.raises(BracketInvalidError):
        numerics.solve_root(lambda x: 1.0 + x * x, -1.0, 1.0)


@pytest.mark.parametrize("hi,tol,rel", [(0.04, 1e-12, None), (1e-9, 1e-12, None),
                                        (0.04, 1e-24, 1e-12)])
def test_root_narrower_than_the_derivative_probe(hi, tol, rel):
    # g = a e^(-at) - (1 - e^(-at)) falls from 1e12 to -1 within 1e-10 of
    # t = 0. A derivative probe 1e-7 wide, clipped to the bracket, took the
    # secant across it for the slope: each call stopped after 602
    # evaluations at 3.81e-8 (on [0, 0.04]) or 1.51e-10 (on [0, 1e-9]).
    a = 1e12
    calls = []

    def g(t):
        calls.append(t)
        return a * math.exp(-a * t) + math.expm1(-a * t)

    root = numerics.solve_root(g, 0.0, hi, tol=tol)
    exact = math.log1p(a) / a
    assert root == pytest.approx(exact, abs=tol, rel=rel)
    assert len(calls) <= 200


@given(st.floats(-5, 5), st.floats(0.1, 4.0), st.floats(0.1, 3.0))
def test_root_stays_in_bracket(center, width, skew):
    lo, hi = center - width, center + width

    def g(x):
        return (x - center) * (1.0 + skew * (x - center) ** 2)

    root = numerics.solve_root(g, lo, hi, tol=1e-12)
    assert lo <= root <= hi
    assert abs(g(root)) <= 1e-9


# ---------------------------------------------------------------------------
# two-rate divided differences and the closed forms built on them
# ---------------------------------------------------------------------------

#: Relative gaps between the two rates of a closed form: the confluence, the
#: rounding level, and both sides of the 1e-9 window where the closed forms
#: once switched to their equal-rate limits.
RATE_GAPS = (0.0, 1e-15, 1e-12, 2e-9, 1e-7, 1e-3)
GAP_TIMES = (0.5, 3.0, 15.0)


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def mp_decay_gap(mp, x, y, t):
    x, y, t = mp.mpf(x), mp.mpf(y), mp.mpf(t)
    if x == y:
        return t * mp.exp(-x * t)
    return (mp.exp(-x * t) - mp.exp(-y * t)) / (y - x)


def mp_log_gap(mp, x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    return 1 / x if x == y else (mp.log(x) - mp.log(y)) / (x - y)


def assert_close(mp, value, reference):
    assert abs(mp.mpf(value) - reference) <= 1e-13 * abs(reference), (value, reference)


@pytest.mark.parametrize("gap", RATE_GAPS)
def test_decay_gap_and_log_gap_match_mpmath(mp, gap):
    for x in (0.3, 2.0):
        y = x * (1.0 + gap)
        for t in GAP_TIMES:
            assert_close(mp, numerics.decay_gap(x, y, t), mp_decay_gap(mp, x, y, t))
            assert_close(mp, numerics.decay_gap(y, x, t), mp_decay_gap(mp, x, y, t))
            assert_close(mp, numerics.decay_gap(0.0, x * gap, t), mp_decay_gap(mp, 0, x * gap, t))
        assert_close(mp, numerics.log_gap(x, y), mp_log_gap(mp, x, y))
        assert_close(mp, numerics.log_gap(y, x), mp_log_gap(mp, x, y))


def test_decay_gap_and_log_gap_at_the_extremes(mp):
    assert numerics.decay_gap(0.5, 0.7, 0.0) == 0.0
    assert math.copysign(1.0, numerics.decay_gap(0.5, 0.5, 0.0)) == 1.0
    assert numerics.decay_gap(0.0, 1e300, 1e10) == 1e-300
    # (hi - lo)/lo overflows; the difference of logarithms does not.
    assert_close(mp, numerics.log_gap(5e-324, 1.0), mp_log_gap(mp, 5e-324, 1.0))
    assert_close(mp, numerics.log_gap(1.7e308, 1e308), mp_log_gap(mp, 1.7e308, 1e308))


@pytest.mark.parametrize("gap", RATE_GAPS)
def test_two_rate_closed_forms_match_mpmath(mp, gap):
    grid = [0.0, *GAP_TIMES]

    def dg(x, y, t):
        return mp_decay_gap(mp, x, y, t)

    # bpq case 1 with constant rates: P, C, the peak and the calibration.
    a, c, N = 0.4, 0.1, 1000.0
    b = (a + c) * (1.0 + gap)
    s = mp.mpf(a) + mp.mpf(c)
    traj = games.bpq_path(games.Case1(a, b, c, N), grid)
    for t, p, sold in zip(GAP_TIMES, traj.channel("P")[1:], traj.channel("C")[1:]):
        assert_close(mp, p, a * N * dg(b, s, t))
        assert_close(mp, sold, a * N * (1 - mp.exp(-s * t)) / s)
    t_m = mp_log_gap(mp, s, b)
    peak = games.case1_peak(a, b, c, N)
    assert_close(mp, peak.T_m, t_m)
    assert_close(mp, peak.P_m, a * N * dg(b, s, t_m))
    ratio = 1.0 + gap
    assert_close(mp, games.calibrate_case1(2.0, ratio), ratio * mp_log_gap(mp, ratio, 1) / 2)

    # Absorbing hesitation: h and u as c meets a + b.
    hes = monopoly.HesitationParams(0.5, 0.25, 0.75 * (1.0 + gap))
    traj = monopoly.hesitation_path(hes, grid)
    for t, h, u in zip(GAP_TIMES, traj.channel("h")[1:], traj.channel("u")[1:]):
        h_ref = hes.b * dg(hes.c, 0.75, t)
        assert_close(mp, h, h_ref)
        assert_close(mp, u, 1 - mp.exp(-0.75 * mp.mpf(t)) - h_ref)

    # Birth/death as g meets a + f - d = 0.5 from below (g = 0.5 is outside
    # the model's domain).
    if gap > 0.0:
        bd = monopoly.BirthDeathParams(a=0.375, d=0.125, f=0.25, g=0.5 * (1.0 - gap))
        traj = monopoly.birth_death_path(bd, grid)
        for t, u in zip(GAP_TIMES, traj.channel("u")[1:]):
            assert_close(mp, u, bd.a * dg(bd.g, 0.5, t))

    # The companion title's players and the coupling antiderivative.
    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=0.4 * (1.0 + gap),
                                   tau=1.0, N=1000.0)
    nc, g = spec.companion_population, mp.mpf(spec.g)
    a_c, b_c = mp.mpf(spec.a_c), mp.mpf(spec.b_c)
    for t in GAP_TIMES:
        age = mp.mpf(t + spec.tau)
        assert_close(mp, reference.companion_players(spec, t), nc * a_c * dg(a_c, b_c, age))
        # The antiderivative that vanishes at age 0.
        if a_c == b_c:
            antiderivative = (nc * g / a_c) * (1 - mp.exp(-a_c * age) * (1 + a_c * age))
        else:
            antiderivative = nc * g * (
                (1 - mp.exp(-b_c * age)) / b_c
                - (mp.exp(-a_c * age) - mp.exp(-b_c * age)) / (b_c - a_c))
        assert_close(mp, games._companion_kernels(spec)[1](t), antiderivative)

    # Two suppliers: the one-way peak time, and the path against the
    # matrix exponential u(t) = (I - e^{-Qt}) Q^{-1} m.
    m1, a21 = 0.3, 0.5
    m2 = 0.5 * (1.0 + gap) - m1
    assert_close(mp, competition.two_supplier_peak_time(m1, m2, a21),
                 mp_log_gap(mp, mp.mpf(m1) + mp.mpf(m2), a21))
    m1, m2, a12, a21 = 0.45, 0.8 * (1.0 + gap) - 0.45, 0.3, 0.5
    q = mp.matrix([[m1 + mp.mpf(a12), m1 - mp.mpf(a21)],
                   [m2 - mp.mpf(a12), m2 + mp.mpf(a21)]])
    v = mp.lu_solve(q, mp.matrix([m1, m2]))
    traj = competition.two_supplier_spontaneous_path(m1, m2, a12, a21, grid)
    for t, u1, u2 in zip(GAP_TIMES, traj.channel("u1")[1:], traj.channel("u2")[1:]):
        u = v - mp.expm(-q * t) * v
        assert_close(mp, u1, u[0])
        assert_close(mp, u2, u[1])


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def test_solve_identity():
    identity = SquareMatrix.identity(3)
    assert numerics.linear_solve(identity, [1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]
    assert reference.det(identity) == 1.0


def test_two_supplier_balance_system():
    a12, a21 = 0.3, 0.5
    a = SquareMatrix.from_rows([[-a12, a21], [1.0, 1.0]])
    u = numerics.linear_solve(a, [0.0, 1.0])
    assert u[0] == pytest.approx(a21 / (a12 + a21), rel=1e-14)
    assert u[1] == pytest.approx(a12 / (a12 + a21), rel=1e-14)


def test_cofactor_expansion_consistency():
    rng = random.Random(11)
    rows = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
    a = SquareMatrix.from_rows(rows)
    d = reference.det(a)
    for i in range(4):
        expansion = math.fsum(rows[i][j] * reference.cofactor(a, i, j) for j in range(4))
        assert expansion == pytest.approx(d, rel=1e-11, abs=1e-12)


def test_solve_residual_small():
    rng = random.Random(5)
    for n in (2, 5, 9, 16):
        rows = [[rng.uniform(-1, 1) + (2.0 * n if i == j else 0.0) for j in range(n)]
                for i in range(n)]
        a = SquareMatrix.from_rows(rows)
        b = [rng.uniform(-1, 1) for _ in range(n)]
        x = numerics.linear_solve(a, b)
        residual = max(abs(math.fsum(rows[i][j] * x[j] for j in range(n)) - b[i])
                       for i in range(n))
        assert residual <= 1e-10 * max(1.0, max(abs(v) for v in b))


def test_singular_matrix_raises():
    a = SquareMatrix.from_rows([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        numerics.linear_solve(a, [1.0, 1.0])
    assert reference.det(a) == 0.0


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10))
def test_det_row_swap_flips_sign(i, j, seed):
    if i == j:
        return
    rng = random.Random(seed)
    rows = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
    d = reference.det(SquareMatrix.from_rows(rows))
    if abs(d) < 1e-6:
        return
    rows[i], rows[j] = rows[j], rows[i]
    d_swapped = reference.det(SquareMatrix.from_rows(rows))
    assert d_swapped == pytest.approx(-d, rel=1e-10)


# ---------------------------------------------------------------------------
# matrix exponential action
# ---------------------------------------------------------------------------

def test_mat_exp_zero_matrix():
    m = SquareMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])
    assert numerics.mat_exp_apply(m, 3.0, [1.0, -2.0]) == [1.0, -2.0]


def test_mat_exp_diagonal():
    m = SquareMatrix.from_rows([[-1.0, 0.0], [0.0, -2.0]])
    out = numerics.mat_exp_apply(m, 1.0, [1.0, 1.0])
    assert out[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert out[1] == pytest.approx(math.exp(-2.0), rel=1e-12)


def eigen_two_state_oracle(a, b, c, t):
    # Closed form of exp(Mt) (1, 0)^T for M = [[-a-b, c], [b, -c]] via the
    # eigen-decomposition: p, h of the hesitation system.
    s = a + b + c
    r = math.sqrt(s * s - 4.0 * a * c)
    lam1, lam2 = 0.5 * (-s + r), 0.5 * (-s - r)
    p = ((c + lam1) * math.exp(lam1 * t) - (c + lam2) * math.exp(lam2 * t)) / r
    h = b * (math.exp(lam1 * t) - math.exp(lam2 * t)) / r
    return [p, h]


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0])
def test_mat_exp_matches_eigen_oracle(t):
    a = b = c = 1.0
    m = SquareMatrix.from_rows([[-a - b, c], [b, -c]])
    got = numerics.mat_exp_apply(m, t, [1.0, 0.0])
    want = eigen_two_state_oracle(a, b, c, t)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


@given(st.integers(0, 30), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_mat_exp_semigroup(seed, s, t):
    rng = random.Random(seed)
    m = SquareMatrix.from_rows([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
    v = [rng.uniform(-1, 1) for _ in range(3)]
    direct = numerics.mat_exp_apply(m, s + t, v)
    nested = numerics.mat_exp_apply(m, s, numerics.mat_exp_apply(m, t, v))
    scale = max(1.0, max(abs(x) for x in direct))
    for d, n in zip(direct, nested):
        assert abs(d - n) <= 1e-8 * scale


def test_mat_exp_large_argument_accuracy():
    # Against the scalar exponential with ||Mt|| = 50.
    m = SquareMatrix.from_rows([[-1.0]])
    out = numerics.mat_exp_apply(m, 50.0, [1.0])
    assert out[0] == pytest.approx(math.exp(-50.0), rel=1e-9)


def reference_mat_exp(m, t):
    """exp(M t) as the series was written on checked records, each product an
    fsum over a generator: the oracle of mat_exp's bits and errors."""
    def matmul(a, b):
        n = a.n
        return SquareMatrix(n, tuple(
            tuple(math.fsum(a.entries[i][k] * b.entries[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n)))

    b = m.scaled(t)
    norm = b.inf_norm()
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = b.scaled(0.5 ** squarings)
    n = m.n
    result = term = SquareMatrix.identity(n)
    for k in range(1, 26):
        term = matmul(term, b).scaled(1.0 / k)
        result = SquareMatrix(n, tuple(tuple(result.entries[i][j] + term.entries[i][j]
                                             for j in range(n)) for i in range(n)))
    for _ in range(squarings):
        result = matmul(result, result)
    return result, squarings


@given(st.integers(1, 5), st.data())
def test_mat_exp_matches_the_checked_series_bit_for_bit(n, data):
    # ||M t|| from 0 through many squarings, up to overflow, which must
    # raise the error the checked series raised.
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    m = SquareMatrix.from_rows(
        [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)])
    t = data.draw(st.sampled_from((0.0, 1.0)) | st.floats(-3.0, 4.0).map(lambda x: 10.0 ** x))
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    calls = []
    matmul = SquareMatrix.matmul
    try:
        want, squarings = reference_mat_exp(m, t)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            numerics.mat_exp(m, t)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SquareMatrix, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
        got = numerics.mat_exp(m, t)
    assert type(got) is SquareMatrix and got.n == n
    assert [[x.hex() for x in r] for r in got.entries] == [[x.hex() for x in r]
                                                          for r in want.entries]
    assert len(calls) == 25 + squarings   # the products the tracer counts
    applied = [math.fsum(r[j] * v[j] for j in range(n)) for r in want.entries]
    assert [x.hex() for x in numerics.mat_exp_apply(m, t, v)] == [x.hex() for x in applied]


@pytest.mark.parametrize("rows,t,error", [
    ([[800.0]], 1.0, ValueError),                          # e^800 at the last squaring
    ([[1.0, 0.0], [0.0, -1.0]], 1e4, ValueError),          # inf times 0 before the last
    ([[1.0, -1.0], [-1.0, 1.0]], 1e4, ValueError),         # -inf + inf in a product's fsum
    ([[1e308, 1e308], [0.0, 0.0]], 1.0, OverflowError),    # the norm itself overflows
    ([[2.0]], 1e308, ValueError),                          # M t overflows
])
def test_mat_exp_overflow_raises_as_the_checked_series(rows, t, error):
    m = SquareMatrix.from_rows(rows)
    with pytest.raises(error):
        reference_mat_exp(m, t)
    with pytest.raises(error):
        numerics.mat_exp(m, t)

# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_vector_field_dimension_checked():
    # The first evaluation must return one entry per state component.
    with pytest.raises(ValueError, match="rhs returned 1 entries, expected 2"):
        numerics.sample_ivp(lambda t, y: [0.0], [0.0, 0.0], [0.0, 1.0])


def test_trajectory_validation():
    from marketdyn.trajectory import Trajectory
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.0), ((1.0, 2.0),), ("u",))
    with pytest.raises(ValueError):
        Trajectory((), ((),), ("u",))
    with pytest.raises(ValueError, match="every label must have one column"):
        Trajectory((0.0, 1.0), ((1.0, 2.0),), ("u", "D"))
    with pytest.raises(ValueError, match="one entry per time"):
        Trajectory((0.0, 1.0), ((1.0,),), ("u",))
    with pytest.raises(ValueError, match="one entry per time"):
        Trajectory((0.0, 1.0), ((1.0, 2.0, 3.0),), ("u",))
    with pytest.raises(ValueError, match="one entry per time"):
        Trajectory((0.0, 1.0), ((1.0, 2.0), (3.0,)), ("u", "D"))
    column = (1.0, 2.0)
    traj = Trajectory((0.0, 1.0), (column,), ("u",))
    assert traj.channel("u") == (1.0, 2.0)
    assert traj.channel("u") is column
    assert traj.columns == (column,)
    with pytest.raises(KeyError):
        traj.channel("v")



def test_from_channels_rejects_channels_of_unequal_length():
    from marketdyn.trajectory import from_channels
    traj = from_channels([0, 1], {"u": [0.1, 0.2], "D": [3.0, 4.0]}, notes=["n"])
    assert (traj.times, traj.columns, traj.labels, traj.notes) == (
        (0.0, 1.0), ((0.1, 0.2), (3.0, 4.0)), ("u", "D"), ("n",))
    for channels in ({"u": [0.1, 0.2], "D": [3.0]}, {"u": [0.1], "D": [3.0, 4.0]},
                     {"u": [0.1, 0.2, 0.3], "D": [3.0, 4.0, 5.0]}):
        with pytest.raises(ValueError):
            from_channels([0.0, 1.0], channels)
