"""Feedback kernels: growth curves, calibration, latency, equilibria."""

import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from marketdyn import cli, feedback as fb, numerics
from marketdyn.errors import DomainError, NeverReachedError, ParameterError
from marketdyn.trajectory import time_grid

T50 = 5.0

CALIBRATED = {
    # kind -> (u0, exact rate * T50)
    "none": (0.0, math.log(2.0)),
    "bass": (0.0, math.log(5.0) / 4.0),  # ratio 3: a+gamma = ln(2+3)/T50
    "linear": (0.01, math.log(99.0)),
    "sqrt": (0.0, math.log((math.sqrt(2) + 1) / (math.sqrt(2) - 1))),
    "quadratic": (0.01, math.log(99.0) + 98.0),
    "one_minus_u": (0.0, 1.0),
    "inverse_u": (0.0, math.log(2.0) - 0.5),
    "trend_linear_zero": (0.0, 1.0 - math.log(2.0)),
}


def make_model(kind, u0=None, **kw):
    kern = fb.kernel(kind, **kw)
    base_u0 = CALIBRATED.get(kind, (0.0,))[0] if u0 is None else u0
    return fb.FeedbackModel.calibrated(kern, T50, base_u0)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(CALIBRATED))
def test_calibration_closed_values(kind):
    u0, product = CALIBRATED[kind]
    kw = {"ratio": 3.0} if kind == "bass" else {}
    m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, u0)
    assert m.rate * T50 == pytest.approx(product, rel=1e-12)
    assert reference.u_of_t(m, T50) == pytest.approx(0.5, abs=1e-10)


def test_sqrt_rate_value():
    m = make_model("sqrt")
    assert m.rate == pytest.approx(1.7627 / T50, abs=1e-4)


def test_inverse_u_rate_value():
    m = make_model("inverse_u")
    assert m.rate * T50 == pytest.approx(0.1931, abs=5e-5)


def test_one_minus_u_rate_is_inverse_t50():
    m = make_model("one_minus_u")
    assert m.rate == pytest.approx(1.0 / T50, rel=1e-12)


def test_trend_rate_value():
    m = make_model("trend_linear_zero")
    assert m.rate * T50 == pytest.approx(0.3069, abs=5e-5)


def test_calibration_rejects_high_start():
    with pytest.raises(ParameterError):
        fb.calibrate_rate(fb.kernel("none"), T50, u0=0.6)


def test_imitator_kernels_need_seed():
    with pytest.raises(NeverReachedError):
        fb.calibrate_rate(fb.kernel("linear"), T50, u0=0.0)
    with pytest.raises(NeverReachedError):
        fb.calibrate_rate(fb.kernel("power", n=2.0), T50, u0=0.0)


# ---------------------------------------------------------------------------
# t(u) and u(t)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(CALIBRATED))
def test_time_at_start_is_zero(kind):
    m = make_model(kind, **({"ratio": 3.0} if kind == "bass" else {}))
    assert fb.t_of_u(m, m.u0) == 0.0
    assert reference.u_of_t(m, 0.0) == m.u0


def test_linear_half_market_time():
    m = make_model("linear")
    assert fb.t_of_u(m, 0.5) == pytest.approx(math.log(99.0) / m.rate, rel=1e-12)


def test_domain_errors():
    m = make_model("linear")
    with pytest.raises(DomainError):
        fb.t_of_u(m, 1.0)
    with pytest.raises(DomainError):
        fb.t_of_u(m, 0.001)  # below u0
    bad = fb.FeedbackModel(fb.kernel("linear"), rate=1.0, u0=0.0)
    with pytest.raises(NeverReachedError):
        fb.t_of_u(bad, 0.5)


@pytest.mark.parametrize("kind,u0", [
    ("none", 0.0), ("bass", 0.0), ("linear", 0.01), ("sqrt", 0.0),
    ("quadratic", 0.01), ("one_minus_u", 0.0), ("inverse_u", 0.0),
    ("trend_linear_zero", 0.0), ("power", 0.05),
])
def test_round_trip(kind, u0):
    kw = {"ratio": 3.0} if kind == "bass" else ({"n": 3.0} if kind == "power" else {})
    m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, u0)
    for u in (max(u0 + 1e-6, 1e-4), 0.1, 0.3, 0.5, 0.8, 0.99, 0.999):
        if u <= u0:
            continue
        assert reference.u_of_t(m, fb.t_of_u(m, u)) == pytest.approx(u, abs=1e-9)


def test_seeded_innovator_imitator_mix():
    # ratio and T50 jointly pin (a, gamma) for a seeded start too.
    m = fb.FeedbackModel.calibrated(fb.kernel("bass", ratio=4.0), T50, u0=0.05)
    assert reference.u_of_t(m, T50) == pytest.approx(0.5, abs=1e-10)
    grid = time_grid(0.0, 3 * T50, 61)
    rows = numerics.sample_ivp(reference.feedback_field(m), [0.05], grid)
    worst = max(abs(reference.u_of_t(m, t) - r[0]) for t, r in zip(grid, rows))
    assert worst <= 1e-9


def test_sqrt_growth_from_zero():
    m = make_model("sqrt")
    for t in (0.5, 2.0, 7.0):
        e = math.exp(-m.rate * t)
        assert reference.u_of_t(m, t) == pytest.approx(((1 - e) / (1 + e)) ** 2, rel=1e-12)


def test_quadratic_half_market_round_trip():
    m = make_model("quadratic")
    assert reference.u_of_t(m, T50) == pytest.approx(0.5, abs=1e-6)


def test_power_matches_quadratic_special_case():
    mq = make_model("quadratic")
    mp = fb.FeedbackModel.calibrated(fb.kernel("power", n=2.0), T50, 0.01)
    assert mp.rate == pytest.approx(mq.rate, rel=1e-9)
    for t in (1.0, 5.0, 12.0):
        assert reference.u_of_t(mp, t) == pytest.approx(reference.u_of_t(mq, t), abs=1e-8)


def mpmath_power_time(n, u0, u):
    """int dv / (v^n (1 - v)) from u0 to u at 30 digits, the pole taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        n, u0, u = mpmath.mpf(n), mpmath.mpf(u0), mpmath.mpf(u)
        regular = mpmath.quad(lambda v: (1 - v ** n) / (v ** n * (1 - v)), [u0, 0.5, u])
        return float(regular + mpmath.log((1 - u0) / (1 - u)))


@pytest.mark.parametrize("n,u0", [
    (n, u0) for n in (0.5, 1.5, 2.0, 2.5, 3.0, 7.3)
    for u0 in (0.0, 0.001, 0.01, 0.3) if u0 > 0.0 or n < 1.0])
def test_power_time_matches_mpmath_up_to_saturation(n, u0):
    m = fb.FeedbackModel(fb.kernel("power", n=n), 1.0, u0)
    for u in (0.4, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
        assert fb.t_of_u(m, u) == pytest.approx(mpmath_power_time(n, u0, u), rel=1e-12)


def mpmath_power_integral(n, u0, u):
    """int dv / (v^n (1 - v)) from u0 to u at 30 digits.

    1 / (v^n (1 - v)) = v^-n + 1 / (1 - v) + (v^(1-n) - 1) / (1 - v): the
    first two parts are integrated in closed form, the bounded rest by
    quadrature on panels that shrink toward v = 0 and v = 1.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        n, u0, u = mpmath.mpf(n), mpmath.mpf(u0), mpmath.mpf(u)
        if n == 1:
            head = mpmath.log(u / u0)
        else:
            head = (u ** (1 - n) - u0 ** (1 - n)) / (1 - n)
        cuts = [mpmath.mpf(2) ** -j for j in range(1, 12)]
        cuts += [1 - c for c in cuts]
        points = [u0] + sorted(c for c in cuts if u0 < c < u) + [u]
        rest = mpmath.quad(lambda v: (v ** (1 - n) - 1) / (1 - v), points)
        return head + mpmath.log1p((u - u0) / (1 - u)) + rest


@settings(max_examples=150, deadline=None)
@given(st.floats(0.1, 12.0, exclude_min=True, exclude_max=True),
       st.one_of(st.just(0.0), st.floats(0.001, 0.45)),
       st.floats(0.0, 1.0 - 1e-12, exclude_min=True))
def test_power_series_matches_mpmath(n, u0, u):
    assume(u > u0 and (u0 > 0.0 or n < 1.0))
    expected = mpmath_power_integral(n, u0, u)
    assert fb._phi_power(n, u, u0) == pytest.approx(float(expected), rel=1e-13, abs=0.0)


def mpmath_decaying_phi(kind, u0, u):
    """phi of the 1/u or (1-u)/u kernel at 60 digits, enough for its cancellation."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        u0, u = mpmath.mpf(u0), mpmath.mpf(u)
        if kind == "trend_linear_zero":  # int v dv / (1 - v)^2
            return float(mpmath.log((1 - u) / (1 - u0)) + u / (1 - u) - u0 / (1 - u0))
        return float((u0 - u) + mpmath.log((1 - u0) / (1 - u)))  # int v dv / (1 - v)


@pytest.mark.parametrize("kind", ["inverse_u", "inverse_u_cutoff", "trend_linear_zero"])
@pytest.mark.parametrize("u", [1e-12, 3.7e-11, 1e-9, 2.2e-7, 1e-6, 4.1e-5, 1e-4, 3e-3,
                               1e-2])
def test_decaying_phi_keeps_its_digits_for_small_shares(kind, u):
    # The closed forms cancel to about 1e-16 u while phi is about u^2 / 2.
    kern = fb.kernel(kind, u1=0.5 if kind == "inverse_u_cutoff" else None)
    for u0 in (0.0, u / 3.0):
        expected = mpmath_decaying_phi(kind, u0, u)
        assert fb._phi(kern, u, u0) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_tiny_rate_share_stays_tiny(tmp_path, capsys):
    # u^2 / 2 = rate t puts the share near 1e-161 at t = 10.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "feedback", "kernel": {"kind": "inverse_u"},
                                          "rate": 5e-324, "u0": 0}, "horizon": 10}))
    assert cli.main(["simulate", str(path), "--samples", "50"]) == cli.EXIT_OK
    shares = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(shares) == 50 and max(shares) <= 1e-150


@pytest.mark.parametrize("ident", ["feedback_power_1.5", "feedback_quadratic"])
def test_inversion_phi_budget(ident, tmp_path, monkeypatch, capsys):
    # The bracket search and the finite-difference root finder took about
    # 50 evaluations of phi per sample; the warm-started Newton iteration
    # takes fewer than two, and no quadrature or generic root finder.
    from test_golden import LONG_RUN_DOCS
    calls = {"phi": 0, "quadrature": 0, "solve_root": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fb, "_phi", counted("phi", fb._phi))
    for name in ("quadrature", "solve_root"):
        monkeypatch.setattr(numerics, name, counted(name, getattr(numerics, name)))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LONG_RUN_DOCS[ident]))
    assert cli.main(["simulate", str(path), "--samples", "1000"]) == cli.EXIT_OK
    capsys.readouterr()
    assert 0 < calls["phi"] <= 2000
    assert calls["quadrature"] == calls["solve_root"] == 0


def test_demand_near_saturation_keeps_its_digits():
    # D is proportional to 1 - u; from u rounded to a double it keeps only
    # about 1e-16 / (1 - u) of relative accuracy, so 1 - u is carried along.
    mpmath = pytest.importorskip("mpmath")
    m = fb.FeedbackModel.calibrated(fb.kernel("quadratic"), T50, 0.01)
    grid = [6.0, 6.2, 6.4]
    traj = fb.feedback_path(m, grid)
    with mpmath.workdps(40):
        u0 = mpmath.mpf(0.01)

        def phi(u):
            return mpmath.log(u * (1 - u0) / (u0 * (1 - u))) + 1 / u0 - 1 / u

        rate = phi(mpmath.mpf(0.5)) / T50
        for t, d in zip(grid, traj.channel("D")):
            # Solve in y = -log(1 - u), where phi is nearly linear.
            y = mpmath.findroot(lambda y: phi(1 - mpmath.exp(-y)) - rate * t, 20)
            rest = mpmath.exp(-y)
            assert rest < 1e-8
            assert d == pytest.approx(float(rate * rest * (1 - rest) ** 2), rel=1e-12, abs=0.0)


def test_power_overflow_is_a_parameter_error():
    # phi(1/2) from u0 = 0.01 exceeds the largest double between these two
    # exponents (mpmath: 1.7976931348621462e308 and 1.7976931348623812e308).
    below, above = 156.22063588244995, 156.22063588244998
    assert math.isfinite(fb.calibrate_rate(fb.kernel("power", n=below), T50, 0.01))
    for n in (above, 1e300):
        with pytest.raises(ParameterError, match="overflows"):
            fb.calibrate_rate(fb.kernel("power", n=n), T50, 0.01)
    with pytest.raises(ParameterError, match="overflows"):
        fb.t_of_u(fb.FeedbackModel(fb.kernel("power", n=1e300), 1.0, 0.6), 0.7)


def test_calibration_rejects_an_infinite_rate():
    with pytest.raises(ParameterError, match="not finite"):
        fb.calibrate_rate(fb.kernel("power", n=0.5), 5e-324, 0.0)


@pytest.mark.parametrize("kind", ["bass", "power"])
def test_calibration_rejects_a_negative_start(kind):
    kern = fb.kernel(kind, **({"ratio": 2.0} if kind == "bass" else {"n": 2.0}))
    with pytest.raises(ParameterError, match="u0"):
        fb.calibrate_rate(kern, T50, -1.0)


@pytest.mark.parametrize("kind", ["quadratic", "power", "inverse_u", "inverse_u_cutoff",
                                  "trend_linear_zero"])
def test_path_agrees_with_single_inversions(kind):
    # The warm start must not change where each root lands beyond rounding.
    kw = {"n": 1.5} if kind == "power" else ({"u1": 0.8} if kind == "inverse_u_cutoff" else {})
    m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, 0.01)
    grid = time_grid(0.0, 3 * T50, 61)
    for t, u in zip(grid, fb.feedback_path(m, grid).channel("u")):
        assert u == pytest.approx(reference.u_of_t(m, t), rel=1e-14)


@pytest.mark.parametrize("kind,u0", [
    ("none", 0.0), ("bass", 0.0), ("linear", 0.01), ("sqrt", 0.01),
    ("quadratic", 0.01), ("one_minus_u", 0.0), ("inverse_u", 0.01),
    ("trend_linear_zero", 0.01),
])
def test_growth_curves_match_rk4(kind, u0):
    kw = {"ratio": 3.0} if kind == "bass" else {}
    m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, u0)
    grid = time_grid(0.0, 5 * T50, 101)
    rows = numerics.sample_ivp(reference.feedback_field(m), [u0], grid)
    worst = max(abs(reference.u_of_t(m, t) - r[0]) for t, r in zip(grid, rows))
    assert worst <= 1e-6


@pytest.mark.parametrize("kind", ["sqrt", "inverse_u", "trend_linear_zero"])
def test_singular_start_curves_match_rk4_from_anchor(kind):
    # These kernels are not Lipschitz at u = 0, so the oracle is anchored
    # on the curve at a small positive share and integrated forward.
    m = make_model(kind)
    anchor = 0.01
    t1 = fb.t_of_u(m, anchor)
    grid = [t1] + [t for t in time_grid(0.0, 5 * T50, 101) if t > t1]
    rows = numerics.sample_ivp(reference.feedback_field(m), [anchor], grid)
    worst = max(abs(reference.u_of_t(m, t) - r[0]) for t, r in zip(grid[1:], rows[1:]))
    assert worst <= 1e-6


@given(st.sampled_from(sorted(CALIBRATED)), st.floats(0.02, 0.998))
def test_u_of_t_strictly_increasing(kind, u):
    kw = {"ratio": 3.0} if kind == "bass" else {}
    u0, _ = CALIBRATED[kind]
    m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, u0)
    if u <= u0:
        return
    t = fb.t_of_u(m, u)
    assert reference.u_of_t(m, t + 0.05) > reference.u_of_t(m, t)


# ---------------------------------------------------------------------------
# latency metrics
# ---------------------------------------------------------------------------

def test_latency_table_initial_share_dependence():
    expected = {0.001: 0.6819, 0.005: 0.5849, 0.01: 0.5218,
                0.02: 0.4354, 0.04: 0.3086}
    for u0, ratio in expected.items():
        m = fb.FeedbackModel.calibrated(fb.kernel("linear"), T50, u0)
        got = fb.latency_metrics(m)
        assert got.t10 / got.t50 == pytest.approx(ratio, abs=1e-4)


def test_inverse_u_latency_ratio():
    m = make_model("inverse_u")
    got = fb.latency_metrics(m)
    assert got.t10 / got.t50 == pytest.approx(0.02775, abs=1e-4)


def test_one_minus_u_latency_is_ninth():
    m = make_model("one_minus_u")
    got = fb.latency_metrics(m)
    assert got.t10 == pytest.approx(got.t50 / 9.0, rel=1e-12)


def test_latency_flag_when_already_reached():
    m = fb.FeedbackModel.calibrated(fb.kernel("linear"), T50, 0.2)
    got = fb.latency_metrics(m)
    assert got.t10 == 0.0 and got.t10_already_reached


def test_latency_ordering_across_kernels():
    order = [("trend_linear_zero", 0.0), ("inverse_u", 0.0), ("one_minus_u", 0.0),
             ("none", 0.0), ("sqrt", 0.0), ("linear", 0.01), ("quadratic", 0.01)]
    t10s = [fb.latency_metrics(fb.FeedbackModel.calibrated(fb.kernel(k), T50, u0)).t10
            for k, u0 in order]
    assert all(a < b for a, b in zip(t10s, t10s[1:]))


# ---------------------------------------------------------------------------
# inflection
# ---------------------------------------------------------------------------

def test_inflection_shares():
    assert fb.inflection(make_model("linear")).u == pytest.approx(0.5)
    assert fb.inflection(make_model("sqrt")).u == pytest.approx(1.0 / 3.0)
    assert fb.inflection(make_model("quadratic")).u == pytest.approx(2.0 / 3.0)
    m10 = fb.FeedbackModel.calibrated(fb.kernel("power", n=10.0), T50, 0.01)
    assert fb.inflection(m10).u == pytest.approx(10.0 / 11.0)


def test_sqrt_inflection_gradient():
    infl = fb.inflection(make_model("sqrt"))
    assert infl.gradient == pytest.approx(0.68 / T50, abs=1e-3)


def test_bass_inflection_threshold():
    assert fb.inflection(make_model("bass", ratio=1.0)) is None
    assert fb.inflection(make_model("bass", ratio=0.5)) is None
    infl = fb.inflection(make_model("bass", ratio=4.0))
    assert infl.u == pytest.approx(3.0 / 8.0)


def test_decaying_kernels_have_no_inflection():
    for kind in ("none", "one_minus_u", "inverse_u", "trend_linear_zero"):
        assert fb.inflection(make_model(kind)) is None


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 10.0])
def test_power_inflection_located_numerically(n):
    # Independent check: maximize the growth rate u^n (1-u) directly by
    # golden-section search; the peak share must sit at n/(n+1).
    lo, hi = 0.0, 1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def g(u):
        return u ** n * (1.0 - u)

    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    for _ in range(200):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = g(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = g(x1)
    located = 0.5 * (lo + hi)
    assert located == pytest.approx(n / (n + 1.0), abs=1e-6)


def test_inflection_time_matches_demand_argmax():
    for kind, u0 in (("linear", 0.01), ("sqrt", 0.0), ("quadratic", 0.01)):
        m = fb.FeedbackModel.calibrated(fb.kernel(kind), T50, u0)
        infl = fb.inflection(m)
        grid = time_grid(0.0, 3 * T50, 3001)
        u = [reference.u_of_t(m, t) for t in grid]
        diffs = [(u[i + 1] - u[i]) for i in range(len(u) - 1)]
        k = max(range(len(diffs)), key=lambda i: diffs[i])
        t_mid = 0.5 * (grid[k] + grid[k + 1])
        assert abs(t_mid - infl.t) <= grid[1] - grid[0]


def metric_names(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(path)]) == cli.EXIT_OK
    assert cli.main(["metrics", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.split("metric,value\n")[1].splitlines()
    return [line.split(",")[0] for line in lines if not line.startswith("note,")]


@pytest.mark.parametrize("n,names", [
    (2.0, ["rate"]),
    (4.0, ["rate", "u_inflection", "t_inflection", "gradient_at_inflection"]),
])
def test_start_past_half_market_keeps_the_metrics_it_has(n, names, tmp_path, capsys):
    # The latency times run from u0 to half the market; past it the rate and
    # an inflection share above u0 (n / (n + 1)) are all that is left.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "power", "n": n},
                     "rate": 1.0, "u0": 0.7}, "horizon": 10}
    assert metric_names(doc, tmp_path, capsys) == names


def test_quadratic_start_past_t10_has_no_catalog_variant(tmp_path, capsys):
    # The catalog's quadratic t(u) has no value at u = 0.1 once u0 >= 0.1.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "quadratic"},
                     "rate": 1.0, "u0": 0.2}, "horizon": 10}
    assert metric_names(doc, tmp_path, capsys) == [
        "rate", "T50", "T10", "T60_minus_T50",
        "u_inflection", "t_inflection", "gradient_at_inflection"]


# ---------------------------------------------------------------------------
# demand
# ---------------------------------------------------------------------------

def test_linear_initial_demand():
    # D(0) = N rate u0 (1 - u0) exactly (the derivative of the growth
    # curve); the shorthand N rate u0 is its small-u0 approximation.
    m = fb.FeedbackModel(fb.kernel("linear"), rate=0.9, u0=0.01, N=1000.0)
    d = fb.feedback_path(m, [0.0]).channel("D")[0]
    assert d == pytest.approx(1000.0 * 0.9 * 0.01 * (1 - 0.01), rel=1e-12)
    assert d == pytest.approx(1000.0 * 0.9 * 0.01, rel=0.011)


def test_no_feedback_demand_curve():
    m = fb.FeedbackModel(fb.kernel("none"), rate=0.25, u0=0.1, N=10.0)
    grid = time_grid(0.0, 10.0, 21)
    d = fb.feedback_path(m, grid).channel("D")
    for t, v in zip(grid, d):
        assert v == pytest.approx(0.25 * 10.0 * 0.9 * math.exp(-0.25 * t), rel=1e-12)


def test_quadratic_demand_matches_finite_difference():
    m = fb.FeedbackModel.calibrated(fb.kernel("quadratic"), T50, 0.01, N=1.0)
    d = fb.feedback_path(m, [2.0, 5.0, 7.0]).channel("D")
    h = 1e-5
    for t, v in zip((2.0, 5.0, 7.0), d):
        fd = (reference.u_of_t(m, t + h) - reference.u_of_t(m, t - h)) / (2 * h)
        assert v == pytest.approx(fd, abs=1e-5 * m.N * m.rate)


def test_closed_demand_matches_growth_everywhere():
    # D = N du/dt, with du/dt taken as a central difference of the closed-form u(t).
    h = 1e-5
    for kind, u0 in (("bass", 0.0), ("linear", 0.01), ("sqrt", 0.0), ("one_minus_u", 0.0)):
        kw = {"ratio": 2.0} if kind == "bass" else {}
        m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, u0, N=3.0)
        grid = time_grid(0.2 * T50, 2 * T50, 10)
        d = fb.feedback_path(m, grid).channel("D")
        for t, v in zip(grid, d):
            fd = m.N * (reference.u_of_t(m, t + h) - reference.u_of_t(m, t - h)) / (2 * h)
            assert v == pytest.approx(fd, rel=1e-7)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def classes(kind, **kw):
    return {(p.u, p.kind) for p in fb.classify_equilibria(fb.kernel(kind, **kw))}


def test_equilibria_catalog():
    assert classes("linear") == {(0.0, "repeller"), (1.0, "attractor")}
    assert classes("quadratic") == {(0.0, "repeller"), (1.0, "attractor")}
    assert classes("none") == {(1.0, "attractor")}
    assert classes("bass", ratio=2.0) == {(1.0, "attractor")}
    assert classes("sqrt") == {(0.0, "not_equilibrium"), (1.0, "attractor")}
    assert classes("power", n=0.5) == {(0.0, "not_equilibrium"), (1.0, "attractor")}
    assert classes("power", n=2.0) == {(0.0, "repeller"), (1.0, "attractor")}
    assert classes("one_minus_u") == {(1.0, "attractor")}
    assert classes("inverse_u") == {(1.0, "attractor")}
    assert classes("inverse_u_cutoff", u1=0.4) == {(0.4, "attractor")}


def mpmath_growth(kern, u):
    """(1 - u) F(u) in mpmath, where no power of u underflows."""
    mpmath = pytest.importorskip("mpmath")
    inv = mpmath.inf if u == 0 else 1 / u
    F = {"none": lambda: 1, "bass": lambda: 1 + kern.ratio * u, "linear": lambda: u,
         "sqrt": lambda: mpmath.sqrt(u), "quadratic": lambda: u * u,
         "power": lambda: u ** kern.n, "one_minus_u": lambda: 1 - u, "inverse_u": lambda: inv,
         "inverse_u_cutoff": lambda: 0 if u >= kern.u1 else inv,
         "trend_linear_zero": lambda: (1 - u) * inv}[kern.kind]
    return (1 - u) * F()


def probe_label(kern, root):
    """The sign rule on growth 1e-6 either side of a root, restricted to [0, 1]."""
    mpmath = pytest.importorskip("mpmath")
    r, d = mpmath.mpf(root), mpmath.mpf(1e-6)
    below = mpmath_growth(kern, r - d) if r - d >= 0 else None
    above = mpmath_growth(kern, r + d) if r + d <= 1 else None
    if below is None:
        return "repeller" if above > 0 else "attractor"
    if above is None:
        return "attractor" if below > 0 else "repeller"
    if below > 0 and above <= 0:
        return "attractor"
    if below < 0 and above >= 0:
        return "repeller"
    return "attractor" if below > 0 else "repeller"


_WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
ANY_KERNEL = st.one_of(
    st.sampled_from(["none", "linear", "sqrt", "quadratic", "one_minus_u", "inverse_u",
                     "trend_linear_zero"]).map(fb.kernel),
    st.one_of(_WIDE, st.floats(0.01, 100.0)).map(lambda r: fb.kernel("bass", ratio=r)),
    st.one_of(_WIDE, st.floats(0.01, 100.0), st.sampled_from([1.0, 54.0, 60.0, 1e300])).map(
        lambda n: fb.kernel("power", n=n)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
        lambda u1: fb.kernel("inverse_u_cutoff", u1=u1)))


@settings(max_examples=150, deadline=None)
@given(kern=ANY_KERNEL)
def test_equilibria_follow_the_growth_sign_near_each_root(kern):
    # The probe at +-1e-6, evaluated in doubles, underflowed for u^n at
    # large n and labelled u = 0 an attractor (n = 54) or u = 1 a repeller
    # (n = 1e300); in mpmath nothing underflows.
    mpmath = pytest.importorskip("mpmath")
    smooth_zero = kern.kind in ("linear", "quadratic") or (kern.kind == "power" and kern.n >= 1)
    rough_zero = kern.kind == "sqrt" or (kern.kind == "power" and kern.n < 1)
    limit = kern.u1 if kern.kind == "inverse_u_cutoff" else 1.0
    with mpmath.workdps(40):
        expected = ([(0.0, "not_equilibrium")] if rough_zero else []) + [
            (r, probe_label(kern, r)) for r in ([0.0] if smooth_zero else []) + [limit]]
    assert [(p.u, p.kind) for p in fb.classify_equilibria(kern)] == expected


@pytest.mark.parametrize("n", [54, 60, 1e300])
def test_cli_equilibrium_of_a_steep_power_kernel(n, tmp_path, capsys):
    # u^n underflowed beside the roots: u = 0 printed as an attractor at
    # n = 54 and 60, and u = 1 as a repeller at n = 1e300.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "power", "n": n}, "rate": 0.5,
                     "u0": 0.1}, "horizon": 5}
    code, rows = cli_rows("equilibrium", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert rows == [["quantity", "value"], ["u=0", "repeller"], ["u=1", "attractor"]]


# ---------------------------------------------------------------------------
# cutoff kernel
# ---------------------------------------------------------------------------

def test_cutoff_time_value():
    m = fb.FeedbackModel(fb.kernel("inverse_u_cutoff", u1=0.5), rate=1.0)
    assert fb.cutoff_time(m) == pytest.approx(0.1931, abs=5e-5)


def test_cutoff_path_freezes():
    m = fb.FeedbackModel(fb.kernel("inverse_u_cutoff", u1=0.5), rate=0.7)
    t1 = fb.cutoff_time(m)
    grid = time_grid(0.0, 6.0 * t1, 61)
    traj = fb.cutoff_path(m, grid)
    plain = fb.FeedbackModel(fb.kernel("inverse_u"), rate=0.7)
    for t, u in zip(grid, traj.channel("u")):
        if t < t1:
            assert u == pytest.approx(reference.u_of_t(plain, t), abs=1e-10)
        else:
            assert u == 0.5
    assert traj.channel("u")[-1] == 0.5


def test_cutoff_demand_zero_after_freeze():
    m = fb.FeedbackModel(fb.kernel("inverse_u_cutoff", u1=0.3), rate=1.0)
    t1 = fb.cutoff_time(m)
    traj = fb.cutoff_path(m, [0.5 * t1, 2.0 * t1, 4.0 * t1])
    assert traj.channel("D")[1] == 0.0
    assert traj.channel("D")[2] == 0.0


def test_cutoff_start_near_saturation_past_a_small_cutoff_answers_at_once(tmp_path, capsys):
    # phi(u1; u0) takes its small-share series only when both shares are
    # small; near u0 = 1 the series would need about 36 / (1 - u0) terms.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "inverse_u_cutoff", "u1": 0.05},
                     "rate": 1.0, "u0": 0.999999999}, "horizon": 10}
    assert metric_names(doc, tmp_path, capsys) == ["rate"]
    m = fb.FeedbackModel(fb.kernel("inverse_u_cutoff", u1=0.05), rate=1.0, u0=0.999999999)
    traj = fb.feedback_path(m, [0.0, 0.5, 2.0])
    assert traj.channel("u") == (0.999999999,) * 3
    assert traj.channel("D") == (0.0, 0.0, 0.0)


def test_cutoff_start_past_the_cutoff_stays_put():
    # F vanishes from u1 on, so a market that starts there never moves.
    m = fb.FeedbackModel(fb.kernel("inverse_u_cutoff", u1=0.3), rate=1.0, u0=0.6)
    traj = fb.feedback_path(m, [0.0, 0.5, 2.0])
    assert traj.channel("u") == (0.6, 0.6, 0.6)
    assert traj.channel("D") == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# latency metrics and shares at the ends of the double range
# ---------------------------------------------------------------------------

def cli_rows(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path)])
    return code, [line.split(",") for line in capsys.readouterr().out.splitlines()]


def test_t60_minus_t50_is_one_integral_not_a_difference_of_times(tmp_path, capsys):
    # At T50 = 1.7e308, T60 = phi(0.6; u0) / rate overflowed, and the
    # difference of the two times printed inf. It is
    # T50 ln(1.25) / ln(1.98), about 5.55329805e307.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": "none"}, "T50": 1.7e308,
                     "u0": 0.01}, "horizon": 10}
    code, rows = cli_rows("metrics", doc, tmp_path, capsys)
    assert code == cli.EXIT_OK
    values = {row[0]: float(row[1]) for row in rows[1:]}
    assert values["T60_minus_T50"] == pytest.approx(
        1.7e308 * math.log(1.25) / math.log(1.98), rel=1e-8)
    m = fb.FeedbackModel.calibrated(fb.kernel("quadratic"), T50, 0.01)
    gap = fb.t_of_u(m, 0.6) - fb.t_of_u(m, 0.5)
    assert fb.latency_metrics(m).t60_minus_t50 == pytest.approx(gap, rel=1e-12)
    cut = fb.FeedbackModel(fb.kernel("inverse_u_cutoff", u1=0.5), rate=1.0, u0=0.05)
    assert math.isnan(fb.latency_metrics(cut).t60_minus_t50)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("given_rate", [{"rate": 1.0}, {"T50": 5.0}], ids=["rate", "T50"])
@pytest.mark.parametrize("command", ["simulate", "metrics", "equilibrium"])
def test_a_subnormal_start_share_ends_in_an_exit_code(kind, given_rate, command, tmp_path,
                                                      capsys):
    # u0 (1 - u) underflowed to 0 in the growth integral's log-odds, and
    # both kernels ended in a ZeroDivisionError traceback.
    doc = {"model": {"kind": "feedback", "kernel": {"kind": kind}, "u0": 5e-324,
                     **given_rate}, "horizon": 10, "samples": 5}
    code, rows = cli_rows(command, doc, tmp_path, capsys)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERIC, cli.EXIT_CALIBRATION)
    if code == cli.EXIT_OK and command == "simulate":
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
    elif code == cli.EXIT_OK and command == "metrics":
        assert all(math.isfinite(float(row[1])) for row in rows[1:] if row[0] != "note")


def test_linear_kernel_from_a_subnormal_share():
    # phi(1/2; u0) = ln((1 - u0) / u0), about 744.44 at u0 = 5e-324.
    m = fb.FeedbackModel(fb.kernel("linear"), rate=1.0, u0=5e-324)
    assert fb.t_of_u(m, 0.5) == pytest.approx(-math.log(5e-324), rel=1e-15)
    quadratic = fb.FeedbackModel(fb.kernel("quadratic"), rate=1.0, u0=5e-324)
    with pytest.raises(DomainError):  # T50 is about 1/u0 = 2e323
        fb.t_of_u(quadratic, 0.5)
