"""Acceptance gate: one test per shipping criterion, stated tolerances.

Each check prints a single `acceptance <n>: PASS/FAIL` line (visible
with `pytest -s` or on failure) and asserts at exactly the documented
tolerance. Nothing here is loosened to force green. Two reference-table
entries cannot be met as printed, and their checks test what the source
does settle:

- Criterion 2, row u0 = 0.001: the table prints T10/T50 = 0.67, but the
  closed form ln(0.1(1-u0)/(0.9 u0)) / ln((1-u0)/u0) gives 0.681873
  (direct integration agrees to 1e-12), which rounds to 0.68. The other
  four rows are the two-decimal roundings of their exact values (0.5849,
  0.5218, 0.4354, 0.3086), so 0.67 is a slip of that row and no correct
  solver can print 0.67 +- 0.01. The check compares every row with the
  closed form and requires the table to note the slip with both values.
- Criterion 3, "nine months": exactly, T10 = ln(10/9)/ln(2) * T50 =
  0.7600155 y = 277.41 days = 9 months 3.66 days. Criterion 1 pins the
  same quantity at 0.760 +- 0.001 y (277.04-277.76 days), while 9 months
  +- 3 days is 270.75-276.75 days; the ranges do not overlap. "9 months"
  is rounded to the month, so it is checked at month precision, and the
  3-day allowance is centred on the exact value.
"""

import json
import math
import random
import subprocess
import sys

import pytest

import reference
from marketdyn import competition as comp
from marketdyn import feedback as fb
from marketdyn import games, monopoly as mono, numerics, scenario, tables
from marketdyn.trajectory import time_grid

T50 = 5.0
N = 1000.0


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {tag}: {detail}"


# ---------------------------------------------------------------------------
# 1. constant-rate constants
# ---------------------------------------------------------------------------

def test_criterion_01_constant_rate_constants():
    a = fb.calibrate_rate(fb.kernel("none"), T50)
    lat = mono.simple_latency(mono.SimpleAdoption(a=a))
    ok = abs(a - 0.1386) <= 1e-4 and abs(lat.t10 - 0.760) <= 1e-3
    report("1", ok, f"a={a:.6f} (0.1386 +- 1e-4), T10={lat.t10:.6f} (0.760 +- 1e-3)")


# ---------------------------------------------------------------------------
# 2. latency vs initial share (linear feedback)
# ---------------------------------------------------------------------------

def linear_t10_over_t50(u0):
    """T10/T50 of du/dt = a(1-u)u from u0, in closed form, without the library."""
    return math.log(0.1 * (1.0 - u0) / (0.9 * u0)) / math.log((1.0 - u0) / u0)


@pytest.mark.parametrize("u0,published", [
    (0.001, 0.67), (0.005, 0.58), (0.01, 0.52), (0.02, 0.44), (0.04, 0.31)])
def test_criterion_02_latency_u0_rows(u0, published):
    """Each row agrees with the closed form; the published value holds to
    +-0.01 where it can, and is noted beside the recomputed one where it
    cannot (u0 = 0.001: 0.67 printed, 0.681873 exact, which rounds to 0.68
    while the other rows round to 0.58, 0.52, 0.44 and 0.31 as printed)."""
    model = fb.FeedbackModel.calibrated(fb.kernel("linear"), T50, u0)
    ratio = fb.t_of_u(model, 0.1) / T50
    exact = linear_t10_over_t50(u0)
    row = {r.u0: r for r in tables.latency_u0_table(T50)}[u0]
    ok = abs(ratio - exact) <= 1e-9 and abs(row.ratio - ratio) <= 1e-12
    detail = f"u0={u0}: T10/T50={ratio:.6f}, closed form {exact:.6f} +- 1e-9"
    if abs(published - exact) <= 0.01:
        ok = ok and abs(ratio - published) <= 0.01 + 1e-12 and row.footnote is None
        detail += f"; table {published} +- 0.01, no note: {row.footnote!r}"
    else:
        note = row.footnote or ""
        ok = ok and f"{published:.2f}" in note and f"{exact:.2f}" in note
        detail += (f"; table {published} is off by more than 0.01, note must show "
                   f"{published:.2f} and {exact:.2f}: {row.footnote!r}")
    report(f"2[u0={u0}]", ok, detail)


# ---------------------------------------------------------------------------
# 3. latency vs feedback strength
# ---------------------------------------------------------------------------

def kernel_latency(kind, u0=0.0):
    model = fb.FeedbackModel.calibrated(fb.kernel(kind), T50, u0)
    return fb.latency_metrics(model).t10


def test_criterion_03_no_feedback_nine_months():
    """The source's "nine months" is rounded to the month. Exactly, T10 =
    ln(10/9)/ln(2) * T50 = 9 months 3.66 days at T50 = 5, which criterion 1
    pins at 0.760 +- 0.001 y, outside 9 months +- 3 days. So T10 must round
    to 9 months, the table row must read "9 months ...", and the 3 days are
    centred on the exact value."""
    t10 = kernel_latency("none")
    exact = math.log(10.0 / 9.0) / math.log(2.0) * T50
    tol = 3.0 / 365.0
    months = t10 * 12.0 * (5.0 / T50)  # months at T50 = 5 years
    shown = {r.label: r for r in tables.latency_kernels_table(T50)}["no feedback"]
    ok = (round(months) == 9 and shown.t10_formatted.startswith("9 months")
          and abs(t10 - exact) <= tol)
    detail = (f"T10={t10:.6f} y = {months:.3f} months (rounds to 9?), table "
              f"'{shown.t10_formatted}', exact {exact:.6f} y +- 3 days; "
              f"gap {abs(t10 - exact) * 365:.4f} days")
    report("3[no-feedback]", ok, detail)


def test_criterion_03_one_minus_u_exact_ninth():
    t10 = kernel_latency("one_minus_u")
    ok = abs(t10 - T50 / 9.0) <= 1e-12
    report("3[1-u]", ok, f"T10={t10!r} vs T50/9 exactly")


@pytest.mark.parametrize("kind,u0,target,tol", [
    ("inverse_u", 0.0, 0.0278, 0.0005),
    ("trend_linear_zero", 0.0, 0.0188, 0.0005),
    ("sqrt", 0.0, 0.372, 0.002),
    ("linear", 0.01, 0.52, 0.01),
])
def test_criterion_03_kernel_rows(kind, u0, target, tol):
    ratio = kernel_latency(kind, u0) / T50
    ok = abs(ratio - target) <= tol
    report(f"3[{kind}]", ok, f"T10/T50={ratio:.5f}, target {target} +- {tol}")


# ---------------------------------------------------------------------------
# 4. quadratic-kernel ledger
# ---------------------------------------------------------------------------

def test_criterion_04_quadratic_ledger():
    model = fb.FeedbackModel.calibrated(fb.kernel("quadratic"), T50, 0.01)
    grid = time_grid(0.0, 5 * T50, 501)
    rows = numerics.sample_ivp(reference.feedback_field(model), [0.01], grid)
    worst = 0.0
    for t, row in zip(grid[1:], rows[1:]):
        u = row[0]
        if u >= 1.0 - 1e-12:
            break
        worst = max(worst, abs(fb.t_of_u(model, u) - t) / max(t, 1e-6))
    ok_rk4 = worst <= 1e-4

    s = scenario.parse_scenario({
        "model": {"kind": "feedback", "kernel": {"kind": "quadratic"},
                  "T50": T50, "u0": 0.01}, "horizon": 25.0, "samples": 11})
    rendered = scenario.render_metrics(scenario.run_scenario(s))
    table_note = {r.label: r for r in tables.latency_kernels_table(T50)}["u^2"].footnote
    ok_both = ("0.88" in rendered and "0.90" in rendered
               and "0.88" in table_note and "0.90" in table_note)
    report("4", ok_rk4 and ok_both,
           f"t(u) vs direct integration rel err {worst:.2e} (<=1e-4); "
           f"report shows 0.88 and 0.90: {ok_both}")


# ---------------------------------------------------------------------------
# 5. innovator+imitator inflection against differenced demand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", [2.0, 5.0, 10.0])
def test_criterion_05_inflection_argmax(ratio):
    model = fb.FeedbackModel.calibrated(fb.kernel("bass", ratio=ratio), T50)
    a = model.rate
    gamma = ratio * a
    t_infl = math.log(gamma / a) / (gamma + a)
    assert fb.inflection(model).t == pytest.approx(t_infl, rel=1e-10)
    grid = time_grid(0.0, 5 * T50, 10000)
    u = [reference.u_of_t(model, t) for t in grid]
    diffs = [u[i + 1] - u[i] for i in range(len(u) - 1)]
    k = max(range(len(diffs)), key=lambda i: diffs[i])
    t_mid = 0.5 * (grid[k] + grid[k + 1])
    step = grid[1] - grid[0]
    ok = abs(t_mid - t_infl) <= step
    report(f"5[ratio={ratio:g}]", ok,
           f"t_infl={t_infl:.5f}, demand argmax={t_mid:.5f}, step={step:.5f}")


# ---------------------------------------------------------------------------
# 6. oracle suite: closed forms vs direct integration
# ---------------------------------------------------------------------------

def share_gap(kind, params, y0, index, grid, series):
    field = reference.monopoly_field(kind, params)
    rows = numerics.sample_ivp(field, y0, grid)
    return max(abs(a - r[index]) for a, r in zip(series, rows))


def test_criterion_06_monopoly_closed_forms():
    grid = time_grid(0.0, 25.0, 101)
    gaps = {}
    m = mono.SimpleAdoption(a=math.log(2) / 5, u0=0.1)
    gaps["simple"] = share_gap("simple", m, [m.u0], 0, grid,
                               mono.simple_path(m, grid).channel("u"))
    for name, sched in (("linear-rate", mono.LinearRate(0.1, 0.05)),
                        ("exp-decay", mono.ExpDecayRate(0.8, 0.3)),
                        ("tabulated", mono.TabulatedRate(((0.0, 0.1), (2.0, 0.5), (5.0, 0.2))))):
        series = mono.scheduled_path(sched, 0.0, grid).channel("u")
        gaps[name] = share_gap("scheduled", sched, [0.0], 0, grid, series)
    # The cutoff rate is discontinuous at T, so the oracle runs on the
    # smooth piece and the frozen tail is checked exactly.
    sched = mono.CutoffRate(0.4, 3.0)
    pre = [t for t in grid if t <= 3.0]
    series = mono.scheduled_path(sched, 0.0, pre).channel("u")
    gaps["cutoff[0,T]"] = share_gap("scheduled", sched, [0.0], 0, pre, series)
    frozen = 1.0 - math.exp(-0.4 * 3.0)
    post = mono.scheduled_path(sched, 0.0, [t for t in grid if t > 3.0]).channel("u")
    gaps["cutoff(T,inf)"] = max(abs(u - frozen) for u in post)

    segs = [mono.Segment(0.5, mono.ConstantRate(1.0)), mono.Segment(0.5, mono.ConstantRate(2.0))]
    seg_series = mono.segmented_path(segs, 1.0, grid).channel("u")
    field = reference.monopoly_field("segmented", segs)
    rows = numerics.sample_ivp(field, [0.0, 0.0], grid)
    gaps["segmented"] = max(abs(a - (r[0] + r[1])) for a, r in zip(seg_series, rows))

    for name, params in (("hesitation-absorbing",
                          mono.HesitationParams(1.0, 1.0, 1.0, "absorbing_hesitation")),
                         ("hesitation-returning",
                          mono.HesitationParams(1.0, 1.0, 1.0, "returning_hesitation")),
                         ("hesitation-confluent",
                          mono.HesitationParams(1.0, 1.0, 2.0, "absorbing_hesitation"))):
        series = mono.hesitation_path(params, grid).channel("u")
        gaps[name] = share_gap("hesitation", params, [1.0, 0.0, 0.0], 2, grid, series)

    bd = mono.BirthDeathParams(1.0, 0.1, 0.2, 0.05)
    gaps["birth-death"] = share_gap("birth_death", bd, [1.0, 0.0], 1, grid,
                                    mono.birth_death_path(bd, grid).channel("u"))

    worst = max(gaps.values())
    ok = worst <= 1e-6
    report("6[monopoly]", ok,
           "max |closed - integrated| = "
           + ", ".join(f"{k}:{v:.1e}" for k, v in gaps.items()))


FEEDBACK_INSTANCES = [
    ("none", 0.0), ("bass", 0.0), ("linear", 0.01), ("sqrt", 0.0),
    ("quadratic", 0.01), ("one_minus_u", 0.0), ("inverse_u", 0.0),
    ("trend_linear_zero", 0.0),
]


def test_criterion_06_feedback_kernels():
    gaps = {}
    for kind, u0 in FEEDBACK_INSTANCES:
        kw = {"ratio": 3.0} if kind == "bass" else {}
        m = fb.FeedbackModel.calibrated(fb.kernel(kind, **kw), T50, u0)
        grid = time_grid(0.0, 5 * T50, 101)
        if kind in ("sqrt", "inverse_u", "trend_linear_zero") and u0 == 0.0:
            # Not Lipschitz at zero share: anchor the integration on the
            # curve at u = 0.01 and verify the rest of the horizon.
            t1 = fb.t_of_u(m, 0.01)
            anchored = [t1] + [t for t in grid if t > t1]
            rows = numerics.sample_ivp(reference.feedback_field(m), [0.01], anchored)
            gaps[kind] = max(abs(reference.u_of_t(m, t) - r[0])
                             for t, r in zip(anchored[1:], rows[1:]))
        else:
            rows = numerics.sample_ivp(reference.feedback_field(m), [u0], grid)
            gaps[kind] = max(abs(reference.u_of_t(m, t) - r[0])
                             for t, r in zip(grid, rows))
    worst = max(gaps.values())
    report("6[feedback]", worst <= 1e-6,
           "max |closed - integrated| = "
           + ", ".join(f"{k}:{v:.1e}" for k, v in gaps.items()))


def game_rk4_gap(case, grid, channels=("B", "P", "Q")):
    traj = games.bpq_path(case, grid)
    init = case.initial
    rows = numerics.sample_ivp(reference.bpq_field(case), [init.B, init.P, init.Q], grid)
    worst = 0.0
    for ch, idx in zip(("B", "P", "Q"), range(3)):
        if ch in channels:
            worst = max(worst, max(abs(a - r[idx])
                                   for a, r in zip(traj.channel(ch), rows)))
    return worst


def test_criterion_06_game_closed_forms():
    grid30 = time_grid(0.0, 30.0, 121)
    grid10 = time_grid(0.0, 10.0, 101)
    tight, loose = {}, {}
    tight["case1-constants"] = game_rk4_gap(games.Case1(a=0.7, b=0.5, c=0.1, N=N), grid30)
    tight["case1-confluent"] = game_rk4_gap(games.Case1(a=0.7, b=0.8, c=0.1, N=N), grid30)
    tight["case1-a-linear"] = game_rk4_gap(
        games.Case1(a=mono.LinearRate(0.5, 0.2), b=1.0, c=0.0, N=N), grid10)
    loose["case1-b-linear"] = game_rk4_gap(
        games.Case1(a=0.4, b=mono.LinearRate(0.2, 0.15), c=0.0, N=N), grid10)
    loose["case2"] = game_rk4_gap(games.Case2(beta=0.002, b=0.5, N=N, P0=10.0), grid30)
    loose["case4"] = game_rk4_gap(
        games.Case4(beta=0.002, gamma=0.003, N=N, P0=10.0, Q0=10.0), grid30)
    loose["case5"] = game_rk4_gap(games.Case5(a=0.2, gamma=0.004, N=N, Q0=10.0), grid30)

    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=0.9, tau=1.0, N=N)
    grid20 = time_grid(0.0, 20.0, 101)
    traj = games.complementary_path(spec, grid20)
    nc = spec.companion_population
    bc0 = nc * math.exp(-spec.a_c * spec.tau)
    pc0 = reference.companion_players(spec, 0.0)
    rows = numerics.sample_ivp(reference.complementary_field(spec),
                                   [N, 0.0, 0.0, bc0, pc0, nc - bc0 - pc0], grid20)
    loose["complementary"] = max(
        max(abs(a - r[i]) for a, r in zip(traj.channel(ch), rows))
        for i, ch in enumerate(("B", "P", "Q")))

    ok = max(tight.values()) <= 1e-6 * N and max(loose.values()) <= 1e-5 * N
    report("6[games]", ok,
           "closed vs integrated: "
           + ", ".join(f"{k}:{v:.1e}" for k, v in {**tight, **loose}.items())
           + f" (tight<= {1e-6 * N:.0e}, quadrature-backed <= {1e-5 * N:.0e})")


# ---------------------------------------------------------------------------
# 7. churn equilibria via cofactors
# ---------------------------------------------------------------------------

def test_criterion_07_churn_equilibria():
    rng = random.Random(20260809)
    worst_residual = 0.0
    worst_sum = 0.0
    worst_pair = 0.0
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        c = comp.ChurnMatrix.from_rows(
            [[0.0 if i == j else rng.uniform(0.05, 3.0) for j in range(n)]
             for i in range(n)])
        u = reference.spontaneous_equilibrium_cofactor(c)
        flows = comp.resolve_churn_flows(c)(0.0, u)
        worst_residual = max(worst_residual, max(abs(f) for f in flows))
        worst_sum = max(worst_sum, abs(math.fsum(u) - 1.0))
        if n == 2:
            a12, a21 = c.a[0][1], c.a[1][0]
            worst_pair = max(worst_pair,
                             abs(u[0] - a21 / (a12 + a21)),
                             abs(u[1] - a12 / (a12 + a21)))
    ok = worst_residual <= 1e-10 and worst_sum <= 1e-12 and worst_pair <= 1e-14
    report("7", ok, f"max|C_i|={worst_residual:.2e}, max|sum-1|={worst_sum:.2e}, "
                    f"two-supplier gap {worst_pair:.2e}")


# ---------------------------------------------------------------------------
# 8. churn dynamics
# ---------------------------------------------------------------------------

def test_criterion_08_churn_dynamics():
    a12, a21 = 0.3, 0.5
    m = (1.0, 0.8)
    c = comp.ChurnMatrix.from_rows([[0.0, a12], [a21, 0.0]])
    eq = comp.spontaneous_equilibrium(c)
    horizon = 20.0 / (a12 + a21)
    path = comp.spontaneous_path(m, c, [0.0, horizon])
    gap_exp = max(abs(path.channel("u1")[-1] - eq[0]),
                  abs(path.channel("u2")[-1] - eq[1]))
    market = comp.BassCompetition(m=m, r=(0.0, 0.0), u0=(0.0, 0.0))
    numeric = comp.competitive_path_numeric(market, c, time_grid(0.0, horizon, 26))
    gap_num = max(abs(numeric.channel("u1")[-1] - eq[0]),
                  abs(numeric.channel("u2")[-1] - eq[1]))

    t_formula = comp.two_supplier_peak_time(m[0], m[1], a21)
    grid = time_grid(0.0, 25.0, 10001)
    one_way = comp.two_supplier_spontaneous_path(m[0], m[1], 0.0, a21, grid)
    u2 = one_way.channel("u2")
    k = max(range(len(u2)), key=lambda i: u2[i])
    step = grid[1] - grid[0]
    ok = gap_exp <= 1e-6 and gap_num <= 1e-6 and abs(grid[k] - t_formula) <= step
    report("8", ok, f"|u(20/s0) - eq| = {max(gap_exp, gap_num):.2e} (<=1e-6); "
                    f"one-way peak at {grid[k]:.5f} vs formula {t_formula:.5f} "
                    f"(step {step:.5f})")


# ---------------------------------------------------------------------------
# 9. periodic churn
# ---------------------------------------------------------------------------

def periodic_instance(amp12, amp21, phase12, phase21):
    return comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(amp12, 1.0, phase12),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(amp21, 1.0, phase21),))))


@pytest.mark.parametrize("label,spec", [
    ("max-amplitude", periodic_instance(0.5, 0.5, 0.0, 0.0)),
    ("asymmetric", periodic_instance(0.10, 0.15, 0.3, 1.1)),
])
def test_criterion_09_periodic_churn(label, spec):
    s0 = 2.0
    mean = 0.5
    grid = time_grid(0.0, 11.0, 2201)
    traj = comp.periodic_two_supplier_path(spec, 0.2, grid)
    u1 = traj.channel("u1")
    idx = [i for i, t in enumerate(grid) if t >= 20.0 / s0]
    avg = math.fsum((u1[idx[i]] + u1[idx[i + 1]]) * 0.5 * (grid[idx[i + 1]] - grid[idx[i]])
                    for i in range(len(idx) - 1))
    decaying = traj.channel("decaying")
    dec_at = abs(decaying[idx[0]])
    ok = abs(avg - mean) <= 1e-3 and dec_at <= 1e-6
    report(f"9[{label}]", ok,
           f"late-period <u1> - mean = {avg - mean:+.2e} (<=1e-3); "
           f"|decaying(20/s0)| = {dec_at:.2e} (<=1e-6)")


# ---------------------------------------------------------------------------
# 10. stimulated churn
# ---------------------------------------------------------------------------

def test_criterion_10_stimulated_roots():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        b=(2.0, 0.0), eps=(1, 1))
    fp = comp.stimulated_fixed_point(spec)
    u1, u2 = fp.u
    residual = abs(2.0 * u1 * u2 + u2 - u1)
    in_range = 0.0 < u1 <= 1.0

    one_way = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 0.0], [0.8, 0.0]]),
        b=(1.5, 0.0), eps=(1, 1))
    u1_monopoly = comp.stimulated_fixed_point(one_way).u[0]

    rng = random.Random(42)
    all_in_range = True
    for _ in range(10):
        c = comp.ChurnMatrix.from_rows(
            [[0.0, rng.uniform(0.1, 2.0)], [rng.uniform(0.1, 2.0), 0.0]])
        mixed = comp.StimulatedChurnSpec(
            churn=c, b=(rng.uniform(0, 3), rng.uniform(0, 3)), eps=(1, 1))
        root = comp.stimulated_fixed_point(mixed).u[0]
        all_in_range = all_in_range and 0.0 < root <= 1.0

    ok = residual <= 1e-12 and in_range and abs(u1_monopoly - 1.0) <= 1e-12 and all_in_range
    report("10[roots]", ok,
           f"|C1(root)|={residual:.2e} (<=1e-12), one-way u1={u1_monopoly!r}, "
           f"10 random mixed roots in (0,1]: {all_in_range}")


def test_criterion_10_winner_take_all_basin():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        b=(3.0, 2.0, 1.0), eps=(0, 0, 0))
    rng = random.Random(20260809)
    worst_off = 0.0
    for _ in range(20):
        w = [-math.log(rng.random()) for _ in range(3)]
        total = sum(w)
        u0 = tuple(max(0.02, v / total) for v in w)
        norm = sum(u0)
        u0 = tuple(v / norm for v in u0)
        market = comp.BassCompetition(m=(0.0, 0.0, 0.0), r=(1.0, 1.0, 1.0), u0=u0)
        traj = comp.competitive_path_numeric(market, spec, [0.0, 30.0])
        worst_off = max(worst_off, 1.0 - max(traj.final()))
    ok = worst_off <= 1e-4
    report("10[basin]", ok,
           f"20 interior starts, max off-vertex mass {worst_off:.2e} (<=1e-4)")


# ---------------------------------------------------------------------------
# 11. player-stimulated game (epidemic equivalence)
# ---------------------------------------------------------------------------

def test_criterion_11_sir():
    case = games.Case2(beta=0.002, b=0.5, N=N, P0=10.0)
    rel = games.sir_relations(case)
    grid = time_grid(0.0, 30.0, 10001)
    traj = games.bpq_path(case, grid)
    p = traj.channel("P")
    b = traj.channel("B")
    k = max(range(len(p)), key=lambda i: p[i])
    step = grid[1] - grid[0]
    # Time at which B crosses b/beta, interpolated on the path.
    level = case.b / case.beta
    t_cross = None
    for i in range(len(b) - 1):
        if b[i] >= level >= b[i + 1]:
            w = (b[i] - level) / (b[i] - b[i + 1])
            t_cross = grid[i] + w * step
            break
    ok_peak = t_cross is not None and abs(t_cross - grid[k]) <= step

    long_rows = numerics.sample_ivp(reference.bpq_field(case),
                                        [case.B0, case.P0, case.Q0],
                                        [0.0, 50.0 / case.b])
    gap_binf = abs(long_rows[-1][0] - rel.B_inf)
    gap_ptm = abs(max(p) - rel.P_Tm)
    ok = ok_peak and gap_binf <= 1e-4 * N and gap_ptm <= 1e-5 * N
    report("11", ok,
           f"B=b/beta crossing at {t_cross:.5f} vs argmax {grid[k]:.5f} "
           f"(step {step:.5f}); |B(50/b)-B_inf|={gap_binf:.2e} (<=0.1); "
           f"|P_Tm - grid max|={gap_ptm:.2e} (<=0.01)")


# ---------------------------------------------------------------------------
# 12. conservation in every game case
# ---------------------------------------------------------------------------

def test_criterion_12_games_conservation():
    cases = [
        games.Case1(a=0.7, b=0.5, c=0.1, N=N),
        games.Case1(a=0.7, b=0.8, c=0.1, N=N),
        games.Case1(a=mono.LinearRate(0.5, 0.2), b=1.0, c=0.0, N=N),
        games.Case1(a=0.4, b=mono.LinearRate(0.2, 0.15), c=0.0, N=N),
        games.Case1(a=mono.ExpDecayRate(0.5, 0.1), b=mono.LinearRate(0.3, 0.05),
                    c=0.1, N=N),
        games.Case2(beta=0.002, b=0.5, N=N, P0=10.0),
        games.Case3(a=0.1, beta=0.001, b=0.8, N=N),
        games.Case4(beta=0.002, gamma=0.003, N=N, P0=10.0, Q0=10.0),
        games.Case5(a=0.2, gamma=0.004, N=N, Q0=10.0),
        games.Case6(a=0.3, b=0.2, gamma=0.001, N=N),
    ]
    grid = time_grid(0.0, 30.0, 301)
    worst = 0.0
    for case in cases:
        traj = games.bpq_path(case, grid)
        worst = max(worst, max(abs(x + y + z - N) for x, y, z in
                               zip(traj.channel("B"), traj.channel("P"),
                                   traj.channel("Q"))))
    spec = games.ComplementarySpec(g=0.0005, b=0.5, a_c=0.4, b_c=0.9, tau=1.0, N=N)
    traj = games.complementary_path(spec, time_grid(0.0, 20.0, 201))
    worst = max(worst, max(abs(x + y + z - N) for x, y, z in
                           zip(traj.channel("B"), traj.channel("P"),
                               traj.channel("Q"))))
    ok = worst <= 1e-9 * N
    report("12", ok, f"max |B+P+Q-N| = {worst:.2e} (<= {1e-9 * N:.0e})")


# ---------------------------------------------------------------------------
# 13. externally driven game calibration
# ---------------------------------------------------------------------------

def test_criterion_13_case1_calibration():
    value = games.calibrate_case1(1.0, 2.0)
    ok = abs(value - 1.386) <= 1e-3
    report("13", ok, f"a+c = {value:.6f} vs 1.386 +- 0.001 (ln 4)")


# ---------------------------------------------------------------------------
# 14. byte-identical CSV
# ---------------------------------------------------------------------------

def test_criterion_14_determinism(tmp_path):
    doc = {"model": {"kind": "bpq", "case": "case2", "beta": 0.002, "b": 0.5,
                     "N": 1000.0, "P0": 10.0}, "horizon": 30.0, "samples": 200}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for jobs in ("1", "4"):
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "marketdyn", "simulate", str(path),
                 "--jobs", jobs], capture_output=True)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
    ok = all(o == outputs[0] for o in outputs) and outputs[0].startswith(b"t,B,P,Q,D,C\n")
    report("14", ok, f"6 runs (3x --jobs 1, 3x --jobs 4), "
                     f"{len(set(outputs))} distinct byte streams")
