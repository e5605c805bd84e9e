"""Multi-supplier markets: fixed points, churn equilibria, dynamics."""

import math
import random
import sys
import threading
import time

import pytest
from hypothesis import assume, given, strategies as st

import reference
from marketdyn import competition as comp, numerics
from marketdyn.errors import (
    DegenerateMarketError,
    InconsistentSpecError,
    IntegrationInvariantError,
    ParameterError,
)
from marketdyn.trajectory import time_grid


def random_churn(rng, n):
    return comp.ChurnMatrix.from_rows(
        [[0.0 if i == j else rng.uniform(0.05, 2.5) for j in range(n)]
         for i in range(n)])


# ---------------------------------------------------------------------------
# markets without churning
# ---------------------------------------------------------------------------

def test_all_innovator_split():
    market = comp.BassCompetition(m=(1.0, 3.0), r=(0.0, 0.0), u0=(0.0, 0.0))
    assert comp.fixed_point_no_churn(market) == [0.25, 0.75]


def test_single_supplier_takes_all():
    market = comp.BassCompetition(m=(0.7,), r=(0.4,), u0=(0.0,))
    assert comp.fixed_point_no_churn(market) == pytest.approx([1.0], abs=1e-12)


def test_symmetric_market_splits_evenly():
    market = comp.BassCompetition(m=(0.5, 0.5), r=(1.2, 1.2), u0=(0.03, 0.03))
    fp = comp.fixed_point_no_churn(market)
    assert fp[0] == pytest.approx(0.5, abs=1e-12)
    assert fp[1] == pytest.approx(0.5, abs=1e-12)


def test_general_fixed_point_sums_to_one_and_attracts():
    market = comp.BassCompetition(m=(0.5, 0.2, 0.1), r=(0.8, 1.5, 1.1),
                                  u0=(0.02, 0.05, 0.01))
    fp = comp.fixed_point_no_churn(market)
    assert math.fsum(fp) == pytest.approx(1.0, abs=1e-10)
    traj = comp.competitive_path_numeric(market, None, time_grid(0.0, 80.0, 81))
    for i, v in enumerate(fp):
        assert traj.channel(f"u{i + 1}")[-1] == pytest.approx(v, abs=1e-6)


def test_all_imitator_fixed_point():
    market = comp.BassCompetition(m=(0.0, 0.0), r=(1.0, 2.0), u0=(0.05, 0.02))
    fp = comp.fixed_point_no_churn(market)
    assert math.fsum(fp) == pytest.approx(1.0, abs=1e-10)
    # First integral: u2 = u2_0 (u1/u1_0)^(r2/r1).
    assert fp[1] == pytest.approx(0.02 * (fp[0] / 0.05) ** 2.0, rel=1e-9)


def test_innovators_only_closed_path():
    grid = time_grid(0.0, 20.0, 41)
    traj = comp.innovators_only_path((1.0, 3.0), grid)
    total = 4.0
    for t, u1, u2 in zip(grid, traj.channel("u1"), traj.channel("u2")):
        fill = 1.0 - math.exp(-total * t)
        assert u1 == pytest.approx(0.25 * fill, rel=1e-12, abs=1e-15)
        assert u2 == pytest.approx(0.75 * fill, rel=1e-12, abs=1e-15)
    assert traj.channel("u1")[-1] == pytest.approx(0.25, abs=1e-9)


def test_no_churn_shares_never_decrease():
    market = comp.BassCompetition(m=(0.4, 0.1), r=(0.5, 1.8), u0=(0.02, 0.02))
    traj = comp.competitive_path_numeric(market, None, time_grid(0.0, 40.0, 201))
    for ch in ("u1", "u2"):
        u = traj.channel(ch)
        assert all(b >= a - 1e-12 for a, b in zip(u, u[1:]))


# ---------------------------------------------------------------------------
# spontaneous churning: equilibria
# ---------------------------------------------------------------------------

def test_uniform_rates_share_evenly():
    for n in (2, 3, 5):
        c = comp.ChurnMatrix.from_rows(
            [[0.0 if i == j else 0.7 for j in range(n)] for i in range(n)])
        eq = comp.spontaneous_equilibrium(c)
        assert eq == pytest.approx([1.0 / n] * n, abs=1e-12)


def test_two_supplier_equilibrium_exact_form():
    c = comp.ChurnMatrix.from_rows([[0.0, 0.3], [0.5, 0.0]])
    eq = comp.spontaneous_equilibrium(c)
    assert eq[0] == pytest.approx(0.5 / 0.8, rel=1e-14)
    assert eq[1] == pytest.approx(0.3 / 0.8, rel=1e-14)


def test_supplier_without_inflow_dies():
    # No one ever switches *to* supplier 2.
    c = comp.ChurnMatrix.from_rows([[0.0, 0.0, 0.4], [0.6, 0.0, 0.2], [0.3, 0.0, 0.0]])
    eq = comp.spontaneous_equilibrium(c)
    assert eq[1] == pytest.approx(0.0, abs=1e-14)


def test_cofactor_route_agrees_with_solver():
    rng = random.Random(99)
    for n in (2, 3, 4, 5):
        c = random_churn(rng, n)
        direct = comp.spontaneous_equilibrium(c)
        cof = reference.spontaneous_equilibrium_cofactor(c)
        assert direct == pytest.approx(cof, abs=1e-10)


def test_equilibrium_scaling_invariance():
    # The balance conditions are homogeneous in the rates, so a uniform
    # scaling leaves the shares untouched. Power-of-two factors commute
    # exactly with every elimination step, giving bitwise equality;
    # other factors agree to rounding.
    # Up-scaling keeps the pivot ordering, so the power-of-two factors
    # reproduce the elimination arithmetic exactly; down-scaling can
    # promote the unit row to pivot and shift the result by an ulp.
    c = comp.ChurnMatrix.from_rows([[0.0, 0.25, 1.5], [0.5, 0.0, 2.0], [0.75, 1.25, 0.0]])
    base = comp.spontaneous_equilibrium(c)

    def scaled(factor):
        return comp.ChurnMatrix.from_rows([[factor * v for v in row] for row in c.a])

    for factor in (2.0, 4.0):
        assert comp.spontaneous_equilibrium(scaled(factor)) == base
    for factor in (0.5, 3.0):
        assert comp.spontaneous_equilibrium(scaled(factor)) == pytest.approx(base, rel=5e-15)
    assert reference.spontaneous_equilibrium_cofactor(scaled(3.0)) == pytest.approx(
        reference.spontaneous_equilibrium_cofactor(c), rel=5e-15)


def test_degenerate_market_detected():
    c = comp.ChurnMatrix.from_rows(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.3, 0.0]])
    with pytest.raises(DegenerateMarketError):
        comp.spontaneous_equilibrium(c)


@given(st.integers(0, 50))
def test_churn_flows_sum_to_zero(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    c = random_churn(rng, n)
    u = [rng.uniform(0.0, 1.0) for _ in range(n)]
    flows = comp.market_field(None, c)(0.0, u)
    assert abs(math.fsum(flows)) <= 1e-12 * max(1.0, math.fsum(abs(f) for f in flows))
    spec = comp.StimulatedChurnSpec(churn=c, b=tuple(rng.uniform(0, 2) for _ in range(n)),
                                    eps=tuple(1 for _ in range(n)))
    flows = comp.market_field(None, spec)(0.0, u)
    assert abs(math.fsum(flows)) <= 1e-12 * max(1.0, math.fsum(abs(f) for f in flows))
    periodic = comp.PeriodicChurnSpec(
        a0=c, eps=(comp.PairModulation(0, 1, (comp.Sinusoid(
            0.5 * c.a[0][1], rng.uniform(0.5, 2.0), rng.uniform(0, 6)),)),))
    flows = comp.market_field(None, periodic)(rng.uniform(0, 10), u)
    assert abs(math.fsum(flows)) <= 1e-12 * max(1.0, math.fsum(abs(f) for f in flows))


def reference_flows(churn, t, u):
    """C_i written out from the definitions, one fsum per supplier in ascending j."""
    n = churn.n
    if isinstance(churn, comp.ChurnMatrix):
        a = churn.a
        return [math.fsum(a[j][i] * u[j] - a[i][j] * u[i] for j in range(n) if j != i)
                for i in range(n)]
    if isinstance(churn, comp.StimulatedChurnSpec):
        a, b, eps = churn.churn.a, churn.b, churn.eps
        return [math.fsum(a[j][i] * u[j] * (b[i] * u[i] + eps[i])
                          - a[i][j] * u[i] * (b[j] * u[j] + eps[j])
                          for j in range(n) if j != i)
                for i in range(n)]

    def rate(i, j):
        return reference.periodic_rate(churn, i, j, t)

    return [math.fsum(rate(j, i) * u[j] - rate(i, j) * u[i] for j in range(n) if j != i)
            for i in range(n)]


@st.composite
def churn_specs(draw, kinds=("spontaneous", "stimulated", "periodic"), min_mods=0):
    n = draw(st.integers(2 if min_mods else 1, 5))
    a = [[0.0 if i == j else draw(st.floats(0.0, 3.0)) for j in range(n)] for i in range(n)]
    matrix = comp.ChurnMatrix.from_rows(a)
    kind = draw(st.sampled_from(kinds))
    if kind == "spontaneous":
        return matrix
    if kind == "stimulated":
        b = tuple(draw(st.floats(0.0, 2.0)) for _ in range(n))
        eps = tuple(draw(st.sampled_from((0, 1))) for _ in range(n))
        assume(any(b) or any(eps))
        return comp.StimulatedChurnSpec(churn=matrix, b=b, eps=eps)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mods = []
    # One pair may carry several modulations; a one-supplier market has no pair.
    for _ in range(draw(st.integers(min_mods, 4)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        k = draw(st.integers(1, 3))
        mods.append(comp.PairModulation(i, j, tuple(
            comp.Sinusoid(draw(st.floats(0.0, 1.0)) * a[i][j] / k, draw(st.floats(0.1, 5.0)),
                          draw(st.floats(0.0, 6.3)))
            for _ in range(k))))
    return comp.PeriodicChurnSpec(a0=matrix, eps=tuple(mods))


@given(churn_specs(), st.data())
def test_resolved_flows_match_the_definition_bit_for_bit(churn, data):
    flows = comp.market_field(None, churn)
    for _ in range(3):
        t = data.draw(st.floats(0.0, 50.0))
        u = data.draw(st.lists(st.floats(0.0, 1.0), min_size=churn.n, max_size=churn.n))
        expected = [v.hex() for v in reference_flows(churn, t, u)]
        assert [v.hex() for v in flows(t, u)] == expected


def reference_market_field(market, churn, t, u):
    """du_i/dt from the definitions: (1 - sum u)(m_i + r_i u_i), plus C_i with churn."""
    vacancy = 1.0 - math.fsum(u)
    bass = [vacancy * (mi + ri * ui) for mi, ri, ui in zip(market.m, market.r, u)]
    if churn is None:
        return bass
    return [g + c for g, c in zip(bass, reference_flows(churn, t, u))]


@given(st.one_of(st.none(), churn_specs(), churn_specs(("periodic",), min_mods=3)), st.data())
def test_market_field_matches_the_definition_bit_for_bit(churn, data):
    # The written-out field of every shape, with and without churn, several
    # modulated pairs and several terms per pair among them.
    n = churn.n if churn is not None else data.draw(st.integers(1, 5))
    coefficients = st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)
    m, r = data.draw(coefficients), data.draw(coefficients)
    assume(all(mi + ri > 0 for mi, ri in zip(m, r)))
    market = comp.BassCompetition(m=tuple(m), r=tuple(r), u0=(0.0,) * n)
    field = comp.market_field(market, churn)
    for _ in range(3):
        t = data.draw(st.floats(0.0, 50.0))
        u = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        expected = [v.hex() for v in reference_market_field(market, churn, t, u)]
        assert [v.hex() for v in field(t, u)] == expected


def test_churn_fields_are_built_once_per_shape(monkeypatch):
    # The shape, not the values, selects the written-out field.
    built = []
    source = comp._churn_field_source
    monkeypatch.setattr(comp, "_churn_field_source",
                        lambda *shape: built.append(shape) or source(*shape))
    monkeypatch.setattr(comp, "_CHURN_FIELDS", {})
    rng = random.Random(5)
    for _ in range(3):
        c = random_churn(rng, 3)
        comp.market_field(None, c)
        comp.market_field(None, comp.PeriodicChurnSpec(a0=c, eps=(comp.PairModulation(
            2, 0, (comp.Sinusoid(0.5 * c.a[2][0], rng.uniform(1.0, 2.0)),)),)))
    assert built == [(3, "linear", False, ()), (3, "linear", False, (((2, 0), (1,)),))]


def test_churn_field_threads_share_one_build(monkeypatch):
    # Library callers may solve on threads: threads that meet the same field
    # shape at once must build it once and integrate the same rows.
    built = []
    source = comp._churn_field_source

    def slow_source(*shape):
        built.append(shape)
        time.sleep(0.05)   # hold the build open while the other threads arrive
        return source(*shape)

    monkeypatch.setattr(comp, "_churn_field_source", slow_source)
    monkeypatch.setattr(comp, "_CHURN_FIELDS", {})
    market = comp.BassCompetition(m=(0.02, 0.03, 0.01), r=(0.4, 0.3, 0.5), u0=(0.0,) * 3)
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix(((0.0, 0.04, 0.02), (0.03, 0.0, 0.05), (0.01, 0.06, 0.0))),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.02, 4.0, 0.3),)),))
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(k):
        barrier.wait()
        results[k] = comp.competitive_path_numeric(market, spec, time_grid(0.0, 20.0, 50)).columns

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
    # The market's field, and the flows whose cancellation the path checks.
    shapes = [(3, "linear", bass, (((0, 1), (1,)),)) for bass in (False, True)]
    assert sorted(built) == shapes
    assert sorted(comp._CHURN_FIELDS) == shapes
    assert results[0] is not None and results == [results[0]] * workers


def test_churn_field_tracebacks_show_the_generated_lines():
    field = comp.market_field(comp.BassCompetition(m=(0.1, 0.2), r=(0.3, 0.4), u0=(0.0, 0.0)),
                              comp.ChurnMatrix(((0.0, 0.1), (0.2, 0.0))))
    with pytest.raises(ValueError) as info:
        field(0.0, [0.1, 0.2, 0.3])
    frame = info.traceback[-1]
    assert str(frame.path) == "<churn field n=2 bass spontaneous>"
    assert "= u" in str(frame.statement)


sinusoids = st.builds(comp.Sinusoid, st.floats(0.0, 2.0), st.floats(1e-3, 1e3),
                      st.floats(-7.0, 7.0))


@given(st.lists(st.lists(sinusoids, min_size=1, max_size=3), min_size=1, max_size=4),
       st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4))
def test_compiled_modulations_match_the_records_bit_for_bit(term_lists, times):
    # Several modulations of one pair, 1-3 terms each: the compiled kernels
    # against the record methods they replace on the solve paths.
    mods = [comp.PairModulation(0, 1, tuple(terms)) for terms in term_lists]
    terms = [s for m in mods for s in m.terms]
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 30.0], [1.0, 0.0]]), eps=tuple(mods))
    value, integral = comp._modulation_kernel(mods), comp._integral_kernel(terms)
    per_pair = [(m, comp._modulation_kernel([m])) for m in mods]
    per_term = [(s, comp._modulation_kernel([comp.PairModulation(0, 1, (s,))]),
                 comp._integral_kernel([s])) for s in terms]
    for t in times:
        assert value(t).hex() == reference.epsilon(spec, 0, 1, t).hex()
        assert integral(t).hex() == math.fsum(
            reference.sinusoid_integral(s, t) for s in terms).hex()
        for m, kernel in per_pair:
            assert kernel(t).hex() == reference.modulation_value(m, t).hex()
        for s, kernel, antiderivative in per_term:  # fsum turns a -0.0 term into 0.0
            assert kernel(t).hex() == math.fsum([reference.sinusoid_value(s, t)]).hex()
            assert antiderivative(t).hex() == math.fsum([reference.sinusoid_integral(s, t)]).hex()


# ---------------------------------------------------------------------------
# spontaneous churning: dynamics
# ---------------------------------------------------------------------------

def test_matrix_exponential_path_matches_closed_form():
    grid = time_grid(0.0, 25.0, 101)
    path = comp.spontaneous_path((1.0, 0.8), comp.ChurnMatrix.from_rows(
        [[0.0, 0.3], [0.5, 0.0]]), grid)
    closed = comp.two_supplier_spontaneous_path(1.0, 0.8, 0.3, 0.5, grid)
    for ch in ("u1", "u2"):
        worst = max(abs(a - b) for a, b in zip(path.channel(ch), closed.channel(ch)))
        assert worst <= 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_matrix_exponential_path_matches_direct_integration(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4, 5))
    m = tuple(rng.uniform(0.3, 1.5) for _ in range(n))
    c = random_churn(rng, n)
    grid = time_grid(0.0, 12.0, 25)
    path = comp.spontaneous_path(m, c, grid)
    market = comp.BassCompetition(m=m, r=tuple(0.0 for _ in range(n)),
                                  u0=tuple(0.0 for _ in range(n)))
    direct = comp.competitive_path_numeric(market, c, grid)
    for i in range(n):
        ch = f"u{i + 1}"
        worst = max(abs(a - b) for a, b in zip(path.channel(ch), direct.channel(ch)))
        assert worst <= 1e-7


NON_UNIFORM_GRID = tuple([0.05 * k for k in range(40)]
                         + [2.0 * 1.1 ** k for k in range(30)]
                         + [35.0 + 0.5 * k for k in range(1, 21)])


@pytest.mark.parametrize("grid,most_exponentials", [
    (time_grid(0.0, 25.0, 1000), 1),  # one E for every step; e^(-Q 0) = I needs none
    (NON_UNIFORM_GRID, len(NON_UNIFORM_GRID)),
], ids=["time_grid", "non_uniform"])
def test_propagated_path_matches_per_sample_exponential(grid, most_exponentials,
                                                        monkeypatch):
    rng = random.Random(11)
    m = tuple(rng.uniform(0.1, 1.0) for _ in range(5))
    c = random_churn(rng, 5)
    q = comp._innovator_churn_matrix(m, c)
    v = numerics.linear_solve(q, list(m))
    neg_q = q.scaled(-1.0)
    reference = [[vi - di for vi, di in zip(v, numerics.mat_exp_apply(neg_q, t, v))]
                 for t in grid]

    exponentials = []
    real_mat_exp = numerics.mat_exp
    monkeypatch.setattr(numerics, "mat_exp",
                        lambda mat, t: exponentials.append(t) or real_mat_exp(mat, t))
    path = comp.spontaneous_path(m, c, grid)
    worst = max(abs(a - b) for row, ref in zip(zip(*path.columns), reference)
                for a, b in zip(row, ref))
    assert worst <= 1e-13
    assert len(exponentials) <= most_exponentials


def test_spontaneous_path_requires_a_zero_start():
    # The shares start at zero at t = 0, as on every grid a scenario builds.
    c = comp.ChurnMatrix.from_rows([[0.0, 0.3], [0.5, 0.0]])
    with pytest.raises(ParameterError, match="grid must start at t = 0"):
        comp.spontaneous_path((1.0, 0.8), c, time_grid(1.5, 11.5, 300))


def test_path_converges_to_equilibrium():
    c = comp.ChurnMatrix.from_rows([[0.0, 0.3], [0.5, 0.0]])
    eq = comp.spontaneous_equilibrium(c)
    horizon = 20.0 / 0.8
    path = comp.spontaneous_path((1.0, 0.8), c, time_grid(0.0, horizon, 11))
    assert path.channel("u1")[-1] == pytest.approx(eq[0], abs=1e-6)
    assert path.channel("u2")[-1] == pytest.approx(eq[1], abs=1e-6)


def test_singular_coupling_falls_back_to_integration():
    # With no innovation inflow the coupling matrix is singular; the
    # path must fall back to direct integration (and stay at zero,
    # since nothing ever enters the market).
    c = comp.ChurnMatrix.from_rows([[0.0, 0.4], [0.7, 0.0]])
    path = comp.spontaneous_path((0.0, 0.0), c, time_grid(0.0, 5.0, 6))
    assert path.notes and "numerically" in path.notes[0]
    assert all(v == 0.0 for v in path.channel("u1"))


def test_zero_churn_reduces_to_innovators_path():
    grid = time_grid(0.0, 10.0, 21)
    zero = comp.ChurnMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])
    path = comp.spontaneous_path((1.0, 3.0), zero, grid)
    plain = comp.innovators_only_path((1.0, 3.0), grid)
    for ch in ("u1", "u2"):
        worst = max(abs(a - b) for a, b in zip(path.channel(ch), plain.channel(ch)))
        assert worst <= 1e-9


def test_one_way_churn_peak_time():
    m1, m2, a21 = 1.0, 0.8, 0.5
    t_peak = comp.two_supplier_peak_time(m1, m2, a21)
    assert t_peak == pytest.approx(math.log(1.8 / 0.5) / 1.3, rel=1e-12)
    grid = time_grid(0.0, 25.0, 10001)
    path = comp.two_supplier_spontaneous_path(m1, m2, 0.0, a21, grid)
    u2 = path.channel("u2")
    k = max(range(len(u2)), key=lambda i: u2[i])
    assert abs(grid[k] - t_peak) <= grid[1] - grid[0]
    # Asymptote: the supplier that never loses customers takes the market.
    assert path.channel("u1")[-1] == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# periodic churning
# ---------------------------------------------------------------------------

def two_supplier_field(spec):
    def rhs(t, y):
        a12 = reference.periodic_rate(spec, 0, 1, t)
        a21 = reference.periodic_rate(spec, 1, 0, t)
        return [a21 - (a12 + a21) * y[0]]

    return rhs


def test_periodic_without_modulation_is_constant_coefficient():
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 0.3], [0.5, 0.0]]), eps=())
    grid = time_grid(0.0, 15.0, 151)
    traj = comp.periodic_two_supplier_path(spec, 0.9, grid)
    mean = 0.5 / 0.8
    for t, u in zip(grid, traj.channel("u1")):
        assert u == pytest.approx(mean + (0.9 - mean) * math.exp(-0.8 * t), abs=1e-12)
    assert traj.channel("u1")[0] == 0.9


def test_periodic_path_matches_direct_integration():
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 0.8], [1.2, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.1, 1.0, 0.0),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(0.15, 1.0, 0.5),))))
    grid = time_grid(0.0, 15.0, 151)
    traj = comp.periodic_two_supplier_path(spec, 0.2, grid)
    rows = numerics.sample_ivp(two_supplier_field(spec), [0.2], grid)
    worst = max(abs(a - b[0]) for a, b in zip(traj.channel("u1"), rows))
    assert worst <= 1e-8


def test_periodic_coarse_steps_take_their_own_quadrature(monkeypatch):
    # Every step is longer than 1/s0 = 1/6, so no window holds two steps and
    # each takes shifted_integral_step; the 20-unit step also halves its
    # interval past the e^-40 weight. |E(t)| <= sum of amplitude * period / pi
    # < 2, so 1 + alpha = e^E stays far from 0. Each step's quadrature is held
    # to 1e-11 of amplitude / s0 and grows by at most e^|E| after it.
    scipy_integrate = pytest.importorskip("scipy.integrate")
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 4.0], [2.0, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(1.5, 2.0, 0.3),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(1.0, 3.0, 1.1),))))
    grid = [0.0, 0.5, 1.3, 3.0, 10.0, 30.0, 31.0]
    steps = []
    shifted_integral_step = numerics.shifted_integral_step

    def counted(*args):
        steps.append(args[3:5])
        return shifted_integral_step(*args)

    monkeypatch.setattr(numerics, "shifted_integral_step", counted)
    traj = comp.periodic_two_supplier_path(spec, 0.2, grid)
    assert steps == list(zip(grid, grid[1:]))
    sol = scipy_integrate.solve_ivp(two_supplier_field(spec),
        (0.0, grid[-1]), [0.2], method="DOP853", rtol=1e-12, atol=1e-14, t_eval=grid)
    worst = max(abs(u - r) for u, r in zip(traj.channel("u1"), sol.y[0]))
    assert worst <= 1e-10


def test_periodic_decomposition_channels():
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.10, 1.0, 0.3),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(0.15, 1.0, 1.1),))))
    s0 = 2.0
    grid = time_grid(0.0, 11.0, 1101)
    traj = comp.periodic_two_supplier_path(spec, 0.2, grid)
    u1 = traj.channel("u1")
    mean = traj.channel("mean")
    periodic = traj.channel("periodic")
    decaying = traj.channel("decaying")
    assert all(m == 0.5 for m in mean)
    worst = max(abs(u1[i] - mean[i] - periodic[i] - decaying[i]) for i in range(len(u1)))
    assert worst <= 1e-12
    # Transient is gone well before t = 20/s0.
    k = next(i for i, t in enumerate(grid) if t >= 20.0 / s0)
    assert abs(decaying[k]) <= 1e-6
    # Zero mean of the periodic channel over one late period.
    idx = [i for i, t in enumerate(grid) if 10.0 <= t <= 11.0]
    avg = math.fsum((periodic[idx[i]] + periodic[idx[i + 1]]) * 0.5
                    * (grid[idx[i + 1]] - grid[idx[i]])
                    for i in range(len(idx) - 1))
    assert abs(avg) <= 1e-3


def test_periodic_late_average_matches_long_run_integration():
    # Oracle: direct integration far past the transient, averaged over a
    # period, agrees with the quadrature-based path's own late average.
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.5, 1.0, 0.0),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(0.5, 1.0, 0.7),))))
    grid = time_grid(0.0, 11.0, 2201)
    traj = comp.periodic_two_supplier_path(spec, 0.2, grid)
    rows = numerics.sample_ivp(two_supplier_field(spec), [0.2], grid)
    idx = [i for i, t in enumerate(grid) if t >= 10.0]

    def late_avg(series):
        return math.fsum((series[idx[i]] + series[idx[i + 1]]) * 0.5
                         * (grid[idx[i + 1]] - grid[idx[i]])
                         for i in range(len(idx) - 1))

    ours = late_avg(traj.channel("u1"))
    oracle = late_avg([r[0] for r in rows])
    assert ours == pytest.approx(oracle, abs=1e-8)


def test_periodic_numeric_path_agrees_with_analytic():
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, 0.8], [1.2, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.2, 1.0, 0.4),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(0.3, 1.0, 1.2),))))
    grid = time_grid(0.0, 12.0, 61)
    analytic = comp.periodic_two_supplier_path(spec, 0.35, grid)
    market = comp.BassCompetition(m=(0.0, 0.0), r=(1.0, 1.0), u0=(0.35, 0.65))
    numeric = comp.competitive_path_numeric(market, spec, grid)
    for ch in ("u1", "u2"):
        worst = max(abs(a - b) for a, b in zip(analytic.channel(ch),
                                               numeric.channel(ch)))
        assert worst <= 1e-7


def test_periodic_three_suppliers_numeric_structure():
    # Beyond two suppliers only the numeric path is available; the
    # predicted structure (constant mean at the baseline equilibrium,
    # bounded zero-mean oscillation, decaying transient) is asserted
    # statistically on the late part of the run.
    rng = random.Random(31)
    a0 = random_churn(rng, 3)
    mods = (comp.PairModulation(0, 1, (comp.Sinusoid(0.05 * a0.a[0][1], 1.0, 0.2),)),
            comp.PairModulation(1, 2, (comp.Sinusoid(0.05 * a0.a[1][2], 0.5, 1.0),)))
    spec = comp.PeriodicChurnSpec(a0=a0, eps=mods)
    market = comp.BassCompetition(m=(0.0, 0.0, 0.0), r=(1.0, 1.0, 1.0),
                                  u0=(0.5, 0.3, 0.2))
    grid = time_grid(0.0, 40.0, 801)
    traj = comp.competitive_path_numeric(market, spec, grid)
    eq = comp.spontaneous_equilibrium(a0)
    idx = [i for i, t in enumerate(grid) if t >= 39.0]
    for k in range(3):
        u = traj.channel(f"u{k + 1}")
        late = [u[i] for i in idx]
        avg = math.fsum((late[i] + late[i + 1]) * 0.5 * (grid[idx[i + 1]] - grid[idx[i]])
                        for i in range(len(late) - 1))
        assert avg == pytest.approx(eq[k], abs=1e-3)
        assert max(late) - min(late) <= 0.2 * max(a for row in a0.a for a in row)


@pytest.mark.parametrize("a12_0", [1e6, 1e12])
def test_periodic_fast_churn_follows_the_quasi_static_share(a12_0):
    # For a fast churn s = a12 + a21, u1 tracks q = a21 / s up to -q'/s: the
    # weight exp(-s (t - x)) of the driven convolution is then far narrower
    # than a grid segment.
    spec = comp.PeriodicChurnSpec(
        a0=comp.ChurnMatrix.from_rows([[0.0, a12_0], [1.2, 0.0]]),
        eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.1, 1.0),)),
             comp.PairModulation(1, 0, (comp.Sinusoid(0.2, 0.5),))))
    grid = time_grid(0.0, 15.0, 200)
    traj = comp.periodic_two_supplier_path(spec, 0.2, grid)
    w12, w21 = 2.0 * math.pi, 4.0 * math.pi
    for t, u in zip(grid[1:], traj.channel("u1")[1:]):
        a21, da21 = 1.2 + 0.2 * math.sin(w21 * t), 0.2 * w21 * math.cos(w21 * t)
        s, ds = a12_0 + 0.1 * math.sin(w12 * t) + a21, 0.1 * w12 * math.cos(w12 * t) + da21
        q = a21 / s
        assert u == pytest.approx(q - (da21 * s - a21 * ds) / s ** 3, rel=1e-9, abs=0.0)


def test_periodic_rejects_negative_rates():
    with pytest.raises(ParameterError):
        comp.PeriodicChurnSpec(
            a0=comp.ChurnMatrix.from_rows([[0.0, 0.1], [1.0, 0.0]]),
            eps=(comp.PairModulation(0, 1, (comp.Sinusoid(0.5, 1.0, 0.0),)),))


# ---------------------------------------------------------------------------
# stimulated churning
# ---------------------------------------------------------------------------

def bisection_balance_root(delta, a12, a21, eps1, eps2):
    # Independent oracle: bisect the balance flow C1 on (0, 1].
    def c1(u1):
        u2 = 1.0 - u1
        return delta * u1 * u2 + eps1 * a21 * u2 - eps2 * a12 * u1

    lo, hi = 1e-12, 1.0
    if c1(hi) == 0.0:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (c1(lo) > 0) == (c1(mid) > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_two_supplier_mixed_root_value():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        b=(2.0, 0.0), eps=(1, 1))
    fp = comp.stimulated_fixed_point(spec)
    assert fp.classification == "shared"
    assert fp.u[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    # Residual of the balance flow at the root.
    u1, u2 = fp.u
    c1 = 2.0 * u1 * u2 + u2 - u1
    assert abs(c1) <= 1e-12
    assert fp.u[0] == pytest.approx(bisection_balance_root(2.0, 1.0, 1.0, 1, 1), abs=1e-10)


def test_one_way_losses_give_monopoly():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 0.0], [0.7, 0.0]]),
        b=(2.0, 0.0), eps=(1, 1))
    fp = comp.stimulated_fixed_point(spec)
    assert fp.u[0] == 1.0
    assert fp.u[1] == 0.0


def test_symmetric_spec_splits_evenly():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 0.9], [0.9, 0.0]]),
        b=(1.4, 1.4), eps=(1, 1))
    fp = comp.stimulated_fixed_point(spec)
    assert fp.u[0] == pytest.approx(0.5, abs=1e-12)


def test_purely_stimulated_is_winner_take_all():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        b=(3.0, 1.0), eps=(0, 0))
    fp = comp.stimulated_fixed_point(spec, u0=(0.3, 0.7))
    assert fp.classification == "winner_take_all"
    assert fp.u in ((1.0, 0.0), (0.0, 1.0))
    # Stronger stimulation wins from any interior start here.
    assert fp.u == (1.0, 0.0)


def test_three_supplier_shared_root():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows(
            [[0.0, 0.8, 0.6], [0.7, 0.0, 0.9], [0.5, 0.4, 0.0]]),
        b=(0.4, 0.2, 0.1), eps=(1, 1, 1))
    fp = comp.stimulated_fixed_point(spec)
    assert fp.classification == "shared"
    flows = comp.market_field(None, spec)(0.0, fp.u)
    assert max(abs(f) for f in flows) <= 1e-10
    assert math.fsum(fp.u) == pytest.approx(1.0, abs=1e-12)


def test_inconsistent_spec_raises():
    # Supplier 1 has no spontaneous inflow and loses more than its
    # stimulation can recover at every interior share.
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 1.0], [0.5, 0.0]]),
        b=(0.2, 0.0), eps=(0, 1))
    with pytest.raises(InconsistentSpecError):
        comp.stimulated_fixed_point(spec)


def test_stimulated_path_reaches_vertex():
    spec = comp.StimulatedChurnSpec(
        churn=comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]]),
        b=(3.0, 1.0), eps=(0, 0))
    market = comp.BassCompetition(m=(0.0, 0.0), r=(1.0, 1.0), u0=(0.6, 0.4))
    traj = comp.competitive_path_numeric(market, spec, time_grid(0.0, 30.0, 31))
    final = [column[-1] for column in traj.columns]
    assert 1.0 - max(final) <= 1e-6


# ---------------------------------------------------------------------------
# full dynamics invariants
# ---------------------------------------------------------------------------

def test_numeric_path_matches_innovators_closed_form():
    market = comp.BassCompetition(m=(1.0, 3.0), r=(0.0, 0.0), u0=(0.0, 0.0))
    grid = time_grid(0.0, 5.0, 26)
    numeric = comp.competitive_path_numeric(market, None, grid)
    closed = comp.innovators_only_path((1.0, 3.0), grid)
    for ch in ("u1", "u2"):
        worst = max(abs(a - b) for a, b in zip(numeric.channel(ch), closed.channel(ch)))
        assert worst <= 1e-7


def test_numeric_path_converges_to_cofactor_equilibrium():
    rng = random.Random(17)
    c = random_churn(rng, 3)
    m = (0.9, 1.1, 0.7)
    market = comp.BassCompetition(m=m, r=(0.0, 0.0, 0.0), u0=(0.0, 0.0, 0.0))
    slowest = min(x for row in c.a for x in row if x > 0)
    horizon = 20.0 / slowest
    traj = comp.competitive_path_numeric(market, c, time_grid(0.0, horizon, 41))
    eq = reference.spontaneous_equilibrium_cofactor(c)
    for i, v in enumerate(eq):
        assert traj.channel(f"u{i + 1}")[-1] == pytest.approx(v, abs=1e-6)


def test_converged_total_share_is_one():
    market = comp.BassCompetition(m=(0.8, 0.5), r=(0.3, 0.9), u0=(0.05, 0.0))
    traj = comp.competitive_path_numeric(
        market, comp.ChurnMatrix.from_rows([[0.0, 0.2], [0.4, 0.0]]),
        time_grid(0.0, 50.0, 51))
    final = [column[-1] for column in traj.columns]
    assert abs(math.fsum(final) - 1.0) <= 1e-6


def test_invariant_breach_detected(monkeypatch):
    # A churn evaluation that manufactures customers must be rejected.
    leaky = comp.ChurnMatrix(((0.0, 0.1), (0.1, 0.0)))
    market = comp.BassCompetition(m=(0.5, 0.5), r=(0.0, 0.0), u0=(0.0, 0.0))
    real_field = comp.market_field

    def fake_field(market, churn=None):
        real = real_field(market, churn)
        if market is not None:
            return real

        def fake_flows(t, u):
            flows = real(t, u)
            flows[0] += 0.05
            return flows
        return fake_flows

    monkeypatch.setattr(comp, "market_field", fake_field)
    with pytest.raises(IntegrationInvariantError):
        comp.competitive_path_numeric(market, leaky, time_grid(0.0, 30.0, 31))
