"""Reference forms the tests check the library against.

The library solves each market by a closed form, the matrix exponential,
Chebyshev windows or DOP853 on a route's own system, and no run reaches
the forms below; they live here as oracles: the three defining systems of
the monopoly, feedback and bpq families, a feedback model's share at one
time, the complementary games'
six-equation system and the helpers that start it, case 5's peak balance,
the determinant and cofactors of the churn balance matrix, the modulated
rates of periodic churn and the exact integral of one sinusoid, and the
linear scan of a tabulated rate's knots.
"""

from __future__ import annotations

import math
from typing import Sequence

from marketdyn import competition, feedback, games, numerics
from marketdyn.errors import DegenerateMarketError, DomainError, ParameterError, SingularMatrixError
from marketdyn.numerics import SquareMatrix


# ---------------------------------------------------------------------------
# Defining ODE systems
# ---------------------------------------------------------------------------

def monopoly_field(kind: str, params) -> numerics.RHS:
    """Defining ODE system of a monopoly model, for cross-validation.

    Returns the field whose closed-form solution the corresponding
    ``*_path`` function implements. State layouts: ``simple``/
    ``scheduled`` -> (u,), ``segmented`` -> per-segment shares,
    ``hesitation`` -> (p, h, u), ``birth_death`` -> (p, u).
    """
    if kind == "simple":
        m = params
        return lambda t, y: [m.a * (1.0 - y[0])]
    if kind == "scheduled":
        schedule = params
        return lambda t, y: [schedule.rate(t) * (1.0 - y[0])]
    if kind == "segmented":
        segments = params

        def rhs(t, y):
            return [s.schedule.rate(t) * (s.n - y[i]) for i, s in enumerate(segments)]

        return rhs
    if kind == "hesitation":
        h = params
        if h.variant == "absorbing_hesitation":
            return lambda t, y: [
                -(h.a + h.b) * y[0],
                h.b * y[0] - h.c * y[1],
                h.a * y[0] + h.c * y[1],
            ]
        return lambda t, y: [
            -(h.a + h.b) * y[0] + h.c * y[1],
            h.b * y[0] - h.c * y[1],
            h.a * y[0],
        ]
    if kind == "birth_death":
        bd = params
        return lambda t, y: [
            (bd.d - bd.a - bd.f) * y[0],
            bd.a * y[0] - bd.g * y[1],
        ]
    raise ValueError(f"unknown monopoly model kind {kind!r}")


def feedback_field(m) -> numerics.RHS:
    """du/dt = rate (1 - u) F(u), for cross-validation against the closed forms."""
    return lambda t, y: [m.rate * m.kernel.growth(y[0])]


def u_of_t(m, t: float) -> float:
    """Share of a feedback model at time t.

    Closed forms cover the none, bass, linear, sqrt and 1-u kernels; the
    rest invert t(u) by safeguarded Newton iteration from u0.
    """
    return m.u0 if t == 0.0 else feedback._shares(m, [t])[0][0]


def bpq_field(case) -> numerics.RHS:
    """The three-compartment system for (B, P, Q) of a bpq case."""
    a_int, b_int, c_int = games.intensities(case)

    def rhs(t: float, s: Sequence[float]) -> list[float]:
        a = a_int(t, s)
        b = b_int(t, s)
        c = c_int(t)
        return [-(a + c) * s[0],
                a * s[0] - b * s[1],
                b * s[1] + c * s[0]]

    return rhs


# ---------------------------------------------------------------------------
# Games: case 5's peak balance and the complementary games
# ---------------------------------------------------------------------------

def case5_peak_value(case: games.Case5, t_m: float) -> float:
    """Peak height from the balance a B = gamma P Q at the peak time:
    2 P = (N - B0 e^{-a T_m}) + sqrt((N - B0 e^{-a T_m})^2 - (4a/gamma) B0 e^{-a T_m})."""
    shifted = case.N - case.B0 * math.exp(-case.a * t_m)
    disc = shifted * shifted - (4.0 * case.a / case.gamma) * case.B0 * math.exp(-case.a * t_m)
    if disc < 0:
        raise DomainError("no real peak value at the given time")
    return 0.5 * (shifted + math.sqrt(disc))


def companion_players(spec: games.ComplementarySpec, t: float) -> float:
    """Player count of the companion game, launched tau before game 1."""
    return games._companion_kernels(spec)[0](t)


def complementary_field(spec: games.ComplementarySpec) -> numerics.RHS:
    """Six-equation system for (B, P, Q, B_c, P_c, Q_c), for cross-checks.

    Valid on time ranges where both games are live (t >= 0, t + tau >= 0).
    """
    g, b, a_c, b_c = spec.g, spec.b, spec.a_c, spec.b_c

    def rhs(t: float, s: Sequence[float]) -> list[float]:
        bb, pp, _, bc, pc, _ = s
        return [-g * bb * pc,
                g * bb * pc - b * pp,
                b * pp,
                -a_c * bc,
                a_c * bc - b_c * pc,
                b_c * pc]

    return rhs


def complementary_constant_approx(spec: games.ComplementarySpec, p_c0: float,
                                  feedback_beta: float = 0.0) -> games.Case3:
    """Constant-driver estimate: freeze the companion's player count at
    p_c0, giving an effective inflow a = g * p_c0 (plus any direct
    player feedback), and reuse the mixed-inflow case."""
    if p_c0 < 0:
        raise ParameterError("constant player proxy must be nonnegative")
    if p_c0 == 0.0 and feedback_beta == 0.0:
        raise ParameterError("a zero proxy decouples the games: no adoption at all")
    return games.Case3(a=spec.g * p_c0, beta=feedback_beta, b=spec.b, N=spec.N)


# ---------------------------------------------------------------------------
# Determinant, cofactors and the cofactor form of the churn equilibrium
# ---------------------------------------------------------------------------

def det(a: SquareMatrix) -> float:
    """Determinant via the LU factorization (0.0 when singular)."""
    try:
        lu, _, sign = numerics._lu_decompose(a)
    except SingularMatrixError:
        return 0.0
    product = float(sign)
    for i in range(a.n):
        product *= lu[i][i]
    return product


def cofactor(a: SquareMatrix, i: int, j: int) -> float:
    """Signed minor (-1)^(i+j) * det(A with row i and column j removed)."""
    n = a.n
    if n == 1:
        return 1.0
    minor = SquareMatrix.from_rows(
        [[a.entries[r][c] for c in range(n) if c != j] for r in range(n) if r != i])
    return (-1.0 if (i + j) % 2 else 1.0) * det(minor)


def spontaneous_equilibrium_cofactor(c: competition.ChurnMatrix) -> list[float]:
    """Same fixed point as ``competition.spontaneous_equilibrium``, via
    cofactors of the balance matrix: u_i = A_ni / D."""
    n = c.n
    if n == 1:
        return [1.0]
    a = competition._balance_matrix(c)
    d = det(a)
    if d == 0.0:
        raise DegenerateMarketError("churn balance system is singular")
    return [cofactor(a, n - 1, i) / d for i in range(n)]


# ---------------------------------------------------------------------------
# Periodic churn: the modulated rates and the exact integral of one sinusoid
# ---------------------------------------------------------------------------

def sinusoid_value(s: competition.Sinusoid, t: float) -> float:
    """amplitude * sin(2 pi t / period + phase)."""
    return s.amplitude * math.sin(2.0 * math.pi * t / s.period + s.phase)


def modulation_value(mod: competition.PairModulation, t: float) -> float:
    """The ``fsum`` of one modulation's sinusoids at t."""
    return math.fsum(sinusoid_value(s, t) for s in mod.terms)


def epsilon(spec: competition.PeriodicChurnSpec, i: int, j: int, t: float) -> float:
    """The ``fsum`` over the modulations of the pair (i, j) at t, in their order."""
    return math.fsum(modulation_value(m, t) for m in spec.eps if m.i == i and m.j == j)


def periodic_rate(spec: competition.PeriodicChurnSpec, i: int, j: int, t: float) -> float:
    """a_ij(t) = a0_ij + epsilon_ij(t)."""
    return spec.a0.a[i][j] + epsilon(spec, i, j, t)


def sinusoid_integral(s: competition.Sinusoid, t: float) -> float:
    """Exact integral of the sinusoid s from 0 to t, one term of
    ``competition._integral_kernel`` written out on the record.

    Whole periods integrate to zero, so only t mod period enters, and
    cos(phase) - cos(w t + phase) is written as a product of sines: no
    horizon overflows the angle and a slow sinusoid loses no digits.
    """
    w = 2.0 * math.pi / s.period
    half = 0.5 * w * math.fmod(t, s.period)
    return 2.0 * s.amplitude * (math.sin(half) / w) * math.sin(half + s.phase)


# ---------------------------------------------------------------------------
# Tabulated rate schedules by a linear scan of the knots
# ---------------------------------------------------------------------------

def tabulated_rate(points, t: float) -> float:
    """``TabulatedRate.rate`` with the interval found by scanning the knots
    in order: the first interval [t0, t1] that holds t, so at an interior
    knot the one that ends there."""
    if t <= points[0][0]:
        return points[0][1]
    if t >= points[-1][0]:
        return points[-1][1]
    for (t0, r0), (t1, r1) in zip(points, points[1:]):
        if t0 <= t <= t1:
            w = (t - t0) / (t1 - t0)
            return r0 + w * (r1 - r0)
    raise AssertionError("unreachable")


def tabulated_cumulative(points, t: float, start: float = 0.0) -> float:
    """``TabulatedRate.cumulative`` as a cut list: the trapezoids between start,
    each knot inside (start, t), found by a scan, and t, summed by fsum."""
    if not t > start:
        return 0.0
    cuts = [start] + [k for k, _ in points if start < k < t] + [t]
    return math.fsum(0.5 * (x1 - x0) * (tabulated_rate(points, x0) + tabulated_rate(points, x1))
                     for x0, x1 in zip(cuts, cuts[1:]))
