"""Single-supplier adoption models without market feedback.

All models resolve to closed forms. The normalized share u(t) starts at
u0 and climbs toward an asymptote (1 for a constant rate; possibly less
for decaying or truncated rate schedules). Demand is D(t) = N du/dt.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Sequence, Union

from . import lazy_submodule
from .errors import ParameterError
from .trajectory import Trajectory, from_channels

numerics = lazy_submodule("numerics")


# ---------------------------------------------------------------------------
# Rate schedules a(t)
#
# ``cumulative(t, start)`` is the integral of a over [start, t], formed so
# that a short span late in time keeps its digits.
# ---------------------------------------------------------------------------

class ConstantRate(namedtuple("ConstantRate", "a")):
    """a(t) = a."""

    __slots__ = ()

    def __new__(cls, a: float):
        if a < 0:
            raise ParameterError("rate must be nonnegative")
        return super().__new__(cls, a)

    def rate(self, t: float) -> float:
        return self.a

    def cumulative(self, t: float, start: float = 0.0) -> float:
        return self.a * (t - start)


class LinearRate(namedtuple("LinearRate", "a0 a1")):
    """a(t) = a0 + a1 t, linearly growing adoption pressure."""

    __slots__ = ()

    def __new__(cls, a0: float, a1: float):
        if a0 < 0 or a1 < 0:
            raise ParameterError("rate coefficients must be nonnegative")
        return super().__new__(cls, a0, a1)

    def rate(self, t: float) -> float:
        return self.a0 + self.a1 * t

    def cumulative(self, t: float, start: float = 0.0) -> float:
        return self.a0 * (t - start) + 0.5 * self.a1 * (t - start) * (t + start)


class ExpDecayRate(namedtuple("ExpDecayRate", "a0 beta")):
    """a(t) = a0 exp(-beta t): interest fades before saturation.

    The reachable share is capped at 1 - exp(-a0/beta) < 1.
    """

    __slots__ = ()

    def __new__(cls, a0: float, beta: float):
        if a0 < 0 or beta < 0:
            raise ParameterError("rate coefficients must be nonnegative")
        return super().__new__(cls, a0, beta)

    def rate(self, t: float) -> float:
        return self.a0 * math.exp(-self.beta * t)

    def cumulative(self, t: float, start: float = 0.0) -> float:
        if self.beta == 0.0:
            return self.a0 * (t - start)
        return -(self.a0 / self.beta) * math.exp(-self.beta * start) * math.expm1(
            -self.beta * (t - start))

    def asymptotic_share(self, u0: float = 0.0) -> float:
        if self.beta == 0.0:
            return 1.0
        return 1.0 - (1.0 - u0) * math.exp(-self.a0 / self.beta)


class CutoffRate(namedtuple("CutoffRate", "a T")):
    """a(t) = a up to time T, zero afterwards; the share freezes at T."""

    __slots__ = ()

    def __new__(cls, a: float, T: float):
        if a < 0 or T < 0:
            raise ParameterError("rate and cutoff time must be nonnegative")
        return super().__new__(cls, a, T)

    def rate(self, t: float) -> float:
        return self.a if t <= self.T else 0.0

    def cumulative(self, t: float, start: float = 0.0) -> float:
        return self.a * (min(t, self.T) - min(start, self.T))


class TabulatedRate(namedtuple("TabulatedRate", "points")):
    """Piecewise-linear a(t) through the given (time, rate) points.

    The first value is held before the table and the last value after it.
    """

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[float, float], ...]):
        if len(points) < 1:
            raise ParameterError("tabulated schedule needs at least one point")
        for (t0, r0), (t1, _) in zip(points, points[1:]):
            if not t1 > t0:
                raise ParameterError("tabulated times must be strictly increasing")
        if any(r < 0 for _, r in points):
            raise ParameterError("tabulated rates must be nonnegative")
        return super().__new__(cls, points)

    def rate(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, r0), (t1, r1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                w = (t - t0) / (t1 - t0)
                return r0 + w * (r1 - r0)
        raise AssertionError("unreachable")

    def cumulative(self, t: float, start: float = 0.0) -> float:
        # The rate is linear between knots and constant outside the table,
        # so the trapezoid rule is exact on each piece.
        if not t > start:
            return 0.0
        cuts = [start] + [k for k, _ in self.points if start < k < t] + [t]
        return math.fsum(0.5 * (x1 - x0) * (self.rate(x0) + self.rate(x1))
                         for x0, x1 in zip(cuts, cuts[1:]))


RateSchedule = Union[ConstantRate, LinearRate, ExpDecayRate, CutoffRate, TabulatedRate]


# ---------------------------------------------------------------------------
# Model parameter sets
# ---------------------------------------------------------------------------

class SimpleAdoption(namedtuple("SimpleAdoption", "a u0 N")):
    """Constant adoption rate a for everyone; tau = 1/a is the mean wait."""

    __slots__ = ()

    def __new__(cls, a: float, u0: float = 0.0, N: float = 1.0):
        if not a > 0:
            raise ParameterError("adoption rate a must be positive")
        if math.isinf(1.0 / a):
            raise ParameterError("adoption rate a is too small: the mean wait 1/a overflows")
        if not 0.0 <= u0 <= 1.0:
            raise ParameterError("initial share u0 must lie in [0, 1]")
        if not N > 0:
            raise ParameterError("population N must be positive")
        return super().__new__(cls, a, u0, N)

    @property
    def tau(self) -> float:
        return 1.0 / self.a


class Segment(namedtuple("Segment", "n schedule")):
    """One independent market segment of normalized size n_i."""

    __slots__ = ()

    def __new__(cls, n: float, schedule: RateSchedule):
        if not 0.0 < n <= 1.0:
            raise ParameterError("segment size must lie in (0, 1]")
        return super().__new__(cls, n, schedule)


class HesitationParams(namedtuple("HesitationParams", "a b c variant")):
    """Three-state adoption with a hesitation stage.

    ``absorbing_hesitation``: hesitants eventually subscribe (P -> H -> U
    with intensity c). ``returning_hesitation``: hesitants drop back to
    the potential pool (H -> P with intensity c); adoption happens only
    from P.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, variant: str = "absorbing_hesitation"):
        if not (a > 0 and b > 0 and c > 0):
            raise ParameterError("intensities a, b, c must be positive")
        if variant not in ("absorbing_hesitation", "returning_hesitation"):
            raise ParameterError(f"unknown hesitation variant {variant!r}")
        self = super().__new__(cls, a, b, c, variant)
        if variant == "returning_hesitation":
            lam1, lam2, _ = self.eigenvalues()
            if not lam2 < lam1 < 0.0:
                raise ParameterError(
                    f"returning hesitation needs distinct negative transition eigenvalues, "
                    f"got {lam1!r} and {lam2!r} (a * c too small)")
        return self

    def eigenvalues(self) -> tuple[float, float, float]:
        """(lambda1, lambda2, r) of the (p, h) transition matrix.

        r = sqrt((a+b+c)^2 - 4ac); the eigenvalues are real, negative and
        satisfy lambda1*lambda2 = ac, lambda1+lambda2 = -(a+b+c).
        """
        s = self.a + self.b + self.c
        r = math.sqrt(s * s - 4.0 * self.a * self.c)
        return 0.5 * (-s + r), 0.5 * (-s - r), r


class BirthDeathParams(namedtuple("BirthDeathParams", "a d f g")):
    """Adoption with arrivals into the potential pool and attrition.

    d: birth rate into the pool, f: death rate of potentials, g: death
    rate of subscribers. Assumes a + f > d + g so the pool drains.
    """

    __slots__ = ()

    def __new__(cls, a: float, d: float, f: float, g: float):
        if not a > 0:
            raise ParameterError("adoption rate a must be positive")
        if min(d, f, g) < 0:
            raise ParameterError("birth/death rates must be nonnegative")
        if not a + f > d + g:
            raise ParameterError("requires a + f > d + g")
        return super().__new__(cls, a, d, f, g)


class LatencyTimes(NamedTuple):
    """Strategic latency indicators of a single-supplier market."""

    t50: float
    t10: float
    t10_already_reached: bool = False


# ---------------------------------------------------------------------------
# Paths and metrics
# ---------------------------------------------------------------------------

def simple_path(m: SimpleAdoption, grid: Sequence[float]) -> Trajectory:
    """u(t) = 1 - (1 - u0) e^{-a t} and demand D(t) = a N (1 - u0) e^{-a t}."""
    a, u0, N = m.a, m.u0, m.N
    u = [1.0 - (1.0 - u0) * math.exp(-a * t) for t in grid]
    d = [a * N * (1.0 - u0) * math.exp(-a * t) for t in grid]
    return from_channels(grid, {"u": u, "D": d})


def simple_latency(m: SimpleAdoption) -> LatencyTimes:
    """Times to reach 50% and 10% of the market.

    With an empty start these are ln 2 / a and ln(10/9) / a, hence
    T10 = 0.152 T50. A positive initial share u0 below the target share
    inverts the closed form: t = (ln(1 - u0) - ln(1 - share)) / a.
    """
    if m.u0 == 0.0:
        return LatencyTimes(t50=math.log(2.0) / m.a, t10=math.log(10.0 / 9.0) / m.a)
    if m.u0 >= 0.5:
        return LatencyTimes(t50=0.0, t10=0.0, t10_already_reached=True)

    def time_to(share: float) -> float:
        return (math.log1p(-m.u0) - math.log1p(-share)) / m.a

    if m.u0 >= 0.1:
        return LatencyTimes(t50=time_to(0.5), t10=0.0, t10_already_reached=True)
    return LatencyTimes(t50=time_to(0.5), t10=time_to(0.1))


def scheduled_path(schedule: RateSchedule, u0: float, grid: Sequence[float],
                   N: float = 1.0) -> Trajectory:
    """Share under a time-dependent rate: u = 1 - (1 - u0) exp(-int a).

    The integral of a(t) is exact for every schedule kind; tabulated
    schedules integrate their piecewise-linear interpolant.
    """
    if not 0.0 <= u0 <= 1.0:
        raise ParameterError("initial share u0 must lie in [0, 1]")
    u, d = [], []
    for t in grid:
        decay = math.exp(-schedule.cumulative(t))
        u.append(1.0 - (1.0 - u0) * decay)
        d.append(schedule.rate(t) * N * (1.0 - u0) * decay)
    return from_channels(grid, {"u": u, "D": d})


def segmented_path(segments: Sequence[Segment], N: float,
                   grid: Sequence[float]) -> Trajectory:
    """Independent segments: u = 1 - sum_i n_i exp(-int a_i)."""
    total = math.fsum(s.n for s in segments)
    if abs(total - 1.0) > 1e-12:
        raise ParameterError(f"segment sizes must sum to 1, got {total!r}")
    parts = [(s.n, s.schedule) for s in segments]
    u, d = [], []
    for t in grid:
        drop = 0.0
        dem = 0.0
        for n, schedule in parts:
            decay = math.exp(-schedule.cumulative(t))
            drop += n * decay
            dem += schedule.rate(t) * (n * N) * decay
        u.append(1.0 - drop)
        d.append(dem)
    return from_channels(grid, {"u": u, "D": d})


def _hesitation_absorbing(p: HesitationParams, t: float) -> tuple[float, float, float]:
    s = p.a + p.b
    h = p.b * numerics.decay_gap(p.c, s, t)
    return math.exp(-s * t), h, -math.expm1(-s * t) - h


def _hesitation_returning(p: HesitationParams, t: float) -> tuple[float, float, float]:
    lam1, lam2, r = p.eigenvalues()
    c = p.c
    e1, e2 = math.exp(lam1 * t), math.exp(lam2 * t)
    pot = ((c + lam1) * e1 - (c + lam2) * e2) / r
    h = p.b * (e1 - e2) / r
    return pot, h, 1.0 - pot - h


def hesitation_path(p: HesitationParams, grid: Sequence[float],
                    N: float = 1.0) -> Trajectory:
    """Potential / hesitant / subscriber shares from a clean start.

    p(0) = 1, h(0) = u(0) = 0, and p + h + u = 1 at every sample.
    Demand is N(a p + c h) for the absorbing variant and N a p for the
    returning variant (subscriptions only happen out of P there).
    """
    absorbing = p.variant == "absorbing_hesitation"
    closed = _hesitation_absorbing if absorbing else _hesitation_returning
    a, c = p.a, p.c
    pot, hes, sub, dem = [], [], [], []
    for t in grid:
        pp, hh, uu = closed(p, t)
        pot.append(pp)
        hes.append(hh)
        sub.append(uu)
        dem.append(N * (a * pp + c * hh) if absorbing else N * a * pp)
    return from_channels(grid, {"p": pot, "h": hes, "u": sub, "D": dem})


def birth_death_path(p: BirthDeathParams, grid: Sequence[float],
                     N: float = 1.0) -> Trajectory:
    """Share with pool churn: u = a (e^{-gt} - e^{-(a+f-d)t}) / (a+f-d-g).

    The divided difference is exact at any gap between the two rates, so
    no branch is needed as a + f - d approaches g (u = a t e^{-gt} there).
    Demand is the subscription inflow a N p(t) = a N e^{-(a+f-d)t}; the
    printed exponent deliberately omits g, because the pool p(t) does
    not feel the subscriber death rate.
    """
    a, g = p.a, p.g
    k = a + p.f - p.d
    pot, sub, dem = [], [], []
    for t in grid:
        pool = math.exp(-k * t)
        pot.append(pool)
        sub.append(a * numerics.decay_gap(g, k, t))
        dem.append(a * N * pool)
    return from_channels(grid, {"p": pot, "u": sub, "D": dem})
