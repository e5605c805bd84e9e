"""Single-supplier adoption models without market feedback.

All models resolve to closed forms. The normalized share u(t) starts at
u0 and climbs toward an asymptote (1 for a constant rate; possibly less
for decaying or truncated rate schedules). Demand is D(t) = N du/dt.
"""

from __future__ import annotations

import bisect
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
        scale = self.a0 / self.beta
        if scale == math.inf:  # a0 (1 - e^(-beta dt)) / beta, of which a0 / beta overflows
            return self.a0 * math.exp(-self.beta * start) * (
                -math.expm1(-self.beta * (t - start)) / self.beta)
        return -scale * math.exp(-self.beta * start) * math.expm1(-self.beta * (t - start))

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

    # No __slots__: the instance dict holds what is fixed for the schedule,
    # which equality and hashing leave out: ``_knots``, the knot times, and
    # ``_pieces``, the trapezoid over each knot interval.

    def __new__(cls, points: tuple[tuple[float, float], ...]):
        if len(points) < 1:
            raise ParameterError("tabulated schedule needs at least one point")
        for (t0, r0), (t1, _) in zip(points, points[1:]):
            if not t1 > t0:
                raise ParameterError("tabulated times must be strictly increasing")
        if any(r < 0 for _, r in points):
            raise ParameterError("tabulated rates must be nonnegative")
        self = super().__new__(cls, points)
        self._knots = knots = tuple(k for k, _ in points)
        rates = [self.rate(k) for k in knots]
        self._pieces = tuple(0.5 * (k1 - k0) * (r0 + r1) for k0, k1, r0, r1
                             in zip(knots, knots[1:], rates, rates[1:]))
        return self

    def rate(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        # The interval that ends at the first knot at or after t.
        k = bisect.bisect_left(self._knots, t)
        (t0, r0), (t1, r1) = pts[k - 1], pts[k]
        w = (t - t0) / (t1 - t0)
        return r0 + w * (r1 - r0)

    def cumulative(self, t: float, start: float = 0.0) -> float:
        # The rate is linear between knots and constant outside the table,
        # so the trapezoid rule is exact on each piece: the partial pieces
        # from start to the first knot inside (start, t) and from the last
        # one to t, and the stored pieces between those knots, summed in
        # time order.
        if not t > start:
            return 0.0
        knots, rate = self._knots, self.rate
        first = bisect.bisect_right(knots, start)
        end = bisect.bisect_left(knots, t)
        if first == end:
            pieces = (0.5 * (t - start) * (rate(start) + rate(t)),)
        else:
            k0, k1 = knots[first], knots[end - 1]
            pieces = (0.5 * (k0 - start) * (rate(start) + rate(k0)),
                      *self._pieces[first:end - 1],
                      0.5 * (t - k1) * (rate(k1) + rate(t)))
        return math.fsum(pieces)


RateSchedule = Union[ConstantRate, LinearRate, ExpDecayRate, CutoffRate, TabulatedRate]


# ---------------------------------------------------------------------------
# Model parameter sets
# ---------------------------------------------------------------------------

class SimpleAdoption(namedtuple("SimpleAdoption", "a u0 N")):
    """Constant adoption rate a for everyone; the mean wait is 1/a."""

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


# ---------------------------------------------------------------------------
# Paths and metrics
# ---------------------------------------------------------------------------

def simple_path(m: SimpleAdoption, grid: Sequence[float]) -> Trajectory:
    """u(t) = 1 - (1 - u0) e^{-a t} and demand D(t) = a N (1 - u0) e^{-a t}."""
    a, rest = m.a, 1.0 - m.u0
    scale = a * m.N * rest
    decay = [math.exp(-a * t) for t in grid]
    u = [1.0 - rest * e for e in decay]
    d = [scale * e for e in decay]
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
        return LatencyTimes(t50=0.0, t10=0.0)

    def time_to(share: float) -> float:
        return (math.log1p(-m.u0) - math.log1p(-share)) / m.a

    if m.u0 >= 0.1:
        return LatencyTimes(t50=time_to(0.5), t10=0.0)
    return LatencyTimes(t50=time_to(0.5), t10=time_to(0.1))


def _demand(d: float) -> float:
    """A demand rate(t) N (1 - u0) e^(-int a), or 0 where it is inf * 0: a
    rate or size past the double range times a decay factor or market that is 0."""
    return d if d == d else 0.0


def scheduled_path(schedule: RateSchedule, u0: float, grid: Sequence[float],
                   N: float = 1.0) -> Trajectory:
    """Share under a time-dependent rate: u = 1 - (1 - u0) exp(-int a).

    The integral of a(t) is exact for every schedule kind; tabulated
    schedules integrate their piecewise-linear interpolant.
    """
    if not 0.0 <= u0 <= 1.0:
        raise ParameterError("initial share u0 must lie in [0, 1]")
    cumulative, rate, rest = schedule.cumulative, schedule.rate, 1.0 - u0
    decay = [math.exp(-cumulative(t)) for t in grid]
    u = [1.0 - rest * e for e in decay]
    d = [_demand(rate(t) * N * rest * e) for t, e in zip(grid, decay)]
    return from_channels(grid, {"u": u, "D": d})


def segmented_path(segments: Sequence[Segment], N: float,
                   grid: Sequence[float]) -> Trajectory:
    """Independent segments: u = 1 - sum_i n_i exp(-int a_i)."""
    total = math.fsum(s.n for s in segments)
    if abs(total - 1.0) > 1e-12:
        raise ParameterError(f"segment sizes must sum to 1, got {total!r}")
    drop, d = [0.0] * len(grid), [0.0] * len(grid)
    for s in segments:
        n, size, cumulative, rate = s.n, s.n * N, s.schedule.cumulative, s.schedule.rate
        decay = [math.exp(-cumulative(t)) for t in grid]
        drop = [x + n * e for x, e in zip(drop, decay)]
        d = [x + _demand(rate(t) * size * e) for x, t, e in zip(d, grid, decay)]
    return from_channels(grid, {"u": [1.0 - x for x in drop], "D": d})


def _hesitation_absorbing(p: HesitationParams, grid: Sequence[float], N: float) -> tuple:
    a, b, c = p.a, p.b, p.c
    s, decay_gap, exp, expm1 = a + b, numerics.decay_gap, math.exp, math.expm1
    pot = [exp(-s * t) for t in grid]
    hes = [b * decay_gap(c, s, t) for t in grid]
    sub = [-expm1(-s * t) - h for t, h in zip(grid, hes)]
    return pot, hes, sub, [N * (a * pp + c * hh) for pp, hh in zip(pot, hes)]


def _hesitation_returning(p: HesitationParams, grid: Sequence[float], N: float) -> tuple:
    lam1, lam2, r = p.eigenvalues()
    b, k1, k2, scale, exp = p.b, p.c + lam1, p.c + lam2, N * p.a, math.exp
    pot, hes = [], []
    for t in grid:
        e1, e2 = exp(lam1 * t), exp(lam2 * t)
        pot.append((k1 * e1 - k2 * e2) / r)
        hes.append(b * (e1 - e2) / r)
    return pot, hes, [1.0 - pp - hh for pp, hh in zip(pot, hes)], [scale * pp for pp in pot]


def hesitation_path(p: HesitationParams, grid: Sequence[float],
                    N: float = 1.0) -> Trajectory:
    """Potential / hesitant / subscriber shares from a clean start.

    p(0) = 1, h(0) = u(0) = 0, and p + h + u = 1 at every sample.
    Demand is N(a p + c h) for the absorbing variant and N a p for the
    returning variant (subscriptions only happen out of P there).
    """
    closed = (_hesitation_absorbing if p.variant == "absorbing_hesitation"
              else _hesitation_returning)
    pot, hes, sub, dem = closed(p, grid, N)
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
    k, scale, decay_gap = a + p.f - p.d, a * N, numerics.decay_gap
    pot = [math.exp(-k * t) for t in grid]
    sub = [a * decay_gap(g, k, t) for t in grid]
    return from_channels(grid, {"p": pot, "u": sub, "D": [scale * pool for pool in pot]})
