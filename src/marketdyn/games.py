"""Lifecycle models for games and services with limited popularity.

Three compartments evolve under conservation B + P + Q = N: potential
buyers B, active players P, and quitters Q. The inflow intensity a(t, P)
may be externally driven or player-stimulated, the quit intensity b(t, Q)
constant or quitter-stimulated, and an optional never-buy intensity c(t)
drains B directly (only meaningful when the inflow does not depend on P).

Six parameter shapes are covered, each declared once in ``CASES``: its
parameter record and the document fields they are read from, its
intensities, the one route of its path, its closed-form peak where it has
one, and the metric rows it adds. Case 1 (externally driven) has a closed
form for constant rates; any other rate schedules go through one
integrating-factor integral, which takes a step's sales from the drop in
B, less a quadrature of the smaller drain. Case 2 is the classic epidemic
model and case 4 its variant with quitter-stimulated exits; both have an
exact B(Q), so a path inverts the time integral t(Q), held as Chebyshev
series over windows, by Newton iteration on those series; the same clock
gives their final size, their peak and case 2's calibration. Case 5
reduces to a linear equation via the Riccati substitution; cases 3 and 6
integrate directly. A route starts from any grid row, so a peak without a
closed form is refined on the route that printed the path. A
complementary-game coupling (sales of one title driving another) treats
the driver's player count as a rate.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence, Union

from . import numerics
from .errors import CalibrationInfeasibleError, DomainError, InitiationError, ParameterError
from .monopoly import ConstantRate, RateSchedule
from .trajectory import Trajectory, from_channels


def _as_schedule(value) -> RateSchedule:
    if isinstance(value, (int, float)):
        return ConstantRate(float(value))
    return value


# ---------------------------------------------------------------------------
# States and cases
# ---------------------------------------------------------------------------

class BpqState(namedtuple("BpqState", "B P Q")):
    """Compartment sizes; the population N is their conserved sum."""

    __slots__ = ()

    def __new__(cls, B: float, P: float, Q: float):
        if min(B, P, Q) < 0:
            raise ParameterError("compartment sizes must be nonnegative")
        return super().__new__(cls, B, P, Q)


class _Seeded:
    """Initial state: the seeds P0 and Q0 a case declares; the rest of N may buy."""

    __slots__ = ()

    @property
    def B0(self) -> float:
        return self.N - getattr(self, "P0", 0.0) - getattr(self, "Q0", 0.0)

    @property
    def initial(self) -> BpqState:
        return BpqState(self.B0, getattr(self, "P0", 0.0), getattr(self, "Q0", 0.0))


class Case1(namedtuple("Case1", "a b c N"), _Seeded):
    """Externally driven inflow and quit intensities a(t), b(t), c(t)."""

    __slots__ = ()

    def __new__(cls, a: RateSchedule, b: RateSchedule, c: RateSchedule, N: float):
        a, b, c = map(_as_schedule, (a, b, c))
        if not N > 0:
            raise ParameterError("population N must be positive")
        return super().__new__(cls, a, b, c, N)


class Case2(namedtuple("Case2", "beta b N P0 Q0"), _Seeded):
    """Player-stimulated inflow beta*P against a constant quit rate b.

    Identical to the susceptible/infected/recovered epidemic system
    under B -> S, P -> I, Q -> R.
    """

    __slots__ = ()

    def __new__(cls, beta: float, b: float, N: float, P0: float, Q0: float = 0.0):
        if not (beta > 0 and b > 0 and N > 0):
            raise ParameterError("beta, b and N must be positive")
        if not P0 > 0:
            raise InitiationError(
                "player-stimulated inflow needs P(0) > 0: with no initial "
                "players there will be no players in the future")
        if Q0 < 0 or P0 + Q0 > N:
            raise ParameterError("seed populations exceed N")
        return super().__new__(cls, beta, b, N, P0, Q0)


class Case3(namedtuple("Case3", "a beta b N"), _Seeded):
    """Mixed inflow a + beta*P against a constant quit rate b."""

    __slots__ = ()

    def __new__(cls, a: float, beta: float, b: float, N: float):
        if not (a > 0 and N > 0):
            raise ParameterError("a and N must be positive")
        if beta < 0 or b < 0:
            raise ParameterError("beta and b must be nonnegative")
        return super().__new__(cls, a, beta, b, N)


class Case4(namedtuple("Case4", "beta gamma N P0 Q0"), _Seeded):
    """Player-stimulated inflow beta*P and quitter-stimulated exits gamma*Q."""

    __slots__ = ()

    def __new__(cls, beta: float, gamma: float, N: float, P0: float, Q0: float):
        if not (beta > 0 and gamma > 0 and N > 0):
            raise ParameterError("beta, gamma and N must be positive")
        if not P0 > 0:
            raise InitiationError("stimulated inflow needs P(0) > 0 to start")
        if not gamma * Q0 > 0:
            raise InitiationError(
                "quitter-stimulated exits need gamma Q(0) > 0: there must be an "
                "initial population of quitters")
        if P0 + Q0 > N:
            raise ParameterError("seed populations exceed N")
        return super().__new__(cls, beta, gamma, N, P0, Q0)


class Case5(namedtuple("Case5", "a gamma N Q0 P0"), _Seeded):
    """Constant inflow a with quitter-stimulated exits gamma*Q."""

    __slots__ = ()

    def __new__(cls, a: float, gamma: float, N: float, Q0: float, P0: float = 0.0):
        if not (a > 0 and gamma > 0 and N > 0):
            raise ParameterError("a, gamma and N must be positive")
        if not Q0 > 0:
            raise InitiationError(
                "quitter-stimulated exits need Q(0) > 0: there must be an "
                "initial population of quitters")
        if P0 < 0 or P0 + Q0 > N:
            raise ParameterError("seed populations exceed N")
        return super().__new__(cls, a, gamma, N, Q0, P0)


class Case6(namedtuple("Case6", "a b gamma N"), _Seeded):
    """Constant inflow a with mixed exits b + gamma*Q."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, gamma: float, N: float):
        if not (a > 0 and b > 0 and gamma > 0 and N > 0):
            raise ParameterError("a, b, gamma and N must be positive")
        return super().__new__(cls, a, b, gamma, N)


BpqCase = Union[Case1, Case2, Case3, Case4, Case5, Case6]


class PeakMetrics(NamedTuple):
    """Time and height of the player peak plus the total ever-bought count."""

    T_m: float
    P_m: float
    C_inf: float


class ComplementarySpec(namedtuple("ComplementarySpec", "g b a_c b_c tau N N_c")):
    """Game 1 adoption driven by the player count of a companion game 2.

    Game 2 launched ``tau`` time units before game 1 (negative tau:
    after); its own lifecycle is externally driven with rates a_c, b_c.
    Buyers of game 1 arrive at intensity g * P_c(t) and quit at rate b.
    """

    __slots__ = ()

    def __new__(cls, g: float, b: float, a_c: float, b_c: float, tau: float = 0.0,
                N: float = 1.0, N_c: float | None = None):
        if not (g > 0 and b > 0 and a_c > 0 and b_c > 0):
            raise ParameterError("g, b, a_c and b_c must be positive")
        if not N > 0:
            raise ParameterError("population N must be positive")
        if N_c is not None and not N_c > 0:
            raise ParameterError("population N_c must be positive")
        return super().__new__(cls, g, b, a_c, b_c, tau, N, N_c)

    @property
    def companion_population(self) -> float:
        return self.N if self.N_c is None else self.N_c


# ---------------------------------------------------------------------------
# The intensities and the path routes' common parts
# ---------------------------------------------------------------------------

def intensities(case: BpqCase):
    """(a(t, state), b(t, state), c(t)) triples of a case."""
    return case_entry(case).intensities(case)


def _package(grid, B, P, Q, D, C, **companion) -> Trajectory:
    """The trajectory; DomainError where a value left the range of a double."""
    if not all(map(math.isfinite, itertools.chain(B, P, Q, D, C))):
        raise DomainError("the demand or a compartment exceeds the range of a double")
    return from_channels(grid, {"B": B, "P": P, "Q": Q, **companion, "D": D, "C": C})


#: The row (B, P, Q, C) a path starts from at its grid's first time; None:
#: the case's initial state, with no sales yet.
_Start = Union[Sequence[float], None]


def _start(case: BpqCase, start: _Start) -> Sequence[float]:
    init = case.initial
    return start or (init.B, init.P, init.Q, 0.0)


# ---------------------------------------------------------------------------
# Case 1: externally driven
# ---------------------------------------------------------------------------

def _case1_constants(case: Case1, grid: Sequence[float], start: _Start = None) -> Trajectory:
    a, b, c, N = case.a.a, case.b.a, case.c.a, case.N
    B0, P0, _, C0 = _start(case, start)
    s, t0, exp, expm1 = a + c, grid[0], math.exp, math.expm1
    # numerics.decay_gap(b, s, tau) and decay_gap(0, s, tau) written out, so
    # that each sample takes e^(-s tau) and e^(-b tau) once.
    low_is_s = b > s
    gap = b - s if low_is_s else s - b
    B, P, C = [], [], []
    for t in grid:
        tau = t - t0
        es, eb = exp(-s * tau), exp(-b * tau)
        low = es if low_is_s else eb
        B.append(B0 * es)
        P.append(P0 * eb + B0 * (a * (tau * low if gap * tau == 0.0
                                      else -expm1(-gap * tau) / gap * low)))
        C.append(C0 + B0 * (a * (tau if s * tau == 0.0 else -expm1(-s * tau) / s)))
    Q = [N - Bt - Pt for Bt, Pt in zip(B, P)]
    return _package(grid, B, P, Q, [a * Bt for Bt in B], C)


def case1_peak(a: float, b: float, c: float, N: float = 1.0) -> PeakMetrics:
    """Player peak of the constant-rate branch.

    T_m = (ln(a+c) - ln b)/(a+c-b), which is 1/b when b = a+c, and
    P_m = P(T_m); both are exact at any gap between b and a + c. The total
    ever-bought count is a N / (a + c).
    """
    if min(a, b) <= 0 or c < 0:
        raise ParameterError("needs a, b > 0 and c >= 0")
    s = a + c
    t_m = numerics.log_gap(s, b)
    return PeakMetrics(T_m=t_m, P_m=N * (a * numerics.decay_gap(b, s, t_m)), C_inf=N * (a / s))


def calibrate_case1(t_m: float, ratio: float) -> float:
    """Total drain rate a + c from a chosen peak time and ratio (a+c)/b."""
    if not (t_m > 0 and ratio > 0):
        raise ParameterError("peak time and rate ratio must be positive")
    return ratio * numerics.log_gap(ratio, 1.0) / t_m


def _case1_general(case: Case1, grid: Sequence[float], start: _Start = None) -> Trajectory:
    """Integrating-factor solution for arbitrary rate schedules.

    P(t) integrates the demand a(u) B(u) under the survival weight
    exp(-int_u^t b) <= 1. Over a step, the weight at its start multiplies
    the step's sales, so a demand spike there needs no quadrature node;
    quadrature carries the weight's rise. Each step's drains are integrals
    over the step itself, which keep their digits late in time.
    """
    a_rate, a_cum = case.a.rate, case.a.cumulative
    b_rate, b_cum = case.b.rate, case.b.cumulative
    c_rate, c_cum = case.c.rate, case.c.cumulative
    t0 = prev_t = grid[0]
    B0, p_acc, _, c_acc = _start(case, start)
    B, P, Q, D, C = [], [], [], [], []
    exp, expm1 = math.exp, math.expm1

    def drain(u: float, lo: float) -> float:
        return a_cum(u, lo) + c_cum(u, lo)

    def quits(lo: float, span: float) -> float:
        """int b over [lo, lo + span] to the digits of span, where lo + span
        rounds: the mean of b over the rounded span, times span itself."""
        end = lo + span
        return span * (b_cum(end, lo) / (end - lo) if end > lo else b_rate(lo))

    def sales(b_lo: float, lo: float, t: float) -> float:
        """Sales int a B over [lo, t] from B(lo) = b_lo: quadrature of the
        smaller drain, a B or c B, and the sales are that or the drop
        int (a + c) B less it. Reflected (u -> -u), the weight B / b_lo rises
        toward lo, where the window of ``numerics.shifted_integral_step``
        holds a fast drain's spike."""
        d_a, d_c = a_cum(t, lo), c_cum(t, lo)
        drop = -b_lo * expm1(-(d_a + d_c))
        by_inflow = d_a < d_c
        small = a_rate if by_inflow else c_rate
        part = 0.0 if b_lo == 0.0 or min(d_a, d_c) == 0.0 else numerics.shifted_integral_step(
            0.0, lambda y: small(lo - y) * b_lo * exp(-(a_cum(lo - y, lo) + c_cum(lo - y, lo))),
            lambda y: -(a_cum(lo - y, lo) + c_cum(lo - y, lo)), -t, -lo)
        return part if by_inflow else drop - part

    for t in grid:
        if t > t0:
            lo, b_lo = prev_t, B[-1]
            sold = sales(b_lo, lo, t)
            p_acc = numerics.shifted_integral_step(
                p_acc + sold,
                lambda y: (-a_rate(t + y) * b_lo * exp(-drain(t + y, lo))
                           * expm1(-quits(lo, (t - lo) + y)) * exp(-b_cum(t, t + y))),
                lambda y: -b_cum(t, t + y), lo, t)
            c_acc += sold
        Bt = B0 * exp(-drain(t, t0))
        prev_t = t
        B.append(Bt)
        P.append(p_acc)
        Q.append(case.N - Bt - p_acc)
        D.append(a_rate(t) * Bt)
        C.append(c_acc)
    return _package(grid, B, P, Q, D, C)


def _constant_rates(case: Case1) -> bool:
    return all(isinstance(s, ConstantRate) for s in (case.a, case.b, case.c))


def _case1_path(case: Case1, grid: Sequence[float], start: _Start = None) -> Trajectory:
    """The closed form for constant rates (exact at any gap between b and
    a + c); the integrating-factor route for any other schedules."""
    if _constant_rates(case):
        return _case1_constants(case, grid, start)
    return _case1_general(case, grid, start)


# ---------------------------------------------------------------------------
# Cases 2 and 4: paths through the time integral t(Q)
# ---------------------------------------------------------------------------

#: Newton steps after which a root of t(s) or of the final-size equation keeps
#: its last iterate; about 60 halvings take any bracket in s down to rounding.
_MAX_NEWTON_STEPS = 200
#: Length in s of the quit clock's first window.
_CLOCK_SPAN = 8.0
_OUT_OF_RANGE = "the seed P0 and the rates put this game outside the range of a double"


class _QuitClock:
    """The time integral t(Q) = int dQ / (rate(Q) P(Q)) of case 2 or 4, and its inverse.

    B(Q) is exact: log(B(q) / B(q + d)) is (beta/b) d in case 2 and
    (beta/gamma) log1p(d/q) in case 4; the quit rate is b or gamma Q. With
    Delta = Q - Q0 and the gap g = q_inf - Q to the final size, P does not
    cancel at either end, since N = B0 + P0 + Q0 = B_inf + q_inf:
    P = P0 - Delta - B0 expm1(-drop(Q0, Delta)) while Delta <= g, and
    P = g - B_inf expm1(drop(Q, g)) after. Time is integrated in
    s = log(Delta / g), where dt/ds = Delta g / (g0 rate P), g0 = Delta + g,
    stays bounded at both ends: over windows in s from s_lo, each a
    Chebyshev series of dt/ds, built as far as a time or a Q asks.
    """

    def __init__(self, case: Case2 | Case4):
        beta, B0, P0, Q0 = case.beta, case.B0, case.P0, case.Q0
        if isinstance(case, Case2):
            ratio, rate_scale = beta / case.b, math.inf
            self.drop = lambda q, d: ratio * d
            self.rate = lambda q: case.b
        else:
            ratio, rate_scale = beta / case.gamma, Q0
            self.drop = lambda q, d: ratio * math.log1p(d / q)
            self.rate = lambda q: case.gamma * q
        self.B0, self.P0, self.Q0 = B0, P0, Q0
        # Final size: Newton on the start form of P(Q0 + d) = 0 with its exact
        # derivative beta B / rate - 1. P is concave in d, so the iterates fall
        # monotonically onto the root from N - Q0, or from the zero of the
        # tangent at d = 0 when P falls from the start (spread < 1).
        spread = beta * B0 / self.rate(Q0)
        d = min(P0 + B0, P0 / (1.0 - spread)) if spread < 1.0 else P0 + B0
        for _ in range(_MAX_NEWTON_STEPS):
            x = self.drop(Q0, d)
            slope = beta * B0 * math.exp(-x) / self.rate(Q0 + d) - 1.0
            if slope == 0.0:  # rates so small that beta B / rate rounds to 1
                raise DomainError(_OUT_OF_RANGE)
            nxt = d - (P0 - d - B0 * math.expm1(-x)) / slope
            if not nxt < d:
                break
            d = nxt
        if not d > 0.0:  # a step overshot a root below the start's resolution
            raise DomainError(_OUT_OF_RANGE)
        self.g0, self.q_inf, self.B_inf = d, Q0 + d, B0 * math.exp(-self.drop(Q0, d))
        self.log_g0 = math.log(d)
        # Past s_cap the gap is below e^-690: dt/ds is held there, as it keeps
        # its value to rounding from s = 40 on, so t is linear in s.
        self.s_cap = self.log_g0 + 690.0
        # 40 e-folds below the Delta at which P or the quit rate starts to
        # move, t(s) equals dt/ds = Delta / (rate P0) to rounding.
        stiff = max(1.0, spread, P0 / rate_scale)
        self.s_lo = min(math.log(P0) - math.log(stiff) - self.log_g0, 0.0) - 40.0
        self.t_lo = self.dt_ds(self.s_lo)
        if not (self.t_lo > 0.0 and self.s_cap > 40.0):
            raise DomainError(_OUT_OF_RANGE)
        # Windows in s from s_lo, built as far as a time asks: their starts,
        # t at each start, and their Chebyshev series of dt/ds.
        self._starts, self._times, self._windows = [self.s_lo], [self.t_lo], []
        self._span = _CLOCK_SPAN
        # The last root of solve: its window, offset, time in the window and dt/ds.
        self._last = (-1, 0.0, 0.0, 0.0)
        # The peak, where beta B = rate(Q): B(T_m) = b / beta in case 2 (Kermack
        # & McKendrick, 1927); in case 4, with B(Q), Q(T_m) = [beta B0
        # Q0^(beta/gamma) / gamma]^(gamma/(beta+gamma)), taken in logs and
        # clamped to [Q0, q_inf). Without an interior peak P0 at t = 0 is the top.
        if not beta * B0 > self.rate(Q0):
            self.Q_Tm, self.B_Tm, self.P_Tm = Q0, B0, P0
        elif isinstance(case, Case2):
            self.B_Tm = case.b / beta
            self.Q_Tm = Q0 + (case.b / beta) * math.log(beta * B0 / case.b)
            self.P_Tm = case.N - self.B_Tm - self.Q_Tm
        else:
            log_q = (math.log(ratio) + math.log(B0) + ratio * math.log(Q0)) / (1.0 + ratio)
            self.Q_Tm = min(max(math.exp(log_q), Q0), math.nextafter(self.q_inf, 0.0))
            self.B_Tm = self.rate(self.Q_Tm) / beta
            self.P_Tm = case.N - (1.0 + case.gamma / beta) * self.Q_Tm

    def _at(self, s: float) -> tuple[float, float, float, float, float]:
        """(Delta g / g0, Delta, P, Q, C) at s, where C = B0 - B have bought."""
        a = -s if s < 0 else s
        e = math.exp(-a)
        small = math.exp(self.log_g0 - a) / (1.0 + e)
        w = small / (1.0 + e)
        if s < 0:
            c = -self.B0 * math.expm1(-self.drop(self.Q0, small))
            return w, small, self.P0 - small + c, self.Q0 + small, c
        # y = B - B_inf. Past Delta = g, B <= B0 e^-drop(Q, g), so holding the
        # exponent at 700 moves y by less than B0 e^-700.
        q = self.q_inf - small
        y = self.B_inf * math.expm1(min(self.drop(q, small), 700.0))
        return w, self.g0 / (1.0 + e), small - y, q, self.B0 - self.B_inf - y

    def dt_ds(self, s: float) -> float:
        w, _, p, q, _ = self._at(s if s < self.s_cap else self.s_cap)
        return w / p / self.rate(q)

    def _extend(self) -> None:
        """Appends the window that starts where the last one ends: the
        longest of the trial span, halved as often as its series misses the
        tolerance, that stays below s_cap or lies beyond it. The next trial
        span is twice that length where the series' tail is below a
        thousandth of the tolerance, and that length otherwise. Where
        w = Delta g / g0 falls below the smallest normal double, rounding
        leaves it an absolute accuracy only, so dt/ds = w / (rate P) is
        resolved to the tolerance times the dt/ds of that smallest w."""
        s0, span = self._starts[-1], self._span
        _, _, p, q, _ = self._at(min(s0, self.s_cap))
        floor = 2.0 ** -1022 / p / self.rate(q)
        while True:
            length = min(span, self.s_cap - s0) if s0 < self.s_cap else span
            if not length > 2.0 ** -40 * max(1.0, abs(s0)):
                raise DomainError(_OUT_OF_RANGE)
            window = numerics.chebyshev_window(lambda x: self.dt_ds(s0 + x), length, floor)
            if window is not None:
                break
            span *= 0.5
        rise = window.integral(length)
        if not rise > 0.0:  # dt/ds underflowed: t would stop
            raise DomainError(_OUT_OF_RANGE)
        self._span = 2.0 * length if window.tail <= 1e-3 * numerics.WINDOW_TOL else length
        self._windows.append(window)
        self._starts.append(s0 + length)
        self._times.append(self._times[-1] + rise)

    def time_of(self, q: float) -> float:
        """t(Q) for Q in [Q0, q_inf); DomainError outside that reachable range."""
        if not self.Q0 <= q < self.q_inf:
            raise DomainError(
                f"q_target must lie in [{self.Q0}, {self.q_inf:.6g}) (reachable range)")
        if q == self.Q0:
            return 0.0
        s = math.log(q - self.Q0) - math.log(self.q_inf - q)
        if s < self.s_lo:
            return self.t_lo * math.exp(s - self.s_lo)
        while s >= self._starts[-1]:
            self._extend()
        i = bisect.bisect_right(self._starts, s) - 1
        return self._times[i] + self._windows[i].integral(s - self._starts[i])

    def solve(self, target: float) -> float:
        """Root s of t(s) = target >= t_lo.

        Safeguarded Newton on the series of the window that holds the root.
        It starts with a Newton step from the last root where that lies in
        the same window, as the samples of a path do, and from the chord
        across the window otherwise. It stops once the error left after a
        step, estimated as step^3 / previous^2, is below rounding: an error
        in s is the relative error of Delta and of g.
        """
        while target >= self._times[-1]:
            self._extend()
        i = bisect.bisect_right(self._times, target) - 1
        window, rest = self._windows[i], target - self._times[i]
        lo, hi, prev = 0.0, window.length, None
        x = hi * rest / (self._times[i + 1] - self._times[i])
        if self._last[0] == i and self._last[3] > 0.0:
            _, last, last_rest, last_rate = self._last
            guess = last + (rest - last_rest) / last_rate
            if lo < guess < hi and guess != last:
                x, prev = guess, abs(guess - last)
        rate = 0.0
        for _ in range(_MAX_NEWTON_STEPS):
            miss, rate = window.integral_and_value(x)
            miss -= rest
            if miss == 0.0:
                break
            lo, hi = (x, hi) if miss < 0.0 else (lo, x)
            step = -miss / rate
            if lo < x + step < hi:
                x += step
                if prev is not None and abs(step) * (step / prev) ** 2 <= 2.0 ** -54:
                    break
                prev = abs(step)
            elif lo <= x + step <= hi:
                x += step  # resolved as a double
                break
            else:
                x, prev = 0.5 * (lo + hi), None
                if not lo < x < hi:
                    break
        self._last = (i, x, rest, rate)
        return self._starts[i] + x


def _clock_path(case: Case2 | Case4, grid: Sequence[float], start: _Start = None) -> Trajectory:
    """Path of case 2 or 4: each sample inverts t(Q) on the clock's windows.
    Both cases are autonomous: a start row seeds a case of its own."""
    _, P0, Q0, C0 = _start(case, start)
    case = type(case)(**{**case._asdict(), "P0": P0, "Q0": Q0})
    clock = _QuitClock(case)
    rows = []
    for time in grid:
        time -= grid[0]
        if time < 0:
            raise DomainError("time must be nonnegative")
        if time >= clock.t_lo:
            root = clock.solve(time)
        else:  # t grows like e^s below s_lo
            root = clock.s_lo + math.log(time / clock.t_lo) if time > 0.0 else -math.inf
        _, d, p, q, c = clock._at(root)
        b = case.B0 * math.exp(-clock.drop(case.Q0, d))
        demand = case.beta * p * b
        if not math.isfinite(demand):
            raise DomainError(_OUT_OF_RANGE)
        rows.append((b, p, q, demand, C0 + c))
    return _package(grid, *zip(*rows))


class SirRelations(NamedTuple):
    """State relations of the player-stimulated case.

    B_inf solves the final-size equation B = B0 exp(-(beta/b)(N - B - Q0)).
    When beta*B0 <= b the player count declines from the start and the
    peak values refer to t = 0.
    """

    B_inf: float
    P_Tm: float
    B_Tm: float


def sir_relations(case: Case2) -> SirRelations:
    clock = _QuitClock(case)
    return SirRelations(B_inf=clock.B_inf, P_Tm=clock.P_Tm, B_Tm=clock.B_Tm)


def _sir_rows(case: Case2) -> list[tuple[str, float]]:
    rel = sir_relations(case)
    return [("B_inf", rel.B_inf), ("B_at_peak", rel.B_Tm), ("P_at_peak", rel.P_Tm)]


def _clock_peak(case: Case2 | Case4) -> PeakMetrics:
    """Peak of case 2 or 4 from one quit clock: T_m = t(Q(T_m)), and
    C_inf = B0 - B_inf. T_m is 0 where Q(T_m) does not exceed Q0: without an
    interior peak, or in case 4 where the final size rounds to Q0."""
    clock = _QuitClock(case)
    t_m = clock.time_of(clock.Q_Tm) if clock.Q_Tm > case.Q0 else 0.0
    return PeakMetrics(T_m=t_m, P_m=clock.P_Tm, C_inf=case.B0 - clock.B_inf)


#: Case 4's closed peak under its public name.
case4_peak = _clock_peak


def calibrate_case2(N: float, P0: float, Q0: float, t_m: float,
                    p_tm: float) -> tuple[float, float]:
    """(b, beta) of case 2 from the peak height and peak time.

    The peak height fixes x = b/beta through
    P_Tm = N - Q0 - x(1 + ln(B0/x)); b then scales the peak time of the
    game with beta = 1/x and b = 1 to T_m.
    """
    b0 = N - P0 - Q0
    if not P0 < p_tm:
        raise CalibrationInfeasibleError(
            f"peak player count must exceed the seed P0 = {P0:g}")
    if not p_tm < N - Q0:
        raise CalibrationInfeasibleError(
            f"peak player count must stay below N - Q0 = {N - Q0:g}")
    if not t_m > 0:
        raise CalibrationInfeasibleError("peak time must be positive")

    def gap(x: float) -> float:
        return N - Q0 - x * (1.0 + math.log(b0 / x)) - p_tm

    x = numerics.solve_root(gap, 1e-9 * b0, b0 * (1.0 - 1e-12), tol=1e-13 * b0)
    b = _clock_peak(Case2(beta=1.0 / x, b=1.0, N=N, P0=P0, Q0=Q0)).T_m / t_m
    return b, b / x


# ---------------------------------------------------------------------------
# Case 5: Riccati transform
# ---------------------------------------------------------------------------

def _case5_path(case: Case5, grid: Sequence[float], start: _Start = None) -> Trajectory:
    """P and Q through z = 1/Q - 1/R, where R = P + Q = N - B0 e^{-a t}.

    The Riccati substitution w = 1/Q, less its part 1/R, leaves the linear
    z' = -gamma R z + a B / R^2 with z(0) = P0 / (Q0 R0). Then
    Q = R / (1 + R z), and P = R^2 z / (1 + R z) keeps its digits as it
    falls, where N - B - Q would cancel. The integrating factor has the
    increasing exponent psi(u) = gamma N u + (gamma B0 / a) e^{-a u}, in
    time from grid[0], where the start row gives B0, P0, Q0 and the sales C0.
    Windows of grid steps over which psi rises by at most 1 take z from one
    Chebyshev series each; a step that no window shares takes a quadrature
    of its own.
    """
    a, gamma, N = case.a, case.gamma, case.N
    B0, P0, Q0, C0 = _start(case, start)

    def remaining(u: float, e: float) -> float:
        """R(u) from e = e^{-a u}: N - B once B <= N / 2, else R0 + B0 (1 - e)."""
        return N - B0 * e if e <= 0.5 else P0 + Q0 - B0 * math.expm1(-a * u)

    def source(u: float) -> float:
        e = math.exp(-a * u)
        r = remaining(u, e)
        return a * B0 * e / r / r  # r * r may underflow to 0

    def rise(t: float, r_t: float, b_t: float, y: float) -> float:
        """psi(t + y) - psi(t) for y <= 0, from R(t) = r_t and B(t) = b_t.

        It is gamma y times the mean of R over [t + y, t], which is
        R(t) - B(t) (e^x - 1 - x) / x with x = -a y: no term of size N
        cancels, and a product beyond the range of a double is -inf.
        """
        x = -a * y
        if x > 0.5:
            lost = (B0 * math.exp(-a * (t + y)) - b_t) / x - b_t
        elif x > 0.0 and b_t <= 128.0 * r_t:  # rounding of b_t cancels 7 bits at most
            lost = b_t * (math.expm1(x) - x) / x
        else:  # (e^x - 1 - x) / x summed as x^(k-1) / k! over k >= 2
            lost, term, k = 0.0, 0.5 * x, 2
            while lost + term != lost:
                lost += term
                k += 1
                term *= x / k
            lost *= b_t
        return gamma * y * (r_t - lost)

    def weighted(lo: float, x: float) -> float:
        """source(u) e^(psi(u) - psi(lo)) at u = lo + x >= lo."""
        u = lo + x
        e = math.exp(-a * u)
        r, b = remaining(u, e), B0 * e
        return a * b / r / r * math.exp(-rise(u, r, b, -x))

    def rise_from(lo: float, x: float) -> float:
        """psi(lo + x) - psi(lo) for x >= 0."""
        e = math.exp(-a * (lo + x))
        return -rise(lo + x, remaining(lo + x, e), B0 * e, -x)

    def step(z: float, lo: float, t: float) -> float:
        """z(t) from z(lo); a step much longer than 1/a ends parts at 1, 4, 16 and
        64 times 1/a past lo, where one panel's nodes miss the source's spike."""
        if a * (t - lo) > 128.0:
            for cut in [lo + k / a for k in (1.0, 4.0, 16.0, 64.0)]:
                z, lo = part(z, lo, cut), cut
        return part(z, lo, t)

    def part(z: float, lo: float, t: float) -> float:
        """z(t) from z(lo). The source a B / R^2 = -(1/R)' has the exact
        integral 1/R(lo) - 1/R(t) = (B(lo) - B(t)) / (R(lo) R(t)), so
        quadrature carries only its product with the rise of the weight
        e^(psi(u) - psi(t)) over its value at lo, which is below gamma, to a
        tolerance relative to z(t). The source taken whole peaks at
        a B0 / Q0^2 where P0 = 0, and a tiny Q0 puts its whole integral,
        about 1/Q0, out of reach of the nodes."""
        e = math.exp(-a * t)
        r_t, b_t = remaining(t, e), B0 * e
        r_lo = rise(t, r_t, b_t, lo - t)
        e_lo = math.exp(-a * lo)
        z += -B0 * e_lo * math.expm1(-a * (t - lo)) / remaining(lo, e_lo) / r_t

        def split(y: float) -> float:
            r = rise(t, r_t, b_t, y)
            return source(t + y) * -math.expm1(r_lo - r) * math.exp(r)

        return numerics.shifted_integral_step(z, split, lambda y: rise(t, r_t, b_t, y), lo, t,
                                              max(z * math.exp(r_lo), 2.0 ** -1022))

    times = [time - grid[0] for time in grid]
    zs = [P0 / Q0 / (P0 + Q0)]  # Q0 (P0 + Q0) may underflow to 0
    zs += numerics.shifted_integrals(weighted, rise_from, step, times, zs[0])
    B, P, Q, D, C = [], [], [], [], []
    for t, z in zip(times, zs):
        e = math.exp(-a * t)
        Bt, Rt = B0 * e, remaining(t, e)
        Rz = Rt * z
        B.append(Bt)
        P.append(Rt * (Rz / (1.0 + Rz)))  # Rt * Rz may overflow
        Q.append(Rt / (1.0 + Rz))
        D.append(a * Bt)
        C.append(C0 - B0 * math.expm1(-a * t))
    return _package(grid, B, P, Q, D, C)


# ---------------------------------------------------------------------------
# Cases 3 and 6: direct integration
# ---------------------------------------------------------------------------

def _case3_path(case: Case3, grid: Sequence[float], start: _Start = None) -> Trajectory:
    """Direct integration; the cumulative-sales channel C rides along as a state."""
    a_int, b_int, c_int = intensities(case)

    def rhs(t: float, s: Sequence[float]) -> list[float]:
        a = a_int(t, s)
        b = b_int(t, s)
        c = c_int(t)
        demand = a * s[0]
        return [-(a + c) * s[0], demand - b * s[1], b * s[1] + c * s[0], demand]

    rows = numerics.sample_ivp(rhs, list(_start(case, start)), grid)
    B = [r[0] for r in rows]
    P = [r[1] for r in rows]
    Q = [case.N - b - p for b, p in zip(B, P)]
    D = [a_int(t, r) * r[0] for t, r in zip(grid, rows)]
    C = [r[3] for r in rows]
    return _package(grid, B, P, Q, D, C)


def _case6_path(case: Case6, grid: Sequence[float], start: _Start = None) -> Trajectory:
    """Single Riccati equation for P with B = B0 e^{-a (t - t0)} known.

    P' = gamma P^2 - (b + gamma N - gamma B) P + a B; no simple particular
    solution exists, so this one is integrated from the start row at t0.
    """
    a, b, gamma, N = case.a, case.b, case.gamma, case.N
    B0, P0, _, C0 = _start(case, start)
    t0 = grid[0]

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        p = y[0]
        bt = B0 * math.exp(-a * (t - t0))
        return [gamma * p * p - (b + gamma * N - gamma * bt) * p + a * bt]

    rows = numerics.sample_ivp(rhs, [P0], grid)
    B = [B0 * math.exp(-a * (t - t0)) for t in grid]
    P = [r[0] for r in rows]
    Q = [N - bt - pt for bt, pt in zip(B, P)]
    D = [a * bt for bt in B]
    C = [C0 + (B0 - bt) for bt in B]
    return _package(grid, B, P, Q, D, C)


# ---------------------------------------------------------------------------
# The six cases, declared once
# ---------------------------------------------------------------------------

class _Case(NamedTuple):
    """Everything the library knows of one bpq case. Entries call this module's
    public functions through its globals, so a wrapper on one sees each call."""

    model: type            # the parameter record, built as model(N=..., **fields)
    intensities: Callable  # case -> (a(t, state), b(t, state), c(t))
    path: Callable         # (case, grid, start=None) -> trajectory; start: B, P, Q, C at grid[0]
    fields: tuple[str, ...] = ()    # numbers a document must give, in the order they are read
    optional: tuple[str, ...] = ()  # numbers read after ``fields``; absent: 0
    rates: tuple[str, ...] = ()     # rate schedules; a number is a constant rate, absent 0
    peak: Callable = lambda case: None  # case -> closed-form PeakMetrics; None: refined_peak
    c_inf: Callable | None = None   # (case, trajectory) -> C_inf beside a refined peak
    rows: Callable = lambda case: []  # case -> metric rows printed after the peak


CASES = {
    "case1": _Case(
        model=Case1, rates=("a", "b", "c"),
        intensities=lambda case: (lambda t, s: case.a.rate(t),
                                  lambda t, s: case.b.rate(t),
                                  lambda t: case.c.rate(t)),
        path=_case1_path,
        peak=lambda case: (case1_peak(case.a.a, case.b.a, case.c.a, case.N)
                           if _constant_rates(case) else None),
        c_inf=lambda case, traj: traj.channel("C")[-1]),
    "case2": _Case(
        model=Case2, fields=("beta", "b", "P0"), optional=("Q0",),
        intensities=lambda case: (lambda t, s: case.beta * s[1],
                                  lambda t, s: case.b, lambda t: 0.0),
        path=_clock_path, peak=_clock_peak, rows=_sir_rows),
    "case3": _Case(
        model=Case3, fields=("a", "beta", "b"),
        intensities=lambda case: (lambda t, s: case.a + case.beta * s[1],
                                  lambda t, s: case.b, lambda t: 0.0),
        path=_case3_path, c_inf=lambda case, traj: case.N),
    "case4": _Case(
        model=Case4, fields=("beta", "gamma", "P0", "Q0"),
        intensities=lambda case: (lambda t, s: case.beta * s[1],
                                  lambda t, s: case.gamma * s[2], lambda t: 0.0),
        path=_clock_path, peak=lambda case: case4_peak(case)),
    "case5": _Case(
        model=Case5, fields=("a", "gamma", "Q0"), optional=("P0",),
        intensities=lambda case: (lambda t, s: case.a,
                                  lambda t, s: case.gamma * s[2], lambda t: 0.0),
        path=_case5_path, c_inf=lambda case, traj: case.B0),
    "case6": _Case(
        model=Case6, fields=("a", "b", "gamma"),
        intensities=lambda case: (lambda t, s: case.a,
                                  lambda t, s: case.b + case.gamma * s[2], lambda t: 0.0),
        path=_case6_path, c_inf=lambda case, traj: case.N),
}
_BY_MODEL = {entry.model: entry for entry in CASES.values()}


def case_entry(case: BpqCase) -> _Case:
    """The table entry of a case."""
    entry = _BY_MODEL.get(type(case))
    if entry is None:
        raise ParameterError(f"unknown case {type(case).__name__}")
    return entry


def bpq_path(case: BpqCase, grid: Sequence[float]) -> Trajectory:
    """Trajectory with B, P, Q plus demand D = a(t, P) B and sales C = int D.

    Conservation B + P + Q = N holds at every sample by construction.
    """
    if grid[0] != 0.0:
        raise ParameterError("game paths start at t = 0; grid must begin there")
    return case_entry(case).path(case, grid)


def refined_peak(case: BpqCase, traj: Trajectory) -> tuple[float, tuple[float, float, float]]:
    """Peak time and state, sharpened beyond the resolution of ``traj``, the
    case's path on its grid.

    At the peak the inflow a(t, P) B balances the outflow b(t, Q) P;
    the sign change of that imbalance is bracketed by the grid argmax
    and located by root finding, with the state at each trial time from
    the case's own path route, started at the bracket's left grid row.
    """
    B, P, Q, C = map(traj.channel, "BPQC")
    k = max(range(len(P)), key=lambda i: P[i])
    if k == len(P) - 1:
        return traj.times[k], (B[k], P[k], Q[k])

    j = max(k - 1, 0)
    t_lo, t_hi = traj.times[j], traj.times[k + 1]
    anchor = [B[j], P[j], Q[j], C[j]]
    path = case_entry(case).path
    a_int, b_int, _ = intensities(case)

    def state_at(t: float) -> list[float]:
        if t == t_lo:
            return anchor
        return [column[-1] for column in map(path(case, [t_lo, t], anchor).channel, "BPQC")]

    def imbalance(t: float) -> float:
        s = state_at(t)
        return a_int(t, s) * s[0] - b_int(t, s) * s[1]

    lo, hi = t_lo, t_hi
    if lo == 0.0 and imbalance(lo) > 0.0:
        # The peak may lie far inside the first step, even where the grid
        # maximum is the first sample: bracket it within a factor of two, so
        # that the tolerance is relative to T_m.
        while imbalance(0.5 * hi) <= 0.0:  # 0 where the state underflowed
            hi *= 0.5
        lo = 0.5 * hi
    elif k == 0:  # P falls from the start
        return t_lo, tuple(anchor[:3])
    try:
        t_m = numerics.solve_root(imbalance, lo, hi, tol=1e-12 * hi)
    except numerics.BracketInvalidError:
        t_m = traj.times[k]
    return t_m, tuple(state_at(t_m)[:3])


def peak_metrics(case: BpqCase, traj: Trajectory) -> PeakMetrics:
    """Peak summary of a case whose path on its grid is ``traj``.

    Uses the closed peak expressions where a case has them and the
    balance-refined grid peak otherwise.
    """
    entry = case_entry(case)
    closed = entry.peak(case)
    if closed is not None:
        return closed
    t_m, state = refined_peak(case, traj)
    return PeakMetrics(T_m=t_m, P_m=state[1], C_inf=entry.c_inf(case, traj))


# ---------------------------------------------------------------------------
# Complementary games
# ---------------------------------------------------------------------------

def _companion_kernels(spec: ComplementarySpec) -> tuple[Callable[[float], float],
                                                         Callable[[float], float]]:
    """``t -> P_c(t)``, the companion game's players, and ``t -> A(t)``, with
    the spec's fields read once.

    A'(t) = g P_c(t), up to an additive constant:
    A = N_c g ((1 - e^{-b_c s})/b_c - (e^{-a_c s} - e^{-b_c s})/(b_c - a_c)) at
    the companion's age s; both divided differences are at most s, so no
    constant of size 1/b_c swamps the change of A over a step.
    """
    tau, a_c, b_c = spec.tau, spec.a_c, spec.b_c
    nc = spec.companion_population
    nc_g = nc * spec.g
    decay_gap, expm1 = numerics.decay_gap, math.expm1

    def players(t: float) -> float:
        s = t + tau
        if s <= 0.0:
            return 0.0
        return nc * (a_c * decay_gap(a_c, b_c, s))

    def antiderivative(t: float) -> float:
        s = t + tau
        return nc_g * (-expm1(-b_c * s) / b_c - decay_gap(a_c, b_c, s))

    return players, antiderivative


def complementary_path(spec: ComplementarySpec, grid: Sequence[float]) -> Trajectory:
    """Both games' compartments on one grid.

    Game 2 follows its own externally driven closed form. Game 1 sees
    the time-dependent inflow g P_c(t): B = N exp(-(A(t) - A(t0*))) with
    A the antiderivative of the coupling (anchored at the time t0* when
    both games are live, so B starts exactly at N), and P through the
    integrating factor. The remaining integral is carried over windows of
    grid steps no longer than 1/b, one Chebyshev series each; a step that
    no window shares takes a quadrature of its own.
    """
    if grid[0] != 0.0:
        raise ParameterError("complementary paths start at t = 0")
    n, b, g, tau, a_c = spec.N, spec.b, spec.g, spec.tau, spec.a_c
    nc = spec.companion_population
    players, antiderivative = _companion_kernels(spec)
    exp = math.exp
    t_live = max(0.0, -tau)
    a_ref = antiderivative(t_live)

    # b times the integral, so that the quadrature runs on values near 1.
    bk = iter(numerics.shifted_integrals(
        lambda lo, x: b * exp(b * x - (antiderivative(lo + x) - a_ref)), lambda lo, x: b * x,
        lambda acc, lo, hi: numerics.shifted_integral_step(
            acc, lambda y: b * exp(-(antiderivative(hi + y) - a_ref)) * exp(b * y),
            lambda y: b * y, lo, hi),
        [t_live] + [t for t in grid if t > t_live], 0.0))
    B, P, Q, D, C = [], [], [], [], []
    Bc, Pc, Qc = [], [], []
    for t in grid:
        s = t + tau
        bc = nc * exp(-a_c * s) if s >= 0 else nc
        pc = players(t)
        Bc.append(bc)
        Pc.append(pc)
        Qc.append(nc - bc - pc)
        if t <= t_live:
            B.append(n)
            P.append(0.0)
            Q.append(0.0)
            D.append(g * pc * n)
            C.append(0.0)
            continue
        left = exp(-(antiderivative(t) - a_ref))  # B / N
        bt = n * left
        pt = n * (exp(-b * (t - t_live)) - left) + n * next(bk)
        B.append(bt)
        P.append(pt)
        Q.append(n - bt - pt)
        D.append(g * pc * bt)
        C.append(n - bt)
    return _package(grid, B, P, Q, D, C, B_c=Bc, P_c=Pc, Q_c=Qc)
