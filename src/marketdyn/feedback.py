"""Single-market growth with a feedback kernel F(u).

The market obeys du/dt = rate * (1 - u) * F(u). The kernel family
covers no feedback, the innovator+imitator mix, pure imitation at
several strengths (sqrt(u), u, u^2, u^n), and trend-style kernels whose
attractiveness decays as the product spreads (1-u, 1/u, (1-u)/u, and
1/u with a hard cutoff share).

Time and share are linked by t = phi(u; u0) / rate, where phi is the
integral of dv / ((1 - v) F(v)) from u0 to u. It is elementary for
every kernel but u^n; for u^n it is the incomplete beta function
B(u; 1 - n, 0) (DLMF 8.17), summed exactly as two power series split at
v = 1/2. The none, bass, linear, sqrt and 1-u kernels also have a
closed-form u(t). The others invert phi by safeguarded Newton iteration
with the exact derivative dphi/du = 1 / ((1 - u) F(u)); along a path
each sample starts from the previous one, since u increases with t.
All models are calibrated by the time T50 to reach half the market,
which makes their latency times directly comparable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import numerics
from .errors import DomainError, NeverReachedError, ParameterError
from .trajectory import Trajectory, from_channels

KERNEL_KINDS = ("none", "bass", "linear", "sqrt", "quadratic", "power",
                "one_minus_u", "inverse_u", "inverse_u_cutoff", "trend_linear_zero")

#: Kernels whose u(t) inverts the growth integral phi.
INVERTED_KINDS = ("quadratic", "power", "inverse_u", "inverse_u_cutoff", "trend_linear_zero")
#: Newton iterations after which :func:`_invert_phi` keeps its last iterate.
MAX_NEWTON_STEPS = 200
#: Unit roundoff of a double.
_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class FeedbackKernel:
    """Feedback term F(u) of the growth equation.

    ``ratio`` is the imitator/innovator strength for the ``bass`` kind,
    ``n`` the exponent for ``power``, and ``u1`` the freeze share for
    ``inverse_u_cutoff``.
    """

    kind: str
    ratio: float | None = None
    n: float | None = None
    u1: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "bass" and not (self.ratio is not None and self.ratio > 0):
            raise ParameterError("bass kernel needs ratio > 0")
        if self.kind == "power" and not (self.n is not None and self.n > 0):
            raise ParameterError("power kernel needs exponent n > 0")
        if self.kind == "inverse_u_cutoff" and not (
                self.u1 is not None and 0.0 < self.u1 < 1.0):
            raise ParameterError("cutoff kernel needs 0 < u1 < 1")

    def F(self, u: float) -> float:
        kind = self.kind
        if kind == "none":
            return 1.0
        if kind == "bass":
            return 1.0 + self.ratio * u
        if kind == "linear":
            return u
        if kind == "sqrt":
            return math.sqrt(u)
        if kind == "quadratic":
            return u * u
        if kind == "power":
            return u ** self.n
        if kind == "one_minus_u":
            return 1.0 - u
        if kind == "inverse_u":
            return math.inf if u == 0.0 else 1.0 / u
        if kind == "inverse_u_cutoff":
            if u >= self.u1:
                return 0.0
            return math.inf if u == 0.0 else 1.0 / u
        if kind == "trend_linear_zero":
            return math.inf if u == 0.0 else (1.0 - u) / u
        raise AssertionError(kind)

    def growth(self, u: float) -> float:
        """(1 - u) F(u), the unit-rate right-hand side."""
        if u == 0.0 and self.kind in ("inverse_u", "inverse_u_cutoff",
                                      "trend_linear_zero"):
            return math.inf
        return (1.0 - u) * self.F(u)

    @property
    def needs_positive_start(self) -> bool:
        """Kernels whose growth never leaves u = 0."""
        if self.kind in ("linear", "quadratic"):
            return True
        return self.kind == "power" and self.n >= 1.0


def kernel(kind: str, *, ratio: float | None = None, n: float | None = None,
           u1: float | None = None) -> FeedbackKernel:
    return FeedbackKernel(kind, ratio=ratio, n=n, u1=u1)


@dataclass(frozen=True)
class FeedbackModel:
    """A kernel plus growth rate, initial share and population size.

    The rate field is the kernel's own growth coefficient: the innovator
    rate a for ``none``/``bass`` (imitation then runs at ratio * a) and
    the kernel-specific gamma for everything else.
    """

    kernel: FeedbackKernel
    rate: float
    u0: float = 0.0
    N: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ParameterError("growth rate must be positive")
        if not 0.0 <= self.u0 < 1.0:
            raise ParameterError("initial share must lie in [0, 1)")
        if not self.N > 0:
            raise ParameterError("population N must be positive")

    @staticmethod
    def calibrated(kern: FeedbackKernel, t50: float, u0: float = 0.0,
                   N: float = 1.0) -> "FeedbackModel":
        return FeedbackModel(kern, calibrate_rate(kern, t50, u0), u0, N)


@dataclass(frozen=True)
class InflectionPoint:
    """Share, time and growth gradient at the demand peak."""

    u: float
    t: float
    gradient: float


@dataclass(frozen=True)
class MarketMetrics:
    """Latency and inflection indicators of a calibrated model."""

    t50: float
    t10: float
    t60_minus_t50: float
    u_infl: float | None
    t_infl: float | None
    gradient_at_infl: float | None
    t10_already_reached: bool = False


@dataclass(frozen=True)
class EquilibriumPoint:
    u: float
    kind: str  # attractor | repeller | not_equilibrium


# ---------------------------------------------------------------------------
# Unit-rate time integral phi(u; u0) with t = phi / rate
# ---------------------------------------------------------------------------

def _phi(kern: FeedbackKernel, u: float, u0: float) -> float:
    kind = kern.kind
    if kind == "none":
        return math.log((1.0 - u0) / (1.0 - u))
    if kind == "bass":
        rho = kern.ratio
        return math.log((1.0 + rho * u) * (1.0 - u0)
                        / ((1.0 + rho * u0) * (1.0 - u))) / (1.0 + rho)
    if kind == "linear":
        return math.log(u * (1.0 - u0) / (u0 * (1.0 - u)))
    if kind == "sqrt":
        ru, r0 = math.sqrt(u), math.sqrt(u0)
        return math.log((1.0 - r0) * (1.0 + ru) / ((1.0 + r0) * (1.0 - ru)))
    if kind == "quadratic":
        return (math.log(u * (1.0 - u0) / (u0 * (1.0 - u)))
                + 1.0 / u0 - 1.0 / u)
    if kind == "power":
        return _phi_power(kern.n, u, u0)
    if kind == "one_minus_u":
        return 1.0 / (1.0 - u) - 1.0 / (1.0 - u0)
    if kind in ("inverse_u", "inverse_u_cutoff"):
        return (u0 - u) + math.log((1.0 - u0) / (1.0 - u))
    if kind == "trend_linear_zero":
        return (math.log((1.0 - u) / (1.0 - u0))
                + u / (1.0 - u) - u0 / (1.0 - u0))
    raise AssertionError(kind)


def _phi_power(n: float, u: float, u0: float) -> float:
    """Growth integral of dv / (v^n (1 - v)) from u0 to u, summed exactly.

    This is the incomplete beta function B(u; 1 - n, 0) (DLMF 8.17).
    Below v = 1/2 it is summed as a power series in v, above as one in
    1 - v with the 1/(1 - v) pole integrated in closed form. Every term
    of either series is positive and their tails shrink at least like
    2^-k, so shares arbitrarily close to saturation keep full precision.
    A zero start is admissible for n < 1, where the singularity is
    integrable.

    Raises:
        NeverReachedError: If u0 = 0 and n >= 1.
        ParameterError: If the integral overflows (n too large for u0).
    """
    if u0 == 0.0 and n >= 1.0:
        raise NeverReachedError("u^n feedback with n >= 1 never leaves u = 0")
    try:
        if u <= 0.5:
            total = _power_series_below_half(n, u0, u)
        elif u0 >= 0.5:
            total = _power_series_above_half(n, u0, u)
        else:
            total = _power_series_to_half(n, u0) + _power_series_above_half(n, 0.5, u)
    except OverflowError:
        total = math.inf
    if not total < math.inf:
        raise ParameterError(
            f"u^n feedback with n = {n:g} from u0 = {u0:g}: the growth integral overflows")
    return total


def _power_series_below_half(n: float, a: float, b: float) -> float:
    """Sum over k >= 0 of the integral of v^(k - n) over [a, b], 0 <= a < b <= 1/2.

    With m = k + 1 - n, term k is (b^m - a^m) / m; where b^m and a^m are
    close it is taken as a^m expm1(m log(b/a)) / m (log(b/a) for m = 0),
    so it keeps its digits. The terms after term k sum to at most
    b / (1 - b) times it.
    """
    log_ratio = math.log1p((b - a) / a) if a > 0.0 else math.inf
    # a^(1 - n) overflows before the sum does: carry the powers scaled by
    # 2^-shift, from halves that do not overflow, and undo it at the end.
    shift = 600 if a > 0.0 and (1.0 - n) * math.log(a) > 700.0 else 0
    ha, hb = a ** (0.5 - 0.5 * n), b ** (0.5 - 0.5 * n)
    pa, pb = ha * math.ldexp(ha, -shift), hb * math.ldexp(hb, -shift)
    tail_factor = b / (1.0 - b)
    total = 0.0
    k = 0
    while True:
        m = k + 1.0 - n
        if m == 0.0:
            term = log_ratio
        elif -1.0 < m * log_ratio < 1.0:
            term = pa * math.expm1(m * log_ratio) / m
        else:
            term = (pb - pa) / m
        total += term
        if term * tail_factor <= _ROUNDOFF * total:
            return math.ldexp(total, shift)
        pa *= a
        pb *= b
        k += 1


@functools.lru_cache(maxsize=64)
def _power_series_to_half(n: float, u0: float) -> float:
    """The part of the growth integral below v = 1/2, the same for every u above it."""
    return _power_series_below_half(n, u0, 0.5)


def _power_series_above_half(n: float, a: float, b: float) -> float:
    """Integral of dv / (v^n (1 - v)) over [a, b], 1/2 <= a < b < 1.

    With w = 1 - v, v^-n = sum (n)_k / k! w^k (rising factorial), so the
    integral is log(wa / wb) plus the sum over k >= 1 of
    (n)_k / k! (wa^k - wb^k) / k. From term k on, the ratio of successive
    terms is at most max(1, (n + k) / (k + 1)) wa, which bounds the
    remainder once it is below 1.
    """
    wa, wb = 1.0 - a, 1.0 - b
    log_ratio = math.log1p((b - a) / wb)
    total = log_ratio
    ca, cb = 1.0, 1.0  # (n)_k / k! times wa^k and wb^k
    k = 1
    while True:
        ca *= (n + k - 1.0) / k * wa
        cb *= (n + k - 1.0) / k * wb
        if k * log_ratio < 1.0:
            term = -ca * math.expm1(-k * log_ratio) / k
        else:
            term = (ca - cb) / k
        total += term
        ratio = ((n + k) / (k + 1.0) if n > 1.0 else 1.0) * wa
        if not total < math.inf or (
                ratio < 1.0 and term * ratio <= _ROUNDOFF * (1.0 - ratio) * total):
            return total
        k += 1


def _check_share_args(m: FeedbackModel, u: float) -> None:
    if not m.u0 <= u < 1.0:
        raise DomainError(f"share {u!r} outside [u0, 1)")
    if m.u0 == 0.0 and u > 0.0 and m.kernel.needs_positive_start:
        raise NeverReachedError(
            "market share stays 0 forever without an initial customer base")


def t_of_u(m: FeedbackModel, u: float) -> float:
    """Time at which the share reaches u; exact where a closed form exists."""
    if u == m.u0:
        return 0.0
    _check_share_args(m, u)
    kern = m.kernel
    if kern.kind == "inverse_u_cutoff" and u > kern.u1:
        raise DomainError(f"share never exceeds the cutoff u1 = {kern.u1}")
    return _phi(kern, u, m.u0) / m.rate


def u_of_t(m: FeedbackModel, t: float) -> float:
    """Share at time t.

    Closed forms cover the none, bass, linear, sqrt and 1-u kernels; the
    rest invert t(u) by safeguarded Newton iteration from u0 (see
    :func:`_invert_phi`).
    """
    if t < 0:
        raise DomainError("time must be nonnegative")
    if t == 0.0:
        return m.u0
    kind = m.kernel.kind
    u0 = m.u0
    if kind == "none":
        return 1.0 - (1.0 - u0) * math.exp(-m.rate * t)
    if kind == "bass":
        rho = m.kernel.ratio
        e = math.exp(-m.rate * (1.0 + rho) * t)
        return ((1.0 + rho * u0 - (1.0 - u0) * e)
                / (1.0 + rho * u0 + rho * (1.0 - u0) * e))
    if kind == "linear":
        if u0 == 0.0:
            raise NeverReachedError(
                "market share stays 0 forever without an initial customer base")
        e = math.exp(-m.rate * t)
        return u0 / (u0 + (1.0 - u0) * e)
    if kind == "sqrt":
        r0 = math.sqrt(u0)
        e = math.exp(-m.rate * t)
        v = (1.0 + r0 - (1.0 - r0) * e) / (1.0 + r0 + (1.0 - r0) * e)
        return v * v
    if kind == "one_minus_u":
        return 1.0 - (1.0 - u0) / (1.0 + (1.0 - u0) * m.rate * t)
    return _invert_phi(m, [t])[0][0]


def _shares(m: FeedbackModel, times: Sequence[float]) -> tuple[list[float], list[float]]:
    """u(t) and 1 - u(t) at each time.

    The inverted kernels start each root at the last and carry 1 - u to
    full relative precision, which u rounded to a double lacks near
    saturation.
    """
    if m.kernel.kind not in INVERTED_KINDS:
        u = [u_of_t(m, t) for t in times]
        return u, [1.0 - v for v in u]
    if any(t < 0 for t in times):
        raise DomainError("time must be nonnegative")
    return _invert_phi(m, times)


def _invert_phi(m: FeedbackModel,
                times: Sequence[float]) -> tuple[list[float], list[float]]:
    """Roots u of phi(u) = rate * t, with 1 - u, by safeguarded Newton iteration.

    Each root starts from the last share evaluated for the previous
    time, so a path in increasing time needs a few evaluations of phi
    per sample. Shares are reported saturated at L - (L - u0) 2^-50, where
    L is 1 (the cutoff share u1 for the cutoff kernel); the cutoff kernel
    stays at u1 from cutoff_time(m) on.
    """
    kern, u0 = m.kernel, m.u0
    if kern.needs_positive_start and u0 == 0.0:
        raise NeverReachedError(
            "market share stays 0 forever without an initial customer base")
    if kern.kind == "inverse_u_cutoff":
        limit, t_freeze = kern.u1, cutoff_time(m)
    else:
        limit, t_freeze = 1.0, math.inf
    cap = min(limit - (limit - u0) * 0.5 ** 50, math.nextafter(limit, 0.0))
    phi_cap = _phi(kern, cap, u0)
    x, phi_x = u0, 0.0
    shares, rests = [], []
    for t in times:
        target = m.rate * t
        if t == 0.0:
            u, rest = u0, 1.0 - u0
        elif t >= t_freeze:
            u, rest = limit, 1.0 - limit
        elif not phi_cap >= target:
            u, rest = cap, 1.0 - cap
        else:
            u, rest, x, phi_x = _newton_share(kern, u0, target, x, phi_x, cap)
        shares.append(u)
        rests.append(rest)
    return shares, rests


def _newton_share(kern: FeedbackKernel, u0: float, target: float, x: float, phi_x: float,
                  hi: float) -> tuple[float, float, float, float]:
    """Root u of phi(u) = target in [u0, hi] from x, where phi(hi) >= target.

    Steps are taken in s = -log(1 - u), where dphi/ds = 1 / F(u) and phi
    is nearly linear close to saturation; a step that leaves the bracket
    is replaced by the bracket's midpoint in s. The iteration stops once
    the error left after a step, estimated from the last two steps as
    step^3 / previous^2, is below a quarter ulp of both u and 1 - u.

    Returns u, 1 - u, and the last share evaluated with its phi.
    """
    lo, prev = u0, None
    for _ in range(MAX_NEWTON_STEPS):
        g = phi_x - target
        if g == 0.0:
            break
        if g < 0.0:
            lo = x
        else:
            hi = x
        f = kern.F(x)
        step = min(g * f, 700.0)  # -ds
        nxt = x - (1.0 - x) * math.expm1(step)
        rest = (1.0 - x) * math.exp(step)
        if lo < nxt < hi:
            tol = 0.5 * _ROUNDOFF * min(1.0, nxt / rest)
            if prev is not None and abs(step) ** 3 <= tol * prev * prev:
                return nxt, rest, x, phi_x
            prev = abs(step)
        elif lo <= nxt <= hi and f > 0.0:
            # The step rounds onto the bracket: u is resolved as a double,
            # and the step still gives 1 - u to full relative precision.
            return nxt, rest, x, phi_x
        else:
            d_hi = 1.0 - hi
            nxt = hi - d_hi * math.expm1(0.5 * math.log1p((hi - lo) / d_hi))
            if not lo < nxt < hi:
                break
            prev = None
        x, phi_x = nxt, _phi(kern, nxt, u0)
    return x, 1.0 - x, x, phi_x


def calibrate_rate(kern: FeedbackKernel, t50: float, u0: float = 0.0) -> float:
    """Growth rate that puts the model at half the market after t50.

    Closed per kernel since t(u) scales as 1 / rate throughout: the rate
    is phi(1/2; u0) / t50, with phi summed as an exact series for the u^n
    kernel.
    """
    if not t50 > 0:
        raise ParameterError("T50 must be positive")
    if not 0.0 <= u0 < 1.0:
        raise ParameterError("initial share u0 must lie in [0, 1)")
    if u0 >= 0.5:
        raise ParameterError("calibration impossible: u0 already at or above 50%")
    if u0 == 0.0 and kern.needs_positive_start:
        raise NeverReachedError(
            "market share stays 0 forever without an initial customer base")
    if kern.kind == "inverse_u_cutoff" and kern.u1 < 0.5:
        raise ParameterError("calibration impossible: cutoff u1 below 50%")
    rate = _phi(kern, 0.5, u0) / t50
    if not rate < math.inf:
        raise ParameterError(f"growth rate {rate!r} for T50 = {t50!r} is not finite")
    return rate


def latency_metrics(m: FeedbackModel) -> MarketMetrics:
    """T10, T50 and T60 - T50 plus the inflection summary."""
    if m.u0 >= 0.5:
        raise ParameterError("latency metrics need u0 < 0.5")
    t50 = t_of_u(m, 0.5)
    t60 = t_of_u(m, 0.6) if not (
        m.kernel.kind == "inverse_u_cutoff" and m.kernel.u1 < 0.6) else math.nan
    if m.u0 >= 0.1:
        t10, reached = 0.0, True
    else:
        t10, reached = t_of_u(m, 0.1), False
    infl = inflection(m)
    return MarketMetrics(
        t50=t50, t10=t10, t60_minus_t50=t60 - t50,
        u_infl=infl.u if infl else None,
        t_infl=infl.t if infl else None,
        gradient_at_infl=infl.gradient if infl else None,
        t10_already_reached=reached)


def inflection(m: FeedbackModel) -> Optional[InflectionPoint]:
    """Demand peak of the growth curve, or None when none exists.

    The inflection share depends only on the kernel: 1/2 for linear
    feedback, 1/3 for sqrt, 2/3 for quadratic, n/(n+1) for u^n, and
    (ratio - 1)/(2 ratio) for the innovator+imitator mix (which has an
    interior peak only when imitation exceeds innovation). The decaying
    kernels have monotone demand.
    """
    kind = m.kernel.kind
    if kind == "linear":
        u_star = 0.5
    elif kind == "sqrt":
        u_star = 1.0 / 3.0
    elif kind == "quadratic":
        u_star = 2.0 / 3.0
    elif kind == "power":
        u_star = m.kernel.n / (m.kernel.n + 1.0)
    elif kind == "bass":
        rho = m.kernel.ratio
        if rho <= 1.0:
            return None
        u_star = (rho - 1.0) / (2.0 * rho)
    else:
        return None
    if u_star <= m.u0:
        return None
    gradient = m.rate * m.kernel.growth(u_star)
    return InflectionPoint(u=u_star, t=t_of_u(m, u_star), gradient=gradient)


def demand_curve(m: FeedbackModel, grid: Sequence[float]) -> Trajectory:
    """Sales per unit time D(t) = N * rate * (1 - u) F(u) along the grid."""
    kind = m.kernel.kind
    u0, rate, N = m.u0, m.rate, m.N
    out = []
    if kind == "none":
        for t in grid:
            out.append(rate * N * (1.0 - u0) * math.exp(-rate * t))
    elif kind == "bass":
        rho = m.kernel.ratio
        a = rate
        g = rho * a
        for t in grid:
            e = math.exp(-(a + g) * t)
            den = a + g * u0 + g * (1.0 - u0) * e
            out.append(N * (a + g) ** 2 * (1.0 - u0) * (a + g * u0) * e / (den * den))
    elif kind == "linear":
        # Differentiating u(t) = u0/(u0 + (1-u0)e^{-rate t}) carries a
        # (1-u0) factor; D(0) = N rate u0 (1-u0), which the small-u0
        # shorthand N rate u0 approximates.
        for t in grid:
            e = math.exp(-rate * t)
            den = u0 + (1.0 - u0) * e
            out.append(N * rate * u0 * (1.0 - u0) * e / (den * den))
    elif kind == "sqrt":
        r0 = math.sqrt(u0)
        for t in grid:
            e = math.exp(-rate * t)
            den = 1.0 + r0 + (1.0 - r0) * e
            num = 1.0 + r0 - (1.0 - r0) * e
            out.append(4.0 * N * (1.0 - u0) * rate * e * num / den ** 3)
    elif kind == "one_minus_u":
        for t in grid:
            one_minus = (1.0 - u0) / (1.0 + (1.0 - u0) * rate * t)
            out.append(N * rate * one_minus * one_minus)
    else:
        for u, rest in zip(*_shares(m, grid)):
            out.append(N * rate * rest * m.kernel.F(u))
    return from_channels(grid, {"D": out})


def feedback_path(m: FeedbackModel, grid: Sequence[float]) -> Trajectory:
    """Share and demand along the grid."""
    u, rests = _shares(m, grid)
    d = [m.N * m.rate * rest * m.kernel.F(ui) for ui, rest in zip(u, rests)]
    return from_channels(grid, {"u": u, "D": d})


def cutoff_time(m: FeedbackModel) -> float:
    """Time at which a cutoff kernel freezes: t1 = phi(u1) / rate."""
    if m.kernel.kind != "inverse_u_cutoff":
        raise ParameterError("cutoff_time applies to the inverse_u_cutoff kernel")
    return _phi(m.kernel, m.kernel.u1, m.u0) / m.rate


def cutoff_path(m: FeedbackModel, grid: Sequence[float]) -> Trajectory:
    """1/u growth frozen at the cutoff share u1 from t1 onward."""
    if m.kernel.kind != "inverse_u_cutoff":
        raise ParameterError("cutoff_path applies to the inverse_u_cutoff kernel")
    return feedback_path(m, grid)


def classify_equilibria(kern: FeedbackKernel) -> list[EquilibriumPoint]:
    """Roots of (1 - u) F(u) on [0, 1] with their stability.

    Classification samples the growth sign on each side (restricted to
    [0, 1]): positive below and nonpositive above means attractor,
    negative below or positive above means repeller. The sqrt and sub-
    linear power kernels report u = 0 as not an equilibrium: the kernel
    is not smooth there, the market accelerates away from an empty
    start (for sqrt(u) the initial acceleration is rate^2 / 2 > 0).
    """
    kind = kern.kind
    if kind == "inverse_u_cutoff":
        # Growth is positive below u1 and zero on [u1, 1]; the flow
        # parks at u1 no matter where it starts below.
        return [EquilibriumPoint(kern.u1, "attractor")]

    roots: list[float] = []
    if kind in ("linear", "quadratic", "sqrt", "power"):
        roots.append(0.0)
    roots.append(1.0)

    out = []
    delta = 1e-6
    for r in roots:
        if r == 0.0 and (kind == "sqrt" or (kind == "power" and kern.n < 1.0)):
            out.append(EquilibriumPoint(0.0, "not_equilibrium"))
            continue
        below = kern.growth(r - delta) if r - delta >= 0.0 else None
        above = kern.growth(r + delta) if r + delta <= 1.0 else None
        if below is None:
            label = "repeller" if above > 0 else "attractor"
        elif above is None:
            label = "attractor" if below > 0 else "repeller"
        else:
            if below > 0 and above <= 0:
                label = "attractor"
            elif below < 0 and above >= 0:
                label = "repeller"
            else:
                label = "attractor" if below > 0 else "repeller"
        out.append(EquilibriumPoint(r, label))
    return out


def ode_field(m: FeedbackModel) -> numerics.VectorField:
    """du/dt = rate (1 - u) F(u), for cross-validation against the closed forms."""
    return numerics.VectorField(1, lambda t, y: [m.rate * m.kernel.growth(y[0])])


def discrepancy_notes(kern: FeedbackKernel) -> tuple[str, ...]:
    """Ledger notes surfaced whenever a kernel with a known reference
    inconsistency is evaluated; the CLI prints them with the results."""
    if kern.kind == "quadratic":
        return (
            "quadratic kernel: the reference table lists T10/T50 = 0.88 at "
            "u0 = 0.01; the t(u) consistent with the growth equation itself "
            "(checked against direct integration) gives 0.90. Both are shown.",
        )
    if kern.kind == "trend_linear_zero":
        return (
            "(1-u)/u kernel: the reference table prints a 33-day latency at "
            "T50 = 5 years where the formula value 0.01874*T50 is 34 days.",
        )
    return ()
