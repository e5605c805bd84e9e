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

Each kernel kind is declared once, in ``_KERNELS``: its F(u), growth
integral, closed-form u(t) if any, inflection share, parameter check,
equilibrium facts and ledger notes.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DomainError, NeverReachedError, ParameterError
from .trajectory import Trajectory, from_channels

#: Newton iterations after which :func:`_invert_phi` keeps its last iterate.
#: Far from a root each step at least halves the distance to it (a Newton
#: step onto a double root, or a bisection in -log(1 - u)), and the smallest
#: double is 2^-1074, so a start near 1 reaches any root within this many.
MAX_NEWTON_STEPS = 1100
#: Unit roundoff of a double.
_ROUNDOFF = 2.0 ** -53


class FeedbackKernel(namedtuple("FeedbackKernel", "kind ratio n u1")):
    """Feedback term F(u) of the growth equation.

    ``ratio`` is the imitator/innovator strength for the ``bass`` kind,
    ``n`` the exponent for ``power``, and ``u1`` the freeze share for
    ``inverse_u_cutoff``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, ratio: float | None = None, n: float | None = None,
                u1: float | None = None):
        if kind not in KERNEL_KINDS:
            raise ParameterError(f"unknown kernel kind {kind!r}")
        self = super().__new__(cls, kind, ratio, n, u1)
        check = _KERNELS[kind].check
        if check is not None and not check[0](self):
            raise ParameterError(check[1])
        return self

    def F(self, u: float) -> float:
        return _KERNELS[self.kind].F(self, u)

    def growth(self, u: float) -> float:
        """(1 - u) F(u), the unit-rate right-hand side."""
        return (1.0 - u) * self.F(u)

    @property
    def needs_positive_start(self) -> bool:
        """Kernels for which u = 0 is an equilibrium, so growth never leaves it."""
        return _KERNELS[self.kind].zero(self) == "root"

    @property
    def limit(self) -> float:
        """Share at which growth stops: 1, or the cutoff share u1."""
        return _KERNELS[self.kind].limit(self)


def kernel(kind: str, *, ratio: float | None = None, n: float | None = None,
           u1: float | None = None) -> FeedbackKernel:
    return FeedbackKernel(kind, ratio=ratio, n=n, u1=u1)


class FeedbackModel(namedtuple("FeedbackModel", "kernel rate u0 N")):
    """A kernel plus growth rate, initial share and population size.

    The rate field is the kernel's own growth coefficient: the innovator
    rate a for ``none``/``bass`` (imitation then runs at ratio * a) and
    the kernel-specific gamma for everything else.
    """

    __slots__ = ()

    def __new__(cls, kernel: FeedbackKernel, rate: float, u0: float = 0.0, N: float = 1.0):
        if not rate > 0:
            raise ParameterError("growth rate must be positive")
        if not 0.0 <= u0 < 1.0:
            raise ParameterError("initial share must lie in [0, 1)")
        if not N > 0:
            raise ParameterError("population N must be positive")
        return super().__new__(cls, kernel, rate, u0, N)

    @staticmethod
    def calibrated(kern: FeedbackKernel, t50: float, u0: float = 0.0,
                   N: float = 1.0) -> "FeedbackModel":
        return FeedbackModel(kern, calibrate_rate(kern, t50, u0), u0, N)


class InflectionPoint(NamedTuple):
    """Share, time and growth gradient at the demand peak."""

    u: float
    t: float
    gradient: float


class MarketMetrics(NamedTuple):
    """Latency and inflection indicators of a calibrated model."""

    t50: float
    t10: float
    t60_minus_t50: float
    u_infl: float | None
    t_infl: float | None
    gradient_at_infl: float | None
    t10_already_reached: bool = False
    #: T10/T50 by the reference catalog's own t(u), for a kernel whose
    #: catalog time formula differs from the solved one; None otherwise.
    t10_over_t50_catalog: float | None = None


class EquilibriumPoint(NamedTuple):
    u: float
    kind: str  # attractor | repeller | not_equilibrium


# ---------------------------------------------------------------------------
# Unit-rate time integral phi(u; u0) with t = phi / rate
# ---------------------------------------------------------------------------

def _phi(kern: FeedbackKernel, u: float, u0: float) -> float:
    return _KERNELS[kern.kind].phi(kern, u, u0)


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


def _log1p_excess(x: float) -> float:
    """-x - log(1 - x) for 0 <= x < 1/10, summed as x^k / k over k >= 2.

    The closed form cancels to an absolute rounding of about 1e-16 x while
    the value is about x^2 / 2; each term of the sum is positive, and the
    terms after one sum to at most x / (1 - x) < 1/9 of it.
    """
    total, power, k = 0.0, x * x, 2
    while True:
        term = power / k
        total += term
        if term <= _ROUNDOFF * total:
            return total
        power *= x
        k += 1


def _phi_inverse_u(kern: FeedbackKernel, u: float, u0: float) -> float:
    """Integral of v dv / (1 - v): (u0 - u) + log((1 - u0) / (1 - u))."""
    if u < 0.1 and u0 < 0.1:
        return _log1p_excess(u) - _log1p_excess(u0)
    return (u0 - u) + math.log((1.0 - u0) / (1.0 - u))


def _phi_trend(kern: FeedbackKernel, u: float, u0: float) -> float:
    """Integral of v dv / (1 - v)^2: log(1 - v) + v / (1 - v) between u0 and u."""
    if u < 0.1 and u0 < 0.1:
        # log(1 - v) + v / (1 - v) = v^2 / (1 - v) - (-v - log(1 - v))
        return ((u * u / (1.0 - u) - _log1p_excess(u))
                - (u0 * u0 / (1.0 - u0) - _log1p_excess(u0)))
    return (math.log((1.0 - u) / (1.0 - u0))
            + u / (1.0 - u) - u0 / (1.0 - u0))


def _log_odds_gap(u: float, u0: float) -> float:
    """log(u (1 - u0) / (u0 (1 - u))), the rise in log-odds from u0 to u; the
    logs of its factors where a tiny u0 takes the quotient out of range."""
    den = u0 * (1.0 - u)
    ratio = u * (1.0 - u0) / den if den > 0.0 else math.inf
    if ratio < math.inf:
        return math.log(ratio)
    return math.log(u) - math.log(u0) + math.log1p(-u0) - math.log1p(-u)


def _phi_sqrt(kern: FeedbackKernel, u: float, u0: float) -> float:
    ru, r0 = math.sqrt(u), math.sqrt(u0)
    return math.log((1.0 - r0) * (1.0 + ru) / ((1.0 + r0) * (1.0 - ru)))


def _u_bass(kern: FeedbackKernel, u0: float, rate: float, t: float) -> float:
    rho = kern.ratio
    e = math.exp(-rate * (1.0 + rho) * t)
    return ((1.0 + rho * u0 - (1.0 - u0) * e)
            / (1.0 + rho * u0 + rho * (1.0 - u0) * e))


def _u_sqrt(kern: FeedbackKernel, u0: float, rate: float, t: float) -> float:
    r0 = math.sqrt(u0)
    e = math.exp(-rate * t)
    v = (1.0 + r0 - (1.0 - r0) * e) / (1.0 + r0 + (1.0 - r0) * e)
    return v * v


def _quadratic_catalog_ratio(u0: float) -> float:
    """T10/T50 produced by the catalog's printed quadratic t(u), which uses
    the factor u(u - u0) where the solved equation has u(1 - u0)."""
    def phi(u: float) -> float:
        return math.log(u * (u - u0) / ((1.0 - u) * u0)) + 1.0 / u0 - 1.0 / u

    return phi(0.1) / phi(0.5)


def _one_over_u(kern: FeedbackKernel, u: float) -> float:
    return math.inf if u == 0.0 else 1.0 / u


class _Kernel(NamedTuple):
    """Everything the library knows of one kernel kind."""

    F: Callable[[FeedbackKernel, float], float]
    phi: Callable          # (kernel, u, u0) -> growth integral phi(u; u0)
    u_of_t: Callable | None = None  # (kernel, u0, rate, t) -> u; None: invert phi
    inflection: Callable = lambda k: None  # kernel -> demand-peak share, or None
    check: tuple[Callable, str] | None = None  # parameter test and its error
    zero: Callable = lambda k: None  # kernel -> "root", "not_equilibrium" or None: u = 0
    limit: Callable = lambda k: 1.0  # kernel -> share at which growth stops
    notes: tuple[str, ...] = ()      # ledger notes shown with every result
    catalog_ratio: Callable | None = None  # u0 -> T10/T50 by the catalog's t(u)


_KERNELS = {
    "none": _Kernel(
        F=lambda k, u: 1.0,
        phi=lambda k, u, u0: math.log((1.0 - u0) / (1.0 - u)),
        u_of_t=lambda k, u0, rate, t: 1.0 - (1.0 - u0) * math.exp(-rate * t)),
    "bass": _Kernel(
        F=lambda k, u: 1.0 + k.ratio * u,
        phi=lambda k, u, u0: math.log(
            (1.0 + k.ratio * u) * (1.0 - u0)
            / ((1.0 + k.ratio * u0) * (1.0 - u))) / (1.0 + k.ratio),
        u_of_t=_u_bass,
        # An interior demand peak only when imitation exceeds innovation.
        inflection=lambda k: (k.ratio - 1.0) / (2.0 * k.ratio) if k.ratio > 1.0 else None,
        check=(lambda k: k.ratio is not None and k.ratio > 0, "bass kernel needs ratio > 0")),
    "linear": _Kernel(
        F=lambda k, u: u,
        phi=lambda k, u, u0: _log_odds_gap(u, u0),
        u_of_t=lambda k, u0, rate, t: u0 / (u0 + (1.0 - u0) * math.exp(-rate * t)),
        inflection=lambda k: 0.5,
        zero=lambda k: "root"),
    "sqrt": _Kernel(
        F=lambda k, u: math.sqrt(u),
        phi=_phi_sqrt,
        u_of_t=_u_sqrt,
        inflection=lambda k: 1.0 / 3.0,
        # Not smooth at 0: the market accelerates away from an empty start.
        zero=lambda k: "not_equilibrium"),
    "quadratic": _Kernel(
        F=lambda k, u: u * u,
        phi=lambda k, u, u0: _log_odds_gap(u, u0) + (u - u0) / u / u0,  # 1/u0 - 1/u
        inflection=lambda k: 2.0 / 3.0,
        zero=lambda k: "root",
        notes=("quadratic kernel: the reference table lists T10/T50 = 0.88 at "
               "u0 = 0.01; the t(u) consistent with the growth equation itself "
               "(checked against direct integration) gives 0.90. Both are shown.",),
        catalog_ratio=_quadratic_catalog_ratio),
    "power": _Kernel(
        F=lambda k, u: u ** k.n,
        phi=lambda k, u, u0: _phi_power(k.n, u, u0),
        inflection=lambda k: k.n / (k.n + 1.0),
        check=(lambda k: k.n is not None and k.n > 0, "power kernel needs exponent n > 0"),
        zero=lambda k: "root" if k.n >= 1.0 else "not_equilibrium"),
    "one_minus_u": _Kernel(
        F=lambda k, u: 1.0 - u,
        phi=lambda k, u, u0: 1.0 / (1.0 - u) - 1.0 / (1.0 - u0),
        u_of_t=lambda k, u0, rate, t: 1.0 - (1.0 - u0) / (1.0 + (1.0 - u0) * rate * t)),
    "inverse_u": _Kernel(F=_one_over_u, phi=_phi_inverse_u),
    "inverse_u_cutoff": _Kernel(
        F=lambda k, u: 0.0 if u >= k.u1 else _one_over_u(k, u),
        phi=_phi_inverse_u,
        check=(lambda k: k.u1 is not None and 0.0 < k.u1 < 1.0, "cutoff kernel needs 0 < u1 < 1"),
        limit=lambda k: k.u1),
    "trend_linear_zero": _Kernel(
        F=lambda k, u: math.inf if u == 0.0 else (1.0 - u) / u,
        phi=_phi_trend,
        notes=("(1-u)/u kernel: the reference table prints a 33-day latency at "
               "T50 = 5 years where the formula value 0.01874*T50 is 34 days.",)),
}

KERNEL_KINDS = tuple(_KERNELS)


def _check_start(kern: FeedbackKernel, u0: float) -> None:
    if u0 == 0.0 and kern.needs_positive_start:
        raise NeverReachedError(
            "market share stays 0 forever without an initial customer base")


def t_of_u(m: FeedbackModel, u: float) -> float:
    """Time at which the share reaches u; exact where a closed form exists."""
    if u == m.u0:
        return 0.0
    if not m.u0 <= u < 1.0:
        raise DomainError(f"share {u!r} outside [u0, 1)")
    _check_start(m.kernel, m.u0)
    limit = m.kernel.limit
    if u > limit:
        raise DomainError(f"share never exceeds the cutoff u1 = {limit}")
    t = _phi(m.kernel, u, m.u0) / m.rate
    if not t < math.inf:
        raise DomainError(f"the time to reach share {u!r} exceeds the range of a double")
    return t


def _shares(m: FeedbackModel, times: Sequence[float]) -> tuple[list[float], list[float]]:
    """u(t) and 1 - u(t) at each time.

    The inverted kernels start each root at the last and carry 1 - u to
    full relative precision, which u rounded to a double lacks near
    saturation.
    """
    if any(t < 0 for t in times):
        raise DomainError("time must be nonnegative")
    kern, u0, rate = m.kernel, m.u0, m.rate
    closed = _KERNELS[kern.kind].u_of_t
    if closed is None:
        return _invert_phi(m, times)
    if any(times):  # at t = 0 alone the share is u0, whatever the start
        _check_start(kern, u0)
    u = [closed(kern, u0, rate, t) if t else u0 for t in times]
    return u, [1.0 - v for v in u]


def _saturation(m: FeedbackModel) -> tuple[float, float, float, float]:
    """Where an inverted path stops rising: the share L it tends to, the
    time it freezes there (inf unless L < 1), the cap at which its shares
    saturate and phi at the cap."""
    kern, u0 = m.kernel, m.u0
    _check_start(kern, u0)
    limit = max(kern.limit, u0)  # a start past the cutoff share stays there
    t_freeze = cutoff_time(m) if limit < 1.0 else math.inf
    cap = min(limit - (limit - u0) * 0.5 ** 50, math.nextafter(limit, 0.0))
    return limit, t_freeze, cap, _phi(kern, cap, u0)


def check_path(m: FeedbackModel) -> None:
    """Raise what :func:`feedback_path` raises for m on a grid from 0 to a
    positive horizon, without building the path.

    Past the start check, a closed-form path cannot fail, and an inverted
    one fails only where phi overflows at the cap, which bounds every phi
    the Newton steps take.
    """
    _check_start(m.kernel, m.u0)
    if _KERNELS[m.kernel.kind].u_of_t is None:
        _saturation(m)


def _invert_phi(m: FeedbackModel,
                times: Sequence[float]) -> tuple[list[float], list[float]]:
    """Roots u of phi(u) = rate * t, with 1 - u, by safeguarded Newton iteration.

    Each root starts from the last share evaluated for the previous
    time, so a path in increasing time needs a few evaluations of phi
    per sample. Shares are reported saturated at L - (L - u0) 2^-50, where
    L is 1 (the cutoff share u1 for the cutoff kernel); the cutoff kernel
    stays at u1 from cutoff_time(m) on, or at u0 if it starts past u1.
    """
    kern, u0 = m.kernel, m.u0
    limit, t_freeze, cap, phi_cap = _saturation(m)
    F, phi = _KERNELS[kern.kind].F, _KERNELS[kern.kind].phi
    x, phi_x, rate = u0, 0.0, m.rate
    shares, rests = [], []
    for t in times:
        target = rate * t
        if t == 0.0:
            u, rest = u0, 1.0 - u0
        elif t >= t_freeze:
            u, rest = limit, 1.0 - limit
        elif not phi_cap >= target:
            u, rest = cap, 1.0 - cap
        else:
            u, rest, x, phi_x = _newton_share(F, phi, kern, u0, target, x, phi_x, cap)
        shares.append(u)
        rests.append(rest)
    return shares, rests


def _newton_share(F: Callable, phi: Callable, kern: FeedbackKernel, u0: float,
                  target: float, x: float, phi_x: float,
                  hi: float) -> tuple[float, float, float, float]:
    """Root u of phi(u) = target in [u0, hi] from x, where phi(hi) >= target.

    ``F`` and ``phi`` are the kernel kind's entries of ``_KERNELS``.

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
        f = F(kern, x)
        step = g * f  # -ds, at most 700; a compare costs less than min() here
        if step > 700.0:
            step = 700.0
        nxt = x - (1.0 - x) * math.expm1(step)
        rest = (1.0 - x) * math.exp(step)
        if lo < nxt < hi:
            ratio = nxt / rest
            tol = 0.5 * _ROUNDOFF * (ratio if ratio < 1.0 else 1.0)
            # step^3 <= tol prev^2, in a form that tiny shares cannot underflow
            if prev is not None and abs(step) * (step / prev) ** 2 <= tol:
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
        x, phi_x = nxt, phi(kern, nxt, u0)
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
    _check_start(kern, u0)
    if kern.limit < 0.5:
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
    t60_minus_t50 = _phi(m.kernel, 0.6, 0.5) / m.rate if m.kernel.limit >= 0.6 else math.nan
    if m.u0 >= 0.1:
        t10, reached = 0.0, True
    else:
        t10, reached = t_of_u(m, 0.1), False
    infl = inflection(m)
    catalog = _KERNELS[m.kernel.kind].catalog_ratio
    return MarketMetrics(
        t50=t50, t10=t10, t60_minus_t50=t60_minus_t50,
        u_infl=infl.u if infl else None,
        t_infl=infl.t if infl else None,
        gradient_at_infl=infl.gradient if infl else None,
        t10_already_reached=reached,
        t10_over_t50_catalog=catalog(m.u0) if catalog and not reached else None)


def inflection(m: FeedbackModel) -> Optional[InflectionPoint]:
    """Demand peak of the growth curve, or None when none exists.

    The inflection share depends only on the kernel: 1/2 for linear
    feedback, 1/3 for sqrt, 2/3 for quadratic, n/(n+1) for u^n, and
    (ratio - 1)/(2 ratio) for the innovator+imitator mix (which has an
    interior peak only when imitation exceeds innovation). The decaying
    kernels have monotone demand.
    """
    u_star = _KERNELS[m.kernel.kind].inflection(m.kernel)
    if u_star is None or u_star <= m.u0:
        return None
    gradient = m.rate * m.kernel.growth(u_star)
    return InflectionPoint(u=u_star, t=t_of_u(m, u_star), gradient=gradient)


def feedback_path(m: FeedbackModel, grid: Sequence[float]) -> Trajectory:
    """Share and demand along the grid."""
    u, rests = _shares(m, grid)
    kern, scale = m.kernel, m.N * m.rate
    F = _KERNELS[kern.kind].F
    d = [scale * rest * F(kern, ui) for ui, rest in zip(u, rests)]
    return from_channels(grid, {"u": u, "D": d})


def cutoff_time(m: FeedbackModel) -> float:
    """Time at which a cutoff kernel freezes: t1 = phi(u1) / rate."""
    limit = m.kernel.limit
    if not limit < 1.0:
        raise ParameterError("cutoff_time applies to the inverse_u_cutoff kernel")
    return _phi(m.kernel, limit, m.u0) / m.rate


def cutoff_path(m: FeedbackModel, grid: Sequence[float]) -> Trajectory:
    """1/u growth frozen at the cutoff share u1 from t1 onward."""
    if not m.kernel.limit < 1.0:
        raise ParameterError("cutoff_path applies to the inverse_u_cutoff kernel")
    return feedback_path(m, grid)


def classify_equilibria(kern: FeedbackKernel) -> list[EquilibriumPoint]:
    """Roots of (1 - u) F(u) on [0, 1] with their stability, read from the
    kernel table.

    Growth is positive on (0, limit) for every kernel and not positive
    above it, so the share where growth stops, 1 or the cutoff share u1,
    is an attractor. Where F(0) = 0 (u, u^2 and u^n with n >= 1), u = 0 is
    a root with growth positive just above it, a repeller. The sqrt and
    sub-linear power kernels report u = 0 as not an equilibrium: the
    kernel is not smooth there, and the market accelerates away from an
    empty start (for sqrt(u) the initial acceleration is rate^2 / 2 > 0).
    The labels follow from these signs, so no growth is evaluated near a
    root, where u^n underflows for large n.
    """
    zero = _KERNELS[kern.kind].zero(kern)
    out = [] if zero is None else [
        EquilibriumPoint(0.0, "repeller" if zero == "root" else "not_equilibrium")]
    return out + [EquilibriumPoint(kern.limit, "attractor")]


def discrepancy_notes(kern: FeedbackKernel) -> tuple[str, ...]:
    """Ledger notes surfaced whenever a kernel with a known reference
    inconsistency is evaluated; the CLI prints them with the results."""
    return _KERNELS[kern.kind].notes
