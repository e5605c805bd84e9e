"""Lifecycle models for games and services with limited popularity.

Three compartments evolve under conservation B + P + Q = N: potential
buyers B, active players P, and quitters Q. The inflow intensity
a(t, P) may be externally driven or player-stimulated, the quit
intensity b(t, Q) constant or quitter-stimulated, and an optional
never-buy intensity c(t) drains B directly (only meaningful when the
inflow does not depend on P).

Six parameter shapes are covered. Case 1 (externally driven) has full
closed forms, including an error-function branch for a linearly growing
inflow and a quadrature branch for a linearly growing quit rate. Case 2
is the classic epidemic three-compartment model and is solved through
its B(Q) relation and the time integral t(Q). Case 4 reduces to a first
integral for dQ/dt, case 5 to a linear equation via the standard
Riccati substitution, and cases 3 and 6 integrate directly. A
complementary-game coupling (sales of one title driving another) is
solved by treating the driver's player count as a time-dependent rate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from . import numerics
from .errors import DomainError, InitiationError, ParameterError
from .monopoly import ConstantRate, RateSchedule
from .numerics import VectorField
from .trajectory import Trajectory, from_channels

CONFLUENT_EPS = 1e-9


def _as_schedule(value) -> RateSchedule:
    if isinstance(value, (int, float)):
        return ConstantRate(float(value))
    return value


# ---------------------------------------------------------------------------
# States and cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BpqState:
    """Compartment sizes; the population N is their conserved sum."""

    B: float
    P: float
    Q: float

    def __post_init__(self):
        if min(self.B, self.P, self.Q) < 0:
            raise ParameterError("compartment sizes must be nonnegative")

    @property
    def N(self) -> float:
        return self.B + self.P + self.Q


@dataclass(frozen=True)
class Case1:
    """Externally driven inflow and quit intensities a(t), b(t), c(t)."""

    a: RateSchedule
    b: RateSchedule
    c: RateSchedule
    N: float

    def __post_init__(self):
        object.__setattr__(self, "a", _as_schedule(self.a))
        object.__setattr__(self, "b", _as_schedule(self.b))
        object.__setattr__(self, "c", _as_schedule(self.c))
        if not self.N > 0:
            raise ParameterError("population N must be positive")

    @property
    def initial(self) -> BpqState:
        return BpqState(self.N, 0.0, 0.0)


@dataclass(frozen=True)
class Case2:
    """Player-stimulated inflow beta*P against a constant quit rate b.

    Identical to the susceptible/infected/recovered epidemic system
    under B -> S, P -> I, Q -> R.
    """

    beta: float
    b: float
    N: float
    P0: float
    Q0: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0 and self.b > 0 and self.N > 0):
            raise ParameterError("beta, b and N must be positive")
        if not self.P0 > 0:
            raise InitiationError(
                "player-stimulated inflow needs P(0) > 0: with no initial "
                "players there will be no players in the future")
        if self.Q0 < 0 or self.P0 + self.Q0 > self.N:
            raise ParameterError("seed populations exceed N")

    @property
    def B0(self) -> float:
        return self.N - self.P0 - self.Q0

    @property
    def initial(self) -> BpqState:
        return BpqState(self.B0, self.P0, self.Q0)


@dataclass(frozen=True)
class Case3:
    """Mixed inflow a + beta*P against a constant quit rate b."""

    a: float
    beta: float
    b: float
    N: float

    def __post_init__(self):
        if not (self.a > 0 and self.N > 0):
            raise ParameterError("a and N must be positive")
        if self.beta < 0 or self.b < 0:
            raise ParameterError("beta and b must be nonnegative")

    @property
    def initial(self) -> BpqState:
        return BpqState(self.N, 0.0, 0.0)


@dataclass(frozen=True)
class Case4:
    """Player-stimulated inflow beta*P and quitter-stimulated exits gamma*Q."""

    beta: float
    gamma: float
    N: float
    P0: float
    Q0: float

    def __post_init__(self):
        if not (self.beta > 0 and self.gamma > 0 and self.N > 0):
            raise ParameterError("beta, gamma and N must be positive")
        if not self.P0 > 0:
            raise InitiationError("stimulated inflow needs P(0) > 0 to start")
        if not self.Q0 > 0:
            raise InitiationError(
                "quitter-stimulated exits need Q(0) > 0: there must be an "
                "initial population of quitters")
        if self.P0 + self.Q0 > self.N:
            raise ParameterError("seed populations exceed N")

    @property
    def B0(self) -> float:
        return self.N - self.P0 - self.Q0

    @property
    def initial(self) -> BpqState:
        return BpqState(self.B0, self.P0, self.Q0)


@dataclass(frozen=True)
class Case5:
    """Constant inflow a with quitter-stimulated exits gamma*Q."""

    a: float
    gamma: float
    N: float
    Q0: float
    P0: float = 0.0

    def __post_init__(self):
        if not (self.a > 0 and self.gamma > 0 and self.N > 0):
            raise ParameterError("a, gamma and N must be positive")
        if not self.Q0 > 0:
            raise InitiationError(
                "quitter-stimulated exits need Q(0) > 0: there must be an "
                "initial population of quitters")
        if self.P0 < 0 or self.P0 + self.Q0 > self.N:
            raise ParameterError("seed populations exceed N")

    @property
    def B0(self) -> float:
        return self.N - self.P0 - self.Q0

    @property
    def initial(self) -> BpqState:
        return BpqState(self.B0, self.P0, self.Q0)


@dataclass(frozen=True)
class Case6:
    """Constant inflow a with mixed exits b + gamma*Q."""

    a: float
    b: float
    gamma: float
    N: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.gamma > 0 and self.N > 0):
            raise ParameterError("a, b, gamma and N must be positive")

    @property
    def initial(self) -> BpqState:
        return BpqState(self.N, 0.0, 0.0)


BpqCase = Union[Case1, Case2, Case3, Case4, Case5, Case6]


@dataclass(frozen=True)
class PeakMetrics:
    """Time and height of the player peak plus the total ever-bought count."""

    T_m: float
    P_m: float
    C_inf: float


@dataclass(frozen=True)
class ComplementarySpec:
    """Game 1 adoption driven by the player count of a companion game 2.

    Game 2 launched ``tau`` time units before game 1 (negative tau:
    after); its own lifecycle is externally driven with rates a_c, b_c.
    Buyers of game 1 arrive at intensity g * P_c(t) and quit at rate b.
    """

    g: float
    b: float
    a_c: float
    b_c: float
    tau: float = 0.0
    N: float = 1.0
    N_c: float | None = None

    def __post_init__(self):
        if not (self.g > 0 and self.b > 0 and self.a_c > 0 and self.b_c > 0):
            raise ParameterError("g, b, a_c and b_c must be positive")
        if not self.N > 0:
            raise ParameterError("population N must be positive")
        if self.N_c is not None and not self.N_c > 0:
            raise ParameterError("population N_c must be positive")

    @property
    def companion_population(self) -> float:
        return self.N if self.N_c is None else self.N_c


# ---------------------------------------------------------------------------
# Defining ODE systems (used directly by cases 3 and 6 and as oracles)
# ---------------------------------------------------------------------------

def intensities(case: BpqCase):
    """(a(t, state), b(t, state), c(t)) triples of a case."""
    if isinstance(case, Case1):
        return (lambda t, s: case.a.rate(t),
                lambda t, s: case.b.rate(t),
                lambda t: case.c.rate(t))
    if isinstance(case, Case2):
        return (lambda t, s: case.beta * s[1],
                lambda t, s: case.b,
                lambda t: 0.0)
    if isinstance(case, Case3):
        return (lambda t, s: case.a + case.beta * s[1],
                lambda t, s: case.b,
                lambda t: 0.0)
    if isinstance(case, Case4):
        return (lambda t, s: case.beta * s[1],
                lambda t, s: case.gamma * s[2],
                lambda t: 0.0)
    if isinstance(case, Case5):
        return (lambda t, s: case.a,
                lambda t, s: case.gamma * s[2],
                lambda t: 0.0)
    if isinstance(case, Case6):
        return (lambda t, s: case.a,
                lambda t, s: case.b + case.gamma * s[2],
                lambda t: 0.0)
    raise ParameterError(f"unknown case {type(case).__name__}")


def ode_field(case: BpqCase) -> VectorField:
    """The three-compartment system for (B, P, Q)."""
    a_int, b_int, c_int = intensities(case)

    def rhs(t: float, s: Sequence[float]) -> list[float]:
        a = a_int(t, s)
        b = b_int(t, s)
        c = c_int(t)
        return [-(a + c) * s[0],
                a * s[0] - b * s[1],
                b * s[1] + c * s[0]]

    return VectorField(3, rhs)


def _package(grid, B, P, Q, D, C, notes=()) -> Trajectory:
    return from_channels(grid, {"B": B, "P": P, "Q": Q, "D": D, "C": C}, notes=notes)


def _integrated_case_path(case: BpqCase, grid: Sequence[float],
                          notes: tuple[str, ...] = ()) -> Trajectory:
    """Direct integration; the cumulative-sales channel rides along as a state."""
    a_int, b_int, c_int = intensities(case)

    def rhs(t: float, s: Sequence[float]) -> list[float]:
        a = a_int(t, s)
        b = b_int(t, s)
        c = c_int(t)
        demand = a * s[0]
        return [-(a + c) * s[0], demand - b * s[1], b * s[1] + c * s[0], demand]

    init = case.initial
    rows = numerics.sample_ivp(VectorField(4, rhs), [init.B, init.P, init.Q, 0.0], grid)
    B = [r[0] for r in rows]
    P = [r[1] for r in rows]
    Q = [init.N - b - p for b, p in zip(B, P)]
    D = [a_int(t, r) * r[0] for t, r in zip(grid, rows)]
    C = [r[3] for r in rows]
    return _package(grid, B, P, Q, D, C, notes)


# ---------------------------------------------------------------------------
# Case 1: externally driven
# ---------------------------------------------------------------------------

def _case1_constants(a: float, b: float, c: float, N: float,
                     grid: Sequence[float]) -> Trajectory:
    s = a + c
    confluent = abs(s - b) < CONFLUENT_EPS * (a + b + c)
    B, P, Q, D, C = [], [], [], [], []
    for t in grid:
        eb = math.exp(-b * t)
        es = math.exp(-s * t)
        Bt = N * es
        if confluent:
            Pt = N * a * t * eb
            Ct = (a * N / b) * (1.0 - eb)
        else:
            Pt = (a * N / (s - b)) * (eb - es)
            Ct = (a * N / s) * (1.0 - es)
        B.append(Bt)
        P.append(Pt)
        Q.append(N - Bt - Pt)
        D.append(a * Bt)
        C.append(Ct)
    return _package(grid, B, P, Q, D, C)


def case1_peak(a: float, b: float, c: float, N: float = 1.0) -> PeakMetrics:
    """Player peak of the constant-rate branch.

    T_m = (ln(a+c) - ln b)/(a+c-b), collapsing to 1/b when b = a+c; the
    total ever-bought count is a N / (a + c).
    """
    if min(a, b) <= 0 or c < 0:
        raise ParameterError("needs a, b > 0 and c >= 0")
    s = a + c
    if abs(s - b) < CONFLUENT_EPS * (a + b + c):
        t_m = 1.0 / b
        p_m = N * (a / b) * math.exp(-1.0)
    else:
        t_m = (math.log(s) - math.log(b)) / (s - b)
        p_m = (a * N / (s - b)) * (math.exp(-b * t_m) - math.exp(-s * t_m))
    return PeakMetrics(T_m=t_m, P_m=p_m, C_inf=a * N / s)


def calibrate_case1(t_m: float, ratio: float) -> float:
    """Total drain rate a + c from a chosen peak time and ratio (a+c)/b."""
    if not (t_m > 0 and ratio > 0):
        raise ParameterError("peak time and rate ratio must be positive")
    if abs(ratio - 1.0) < 1e-12:
        return 1.0 / t_m
    return ratio * math.log(ratio) / (t_m * (ratio - 1.0))


def _case1_a_linear(a0: float, a1: float, b: float, c: float, N: float,
                    grid: Sequence[float]) -> Trajectory:
    """Linearly growing inflow a(t) = a0 + a1 t with constant b, c.

    Completing the square in the survival integral turns P(t) into an
    error-function expression with K = (a0 + c - b)/sqrt(2 a1).
    """
    q = math.sqrt(0.5 * a1)
    K = (a0 + c - b) / math.sqrt(2.0 * a1)
    pref = math.sqrt(math.pi / (2.0 * a1)) * (b - c)
    ek2 = math.exp(K * K)
    B, P, Q, D, C = [], [], [], [], []
    c_acc = 0.0
    prev_t = None

    def demand(t: float) -> float:
        return (a0 + a1 * t) * N * math.exp(-((a0 + c) * t + 0.5 * a1 * t * t))

    for t in grid:
        Bt = N * math.exp(-(a0 * t + 0.5 * a1 * t * t + c * t))
        bracket = (pref * (numerics.erf(K + q * t) - numerics.erf(K))
                   + math.exp(-K * K) - math.exp(-(K + q * t) ** 2))
        Pt = N * math.exp(-b * t) * ek2 * bracket
        if c == 0.0:
            Ct = N - Bt
        else:
            if prev_t is not None:
                c_acc += numerics.quadrature(demand, prev_t, t, tol=1e-11)
            Ct = c_acc
        prev_t = t
        B.append(Bt)
        P.append(Pt)
        Q.append(N - Bt - Pt)
        D.append((a0 + a1 * t) * Bt)
        C.append(Ct)
    return _package(grid, B, P, Q, D, C)


def _case1_b_linear(a: float, b0: float, b1: float, c: float, N: float,
                    grid: Sequence[float]) -> Trajectory:
    """Linearly growing quit rate b(t) = b0 + b1 t with constant a, c.

    The survival integral int exp(+v^2) dv has no elementary form and is
    accumulated by quadrature, shifted segment by segment so no
    intermediate exponential overflows: P(t) = N J(t) exp(-(a+c) t) with
    J the shifted integral of a exp(g(u) - g(t)), g(u) = -(a+c-b0) u + b1 u^2/2.
    Sales are elementary: C(t) = a N / (a + c) (1 - exp(-(a+c) t)).
    """

    def g(u: float) -> float:
        return -(a + c - b0) * u + 0.5 * b1 * u * u

    B, P, Q, D, C = [], [], [], [], []
    j_acc = 0.0
    prev_t = None
    for t in grid:
        if prev_t is not None:
            j_acc = numerics.shifted_integral_step(j_acc, lambda u: a, g, prev_t, t)
        Bt = N * math.exp(-(a + c) * t)
        Pt = N * j_acc * math.exp(-(a + c) * t)
        prev_t = t
        B.append(Bt)
        P.append(Pt)
        Q.append(N - Bt - Pt)
        D.append(a * Bt)
        C.append(N - Bt if c == 0.0 else (a * N / (a + c)) * -math.expm1(-(a + c) * t))
    return _package(grid, B, P, Q, D, C)


def _case1_general(case: Case1, grid: Sequence[float]) -> Trajectory:
    """Integrating-factor solution for arbitrary rate schedules.

    P(t) = B(t) J(t) with J the shifted survival integral of
    a(u) exp(h(u) - h(t)), h = int(b) - int(a) - int(c).
    """
    a_s, b_s, c_s = case.a, case.b, case.c
    N = case.N

    def h(u: float) -> float:
        return b_s.cumulative(u) - a_s.cumulative(u) - c_s.cumulative(u)

    B, P, Q, D, C = [], [], [], [], []
    j_acc = 0.0
    c_acc = 0.0
    prev_t = None
    c_is_zero = isinstance(c_s, ConstantRate) and c_s.a == 0.0

    def demand(u: float) -> float:
        return a_s.rate(u) * N * math.exp(-(a_s.cumulative(u) + c_s.cumulative(u)))

    for t in grid:
        if prev_t is not None:
            j_acc = numerics.shifted_integral_step(j_acc, a_s.rate, h, prev_t, t)
            if not c_is_zero:
                c_acc += numerics.quadrature(demand, prev_t, t, tol=1e-11)
        Bt = N * math.exp(-(a_s.cumulative(t) + c_s.cumulative(t)))
        Pt = Bt * j_acc
        Ct = (N - Bt) if c_is_zero else c_acc
        prev_t = t
        B.append(Bt)
        P.append(Pt)
        Q.append(N - Bt - Pt)
        D.append(a_s.rate(t) * Bt)
        C.append(Ct)
    return _package(grid, B, P, Q, D, C)


def _case1_route(case: Case1, grid: Sequence[float],
                 allow_general: bool) -> Trajectory | None:
    a_s, b_s, c_s = case.a, case.b, case.c
    consts = all(isinstance(s, ConstantRate) for s in (a_s, b_s, c_s))
    if consts:
        return _case1_constants(a_s.a, b_s.a, c_s.a, case.N, grid)
    from .monopoly import LinearRate
    if (isinstance(a_s, LinearRate) and a_s.a1 > 0
            and isinstance(b_s, ConstantRate) and isinstance(c_s, ConstantRate)):
        K = (a_s.a0 + c_s.a - b_s.a) / math.sqrt(2.0 * a_s.a1)
        if abs(K) <= 4.0:
            return _case1_a_linear(a_s.a0, a_s.a1, b_s.a, c_s.a, case.N, grid)
    if (isinstance(b_s, LinearRate) and b_s.a1 > 0
            and isinstance(a_s, ConstantRate) and isinstance(c_s, ConstantRate)):
        return _case1_b_linear(a_s.a, b_s.a0, b_s.a1, c_s.a, case.N, grid)
    if allow_general:
        return _case1_general(case, grid)
    return None


def case1_closed_form(case: Case1, grid: Sequence[float]) -> Trajectory:
    """Closed forms for constant rates (with the b = a + c confluence),
    a linear inflow, or a linear quit rate; anything else integrates
    numerically and marks the trajectory accordingly."""
    routed = _case1_route(case, grid, allow_general=False)
    if routed is not None:
        return routed
    return _integrated_case_path(case, grid, notes=(
        "no closed form for this schedule combination; integrated numerically",))


# ---------------------------------------------------------------------------
# Cases 2 and 4: paths through the time integral t(Q)
# ---------------------------------------------------------------------------

def _q_ladder(q0: float, q_inf: float, integrand: Callable[[float], float],
              t_end: float, nodes: int = 512) -> tuple[list[float], list[float]]:
    """Cumulative times along a Q grid concentrated near the start.

    The spacing is geometric from q0 (where the integrand scales like
    1/P0 and may be large) and extends toward the asymptotic root by
    halving steps until the accumulated time covers t_end or the gap
    saturates at working precision.
    """
    kappa = 12.0
    span = q_inf - q0
    qs = [q0]
    ts = [0.0]
    denom = math.expm1(kappa)
    for j in range(1, nodes + 1):
        s = j / nodes
        qs.append(q0 + span * 0.98 * math.expm1(kappa * s) / denom)
    for j in range(1, nodes + 1):
        ts.append(ts[-1] + numerics.quadrature(integrand, qs[j - 1], qs[j], tol=1e-10))
        if ts[-1] > t_end:
            return qs[:j + 1], ts
    # Stop the climb while the population gap is still well above rounding
    # noise: evaluating N - B(Q) - Q closer to the root than ~1e-8 N is
    # pure cancellation. Saturating Q there parks the state within
    # 1e-8 N of its asymptote, far inside every documented tolerance.
    for _ in range(4000):
        gap = q_inf - qs[-1]
        if ts[-1] > t_end or gap < 1e-8 * max(q_inf, 1.0):
            break
        nxt = q_inf - 0.5 * gap
        ts.append(ts[-1] + numerics.quadrature(integrand, qs[-1], nxt, tol=1e-10))
        qs.append(nxt)
    return qs, ts


def _q_at_times(grid: Sequence[float], qs: list[float], ts: list[float],
                integrand: Callable[[float], float]) -> list[float]:
    """Invert the cumulative time map node by node.

    Within a ladder segment the time integral is short and smooth, so a
    Newton iteration with the exact derivative dt/dQ = integrand and one
    Gauss-Kronrod panel for the local increment converges in a few steps.
    """
    out = []
    for t in grid:
        if t < 0:
            raise DomainError("time must be nonnegative")
        if t == 0.0:
            out.append(qs[0])
            continue
        if t >= ts[-1]:
            out.append(qs[-1])
            continue
        j = bisect.bisect_right(ts, t) - 1
        lo, hi = qs[j], qs[j + 1]
        frac = (t - ts[j]) / (ts[j + 1] - ts[j])
        q = lo + frac * (hi - lo)
        for _ in range(8):
            err = ts[j] + numerics.kronrod_panel(integrand, lo, q)[0] - t
            if abs(err) <= 1e-13 * max(1.0, t):
                break
            q -= err / integrand(q)
            q = min(max(q, lo), hi)
        out.append(q)
    return out


@dataclass(frozen=True)
class SirRelations:
    """State relations of the player-stimulated case.

    B_of_Q and P_of_B are exact consequences of the dynamics; B_inf
    solves the final-size equation B = B0 exp(-(beta/b)(N - B - Q0)).
    When beta*B0 <= b the player count declines from the start and the
    peak values refer to t = 0.
    """

    B_of_Q: Callable[[float], float]
    P_of_B: Callable[[float], float]
    B_inf: float
    Q_Tm: float
    P_Tm: float
    B_Tm: float
    has_interior_peak: bool


def sir_relations(case: Case2) -> SirRelations:
    beta, b, N = case.beta, case.b, case.N
    B0, Q0 = case.B0, case.Q0
    ratio = beta / b

    def b_of_q(q: float) -> float:
        return B0 * math.exp(-ratio * (q - Q0))

    def p_of_b(bb: float) -> float:
        return N - bb - Q0 - (1.0 / ratio) * math.log(B0 / bb)

    def population_gap(q: float) -> float:
        return N - q - b_of_q(q)

    q_inf = numerics.solve_root(population_gap, Q0, N, tol=1e-13 * N)
    b_inf = N - q_inf

    if beta * B0 > b:
        b_tm = b / beta
        q_tm = Q0 + (b / beta) * math.log(beta * B0 / b)
        p_tm = N - b_tm - q_tm
        interior = True
    else:
        b_tm, q_tm, p_tm, interior = B0, Q0, case.P0, False
    return SirRelations(B_of_Q=b_of_q, P_of_B=p_of_b, B_inf=b_inf,
                        Q_Tm=q_tm, P_Tm=p_tm, B_Tm=b_tm,
                        has_interior_peak=interior)


def _sir_integrand(case: Case2) -> Callable[[float], float]:
    beta, b, N = case.beta, case.b, case.N
    B0, Q0 = case.B0, case.Q0

    def integrand(u: float) -> float:
        return 1.0 / (b * (N - u - B0 * math.exp(-(beta / b) * (u - Q0))))

    return integrand


def sir_time_of(case: Case2, q_target: float) -> float:
    """Time at which the quitter count reaches q_target.

    t(Q) = (1/b) int dQ / P(Q); the target must stay below the final
    quitter count N - B_inf, where the integrand diverges.
    """
    rel = sir_relations(case)
    q_inf = case.N - rel.B_inf
    if not case.Q0 <= q_target < q_inf:
        raise DomainError(
            f"q_target must lie in [{case.Q0}, {q_inf:.6g}) (reachable range)")
    if q_target == case.Q0:
        return 0.0
    return numerics.quadrature(_sir_integrand(case), case.Q0, q_target, tol=1e-11)


def sir_peak_time(case: Case2) -> float:
    """Peak time recovered through Q(T_m) = Q0 + (b/beta) ln(beta B0 / b)."""
    rel = sir_relations(case)
    if not rel.has_interior_peak:
        return 0.0
    return sir_time_of(case, rel.Q_Tm)


def _case2_path(case: Case2, grid: Sequence[float]) -> Trajectory:
    rel = sir_relations(case)
    q_inf = case.N - rel.B_inf
    integrand = _sir_integrand(case)
    qs, ts = _q_ladder(case.Q0, q_inf, integrand, grid[-1])
    Q = _q_at_times(grid, qs, ts, integrand)
    B = [rel.B_of_Q(q) for q in Q]
    P = [case.N - b - q for b, q in zip(B, Q)]
    D = [case.beta * p * b for p, b in zip(P, B)]
    C = [case.B0 - b for b in B]
    return _package(grid, B, P, Q, D, C)


def case4_peak(case: Case4) -> PeakMetrics:
    """Peak from the balance beta B = gamma Q combined with the first
    integral: Q(T_m) = [beta B0 Q0^(beta/gamma) / gamma]^(gamma/(beta+gamma)).

    With beta B0 <= gamma Q0 the player count falls from the start, so the
    peak is P0 at t = 0."""
    beta, gamma = case.beta, case.gamma
    c_inf = case.B0 - _case4_b_inf(case)
    if not beta * case.B0 > gamma * case.Q0:
        return PeakMetrics(T_m=0.0, P_m=case.P0, C_inf=c_inf)
    q_tm = (beta * case.B0 * case.Q0 ** (beta / gamma) / gamma) ** (gamma / (beta + gamma))
    p_tm = case.N - (1.0 + gamma / beta) * q_tm
    return PeakMetrics(T_m=_case4_time_of(case, q_tm), P_m=p_tm, C_inf=c_inf)


def _case4_integrand(case: Case4) -> Callable[[float], float]:
    beta, gamma, N = case.beta, case.gamma, case.N
    B0, Q0 = case.B0, case.Q0

    def integrand(u: float) -> float:
        return 1.0 / (gamma * u * (N - B0 * (Q0 / u) ** (beta / gamma) - u))

    return integrand


def _case4_q_inf(case: Case4) -> float:
    beta, gamma, N = case.beta, case.gamma, case.N
    B0, Q0 = case.B0, case.Q0

    def gap(q: float) -> float:
        return N - q - B0 * (Q0 / q) ** (beta / gamma)

    return numerics.solve_root(gap, Q0, N, tol=1e-13 * N)


def _case4_b_inf(case: Case4) -> float:
    q_inf = _case4_q_inf(case)
    return case.B0 * (case.Q0 / q_inf) ** (case.beta / case.gamma)


def _case4_time_of(case: Case4, q_target: float) -> float:
    if q_target == case.Q0:
        return 0.0
    return numerics.quadrature(_case4_integrand(case), case.Q0, q_target, tol=1e-11)


def _case4_path(case: Case4, grid: Sequence[float]) -> Trajectory:
    q_inf = _case4_q_inf(case)
    integrand = _case4_integrand(case)
    qs, ts = _q_ladder(case.Q0, q_inf, integrand, grid[-1])
    Q = _q_at_times(grid, qs, ts, integrand)
    expo = case.beta / case.gamma
    B = [case.B0 * (case.Q0 / q) ** expo for q in Q]
    P = [case.N - b - q for b, q in zip(B, Q)]
    D = [case.beta * p * b for p, b in zip(P, B)]
    C = [case.B0 - b for b in B]
    return _package(grid, B, P, Q, D, C)


# ---------------------------------------------------------------------------
# Case 5: Riccati transform
# ---------------------------------------------------------------------------

def _case5_path(case: Case5, grid: Sequence[float]) -> Trajectory:
    """Q(t) = 1/w(t) where w solves the linearized equation.

    w' = -gamma (N - B0 e^{-a t}) w + gamma with w(0) = 1/Q0;
    the integrating-factor integral is accumulated by quadrature with
    all exponents shifted to stay nonpositive (psi is increasing).
    """
    a, gamma, N = case.a, case.gamma, case.N
    B0, Q0 = case.B0, case.Q0

    def psi(t: float) -> float:
        return gamma * N * t + (gamma * B0 / a) * math.exp(-a * t)

    w = 1.0 / Q0
    B, P, Q, D, C = [], [], [], [], []
    prev_t = None
    for t in grid:
        if prev_t is not None:
            w = numerics.shifted_integral_step(w, lambda x: gamma, psi, prev_t, t)
        Bt = B0 * math.exp(-a * t)
        Qt = 1.0 / w
        Pt = N - Bt - Qt
        prev_t = t
        B.append(Bt)
        P.append(Pt)
        Q.append(Qt)
        D.append(a * Bt)
        C.append(B0 - Bt)
    return _package(grid, B, P, Q, D, C)


def case5_peak_value(case: Case5, t_m: float) -> float:
    """Peak height from the balance a B = gamma P Q at the peak time:
    2 P = (N - B0 e^{-a T_m}) + sqrt((N - B0 e^{-a T_m})^2 - (4a/gamma) B0 e^{-a T_m})."""
    shifted = case.N - case.B0 * math.exp(-case.a * t_m)
    disc = shifted * shifted - (4.0 * case.a / case.gamma) * case.B0 * math.exp(-case.a * t_m)
    if disc < 0:
        raise DomainError("no real peak value at the given time")
    return 0.5 * (shifted + math.sqrt(disc))


# ---------------------------------------------------------------------------
# Case 6 and case 3: direct integration
# ---------------------------------------------------------------------------

def _case6_path(case: Case6, grid: Sequence[float]) -> Trajectory:
    """Single Riccati equation for P with B = N e^{-a t} known.

    P' = gamma P^2 - (b + gamma N - gamma N e^{-a t}) P + a N e^{-a t};
    no simple particular solution exists, so this one is integrated.
    """
    a, b, gamma, N = case.a, case.b, case.gamma, case.N

    def rhs(t: float, y: Sequence[float]) -> list[float]:
        p = y[0]
        bt = N * math.exp(-a * t)
        return [gamma * p * p - (b + gamma * N - gamma * bt) * p + a * bt]

    rows = numerics.sample_ivp(VectorField(1, rhs), [0.0], grid)
    B = [N * math.exp(-a * t) for t in grid]
    P = [r[0] for r in rows]
    Q = [N - bt - pt for bt, pt in zip(B, P)]
    D = [a * bt for bt in B]
    C = [N - bt for bt in B]
    return _package(grid, B, P, Q, D, C)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def bpq_path(case: BpqCase, grid: Sequence[float]) -> Trajectory:
    """Trajectory with B, P, Q plus demand D = a(t, P) B and sales C = int D.

    Conservation B + P + Q = N holds at every sample by construction.
    """
    if grid[0] != 0.0:
        raise ParameterError("game paths start at t = 0; grid must begin there")
    if isinstance(case, Case1):
        return _case1_route(case, grid, allow_general=True)
    if isinstance(case, Case2):
        return _case2_path(case, grid)
    if isinstance(case, Case3):
        return _integrated_case_path(case, grid)
    if isinstance(case, Case4):
        return _case4_path(case, grid)
    if isinstance(case, Case5):
        return _case5_path(case, grid)
    if isinstance(case, Case6):
        return _case6_path(case, grid)
    raise ParameterError(f"unknown case {type(case).__name__}")


def refined_peak(case: BpqCase, grid: Sequence[float],
                 traj: Trajectory | None = None) -> tuple[float, tuple[float, float, float]]:
    """Peak time and state, sharpened beyond the grid resolution.

    At the peak the inflow a(t, P) B balances the outflow b(t, Q) P;
    the sign change of that imbalance is bracketed by the grid argmax
    and located by root finding, with the state advanced from the
    bracket's left grid sample by short integrations. ``traj`` is
    ``bpq_path(case, grid)`` when the caller already has it.
    """
    if traj is None:
        traj = bpq_path(case, grid)
    p = traj.channel("P")
    k = max(range(len(p)), key=lambda i: p[i])
    if k == 0 or k == len(p) - 1:
        s = traj.states[k]
        idx = [traj.labels.index(ch) for ch in ("B", "P", "Q")]
        return traj.times[k], (s[idx[0]], s[idx[1]], s[idx[2]])

    idx = [traj.labels.index(ch) for ch in ("B", "P", "Q")]
    t_lo = traj.times[k - 1]
    anchor = [traj.states[k - 1][i] for i in idx]
    t_hi = traj.times[k + 1]
    field = ode_field(case)
    a_int, b_int, _ = intensities(case)

    def state_at(t: float) -> list[float]:
        if t == t_lo:
            return list(anchor)
        return list(numerics.sample_ivp(field, anchor, [t_lo, t])[-1])

    def imbalance(t: float) -> float:
        s = state_at(t)
        return a_int(t, s) * s[0] - b_int(t, s) * s[1]

    try:
        t_m = numerics.solve_root(imbalance, t_lo, t_hi, tol=1e-12 * max(1.0, t_hi))
    except numerics.BracketInvalidError:
        t_m = traj.times[k]
    s = state_at(t_m)
    return t_m, (s[0], s[1], s[2])


def peak_metrics(case: BpqCase, grid: Sequence[float],
                 traj: Trajectory | None = None) -> PeakMetrics:
    """Peak summary of a case along the given grid.

    Uses the closed peak expressions where a case has them and the
    balance-refined grid peak otherwise. ``traj`` is
    ``bpq_path(case, grid)`` when the caller already has it; the path
    is computed at most once either way.
    """
    from .monopoly import ConstantRate as _CR
    if isinstance(case, Case1) and all(isinstance(s, _CR) for s in (case.a, case.b, case.c)):
        return case1_peak(case.a.a, case.b.a, case.c.a, case.N)
    if isinstance(case, Case4):
        return case4_peak(case)

    if traj is None:
        traj = bpq_path(case, grid)
    t_m, state = refined_peak(case, grid, traj)
    if isinstance(case, Case2):
        c_inf = case.B0 - sir_relations(case).B_inf
    elif isinstance(case, (Case3, Case6)):
        c_inf = case.N
    elif isinstance(case, Case5):
        c_inf = case.B0
    else:
        c_inf = traj.channel("C")[-1]
    return PeakMetrics(T_m=t_m, P_m=state[1], C_inf=c_inf)


# ---------------------------------------------------------------------------
# Complementary games
# ---------------------------------------------------------------------------

def companion_players(spec: ComplementarySpec, t: float) -> float:
    """Player count of the companion game, launched tau before game 1."""
    s = t + spec.tau
    if s <= 0.0:
        return 0.0
    nc, a_c, b_c = spec.companion_population, spec.a_c, spec.b_c
    if abs(b_c - a_c) < CONFLUENT_EPS * (a_c + b_c):
        return nc * a_c * s * math.exp(-a_c * s)
    return (nc * a_c / (b_c - a_c)) * (math.exp(-a_c * s) - math.exp(-b_c * s))


def _coupling_antiderivative(spec: ComplementarySpec, t: float) -> float:
    """A(t) with A'(t) = g * P_c(t), up to an additive constant."""
    s = t + spec.tau
    nc, a_c, b_c, g = spec.companion_population, spec.a_c, spec.b_c, spec.g
    if abs(b_c - a_c) < CONFLUENT_EPS * (a_c + b_c):
        return -nc * g * math.exp(-a_c * s) * (s + 1.0 / a_c)
    return (nc * g / (b_c - a_c)) * (
        (a_c / b_c) * math.exp(-b_c * s) - math.exp(-a_c * s))


def complementary_path(spec: ComplementarySpec, grid: Sequence[float]) -> Trajectory:
    """Both games' compartments on one grid.

    Game 2 follows its own externally driven closed form. Game 1 sees
    the time-dependent inflow g P_c(t): B = N exp(-(A(t) - A(t0*))) with
    A the antiderivative of the coupling (anchored at the time t0* when
    both games are live, so B starts exactly at N), and P through the
    integrating factor with the remaining integral done by quadrature.
    """
    if grid[0] != 0.0:
        raise ParameterError("complementary paths start at t = 0")
    n, b = spec.N, spec.b
    nc = spec.companion_population
    t_live = max(0.0, -spec.tau)
    a_ref = _coupling_antiderivative(spec, t_live)

    def delta_a(t: float) -> float:
        return _coupling_antiderivative(spec, t) - a_ref

    B, P, Q, D, C = [], [], [], [], []
    Bc, Pc, Qc = [], [], []
    k_acc = 0.0
    prev_t = None
    for t in grid:
        s = t + spec.tau
        bc = nc * math.exp(-spec.a_c * s) if s >= 0 else nc
        pc = companion_players(spec, t)
        Bc.append(bc)
        Pc.append(pc)
        Qc.append(nc - bc - pc)
        if t <= t_live:
            B.append(n)
            P.append(0.0)
            Q.append(0.0)
            D.append(spec.g * pc * n)
            C.append(0.0)
            prev_t = None
            continue
        lo = prev_t if prev_t is not None else t_live
        k_acc = numerics.shifted_integral_step(
            k_acc, lambda u: math.exp(-delta_a(u)), lambda u: b * (u - t), lo, t)
        bt = n * math.exp(-delta_a(t))
        pt = n * (math.exp(-b * (t - t_live)) - math.exp(-delta_a(t))) + n * b * k_acc
        prev_t = t
        B.append(bt)
        P.append(pt)
        Q.append(n - bt - pt)
        D.append(spec.g * pc * bt)
        C.append(n - bt)
    return from_channels(grid, {"B": B, "P": P, "Q": Q,
                                "B_c": Bc, "P_c": Pc, "Q_c": Qc,
                                "D": D, "C": C})


def complementary_field(spec: ComplementarySpec) -> VectorField:
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

    return VectorField(6, rhs)


def complementary_constant_approx(spec: ComplementarySpec, p_c0: float,
                                  feedback_beta: float = 0.0) -> Case3:
    """Constant-driver estimate: freeze the companion's player count at
    p_c0, giving an effective inflow a = g * p_c0 (plus any direct
    player feedback), and reuse the mixed-inflow case."""
    if p_c0 < 0:
        raise ParameterError("constant player proxy must be nonnegative")
    if p_c0 == 0.0 and feedback_beta == 0.0:
        raise ParameterError("a zero proxy decouples the games: no adoption at all")
    return Case3(a=spec.g * p_c0, beta=feedback_beta, b=spec.b, N=spec.N)
