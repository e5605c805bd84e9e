"""Markets with several suppliers competing for shares.

Covers growth without churn (fixed points and the innovators-only
closed form), spontaneous churn (asymptotic shares from the balance
system, matrix-exponential dynamics and the two-supplier closed form),
periodically modulated churn rates, and stimulated churn with its
winner-take-all behavior.

Churn never changes the total customer count: the flow functions C_i
sum to zero identically, so all fixed points of a fully developed
market lie on the hyperplane sum(u_i) = 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import numerics
from .errors import (
    DegenerateMarketError,
    DomainError,
    InconsistentSpecError,
    InfeasibleMarketError,
    IntegrationInvariantError,
    ParameterError,
    SingularMatrixError,
)
from .numerics import SquareMatrix
from .trajectory import Trajectory, from_channels


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------

class BassCompetition(namedtuple("BassCompetition", "m r u0")):
    """Per-supplier innovation (m_i) and imitation (r_i) coefficients.

    Supplier i gains new customers at rate (1 - sum u_j)(m_i + r_i u_i).
    """

    __slots__ = ()

    def __new__(cls, m: tuple[float, ...], r: tuple[float, ...], u0: tuple[float, ...]):
        n = len(m)
        if n < 1 or len(r) != n or len(u0) != n:
            raise ParameterError("m, r and u0 must have one entry per supplier")
        if any(v < 0 for v in m) or any(v < 0 for v in r):
            raise ParameterError("coefficients must be nonnegative")
        if any(not mi + ri > 0 for mi, ri in zip(m, r)):
            raise ParameterError("each supplier needs m_i + r_i > 0")
        if any(v < 0 for v in u0) or math.fsum(u0) > 1.0 + 1e-12:
            raise ParameterError("initial shares must be nonnegative with sum <= 1")
        if all(v == 0 for v in m) and all(v == 0 for v in u0):
            raise ParameterError("an all-imitator market needs a nonzero initial share")
        return super().__new__(cls, m, r, u0)

    @property
    def n(self) -> int:
        return len(self.m)


class ChurnMatrix(namedtuple("ChurnMatrix", "a")):
    """Spontaneous churn rates; a[i][j] is the flow intensity i -> j.

    The diagonal must be zero; the total outflow rate of supplier i is
    derived as the row sum over j != i.
    """

    __slots__ = ()

    def __new__(cls, a: tuple[tuple[float, ...], ...]):
        n = len(a)
        if n < 1 or any(len(row) != n for row in a):
            raise ParameterError("churn rates must form a square grid")
        for i, row in enumerate(a):
            if row[i] != 0.0:
                raise ParameterError("diagonal churn entries must be zero (derived)")
            if any(v < 0 for v in row):
                raise ParameterError("churn rates must be nonnegative")
        return super().__new__(cls, a)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[float]]) -> "ChurnMatrix":
        return ChurnMatrix(tuple(tuple(float(v) for v in r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.a)

    def outflow(self, i: int) -> float:
        return math.fsum(self.a[i][j] for j in range(self.n) if j != i)

    def scaled(self, factor: float) -> "ChurnMatrix":
        return ChurnMatrix(tuple(tuple(factor * v for v in row) for row in self.a))


class Sinusoid(namedtuple("Sinusoid", "amplitude period phase")):
    """amplitude * sin(2 pi t / period + phase); zero mean over one period."""

    __slots__ = ()

    def __new__(cls, amplitude: float, period: float, phase: float = 0.0):
        if amplitude < 0 or not period > 0:
            raise ParameterError("sinusoid needs amplitude >= 0 and period > 0")
        if not math.isfinite(2.0 * math.pi / period):
            raise ParameterError("sinusoid period with a finite angular frequency 2 pi / period")
        return super().__new__(cls, amplitude, period, phase)

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)

    def integral(self, t: float) -> float:
        """Exact integral from 0 to t.

        Whole periods integrate to zero, so only t mod period enters, and
        cos(phase) - cos(w t + phase) is written as a product of sines: no
        horizon overflows the angle and a slow sinusoid loses no digits.
        """
        w = 2.0 * math.pi / self.period
        half = 0.5 * w * math.fmod(t, self.period)
        return 2.0 * self.amplitude * (math.sin(half) / w) * math.sin(half + self.phase)


class PairModulation(NamedTuple):
    """Periodic modulation of one churn rate a_ij."""

    i: int
    j: int
    terms: tuple[Sinusoid, ...]

    def value(self, t: float) -> float:
        return math.fsum(s.value(t) for s in self.terms)

    def amplitude_bound(self) -> float:
        return math.fsum(s.amplitude for s in self.terms)


class PeriodicChurnSpec(namedtuple("PeriodicChurnSpec", "a0 eps")):
    """Baseline churn rates plus zero-mean periodic modulations."""

    __slots__ = ()

    def __new__(cls, a0: ChurnMatrix, eps: tuple[PairModulation, ...] = ()):
        n = a0.n
        for mod in eps:
            if not (0 <= mod.i < n and 0 <= mod.j < n and mod.i != mod.j):
                raise ParameterError("modulation indices must address an off-diagonal pair")
            if a0.a[mod.i][mod.j] - mod.amplitude_bound() < -1e-12:
                raise ParameterError("modulated churn rate can become negative")
        return super().__new__(cls, a0, eps)

    @property
    def n(self) -> int:
        return self.a0.n

    def epsilon(self, i: int, j: int, t: float) -> float:
        return math.fsum(m.value(t) for m in self.eps if m.i == i and m.j == j)

    def rate(self, i: int, j: int, t: float) -> float:
        return self.a0.a[i][j] + self.epsilon(i, j, t)


class StimulatedChurnSpec(namedtuple("StimulatedChurnSpec", "churn b eps")):
    """Churn whose popularity feedback is f_i(u) = b_i u_i + eps_i.

    eps_i in {0, 1} switches the spontaneous component per supplier;
    purely stimulated markets (all eps_i = 0) are winner-take-all.
    """

    __slots__ = ()

    def __new__(cls, churn: ChurnMatrix, b: tuple[float, ...], eps: tuple[int, ...]):
        n = churn.n
        if len(b) != n or len(eps) != n:
            raise ParameterError("b and eps need one entry per supplier")
        if any(v < 0 for v in b):
            raise ParameterError("stimulation strengths must be nonnegative")
        if any(e not in (0, 1) for e in eps):
            raise ParameterError("eps entries must be 0 or 1")
        if all(v == 0 for v in b) and all(e == 0 for e in eps):
            raise ParameterError("at least one of b_i, eps_i must be nonzero")
        return super().__new__(cls, churn, b, eps)

    @property
    def n(self) -> int:
        return self.churn.n

    @property
    def purely_stimulated(self) -> bool:
        return all(e == 0 for e in self.eps)


ChurnSpec = Union[ChurnMatrix, StimulatedChurnSpec, PeriodicChurnSpec]
ChurnFlows = Callable[[float, Sequence[float]], list[float]]


class StimulatedFixedPoint(NamedTuple):
    u: tuple[float, ...]
    classification: str  # winner_take_all | shared
    vertices: tuple[tuple[float, ...], ...] | None = None


# ---------------------------------------------------------------------------
# Churn flow functions
# ---------------------------------------------------------------------------
#
# The functions below run once per integrator stage or quadrature node. The
# specs are compiled first: the two kernels into flat lists of floats, and
# the fields into straight-line code per shape. Before CPython 3.12 every
# comprehension is a function call of its own, which at these sizes costs as
# much as the arithmetic.

def _modulation_kernel(mods: Sequence[PairModulation]) -> Callable[[float], float]:
    """``t -> fsum(m.value(t) for m in mods)`` with the records' floats read once.

    Each term is amplitude * sin((2 pi t) / period + phase), summed per
    modulation and then over the modulations with the same ``fsum`` calls
    as :meth:`PairModulation.value` and :meth:`PeriodicChurnSpec.epsilon`,
    so every value is bit-identical to theirs.
    """
    params = [[(s.amplitude, s.period, s.phase) for s in m.terms] for m in mods]
    two_pi, sin, fsum = 2.0 * math.pi, math.sin, math.fsum

    def value(t: float) -> float:
        x = two_pi * t
        sums = []
        for terms in params:
            parts = []
            for a, p, ph in terms:
                parts.append(a * sin(x / p + ph))
            sums.append(fsum(parts))
        return fsum(sums)

    return value


def _integral_kernel(terms: Sequence[Sinusoid]) -> Callable[[float], float]:
    """``t -> fsum(s.integral(t) for s in terms)`` with the records' floats read once.

    Per term: (2 amplitude) (sin(half) / w) sin(half + phase) with
    w = 2 pi / period and half = (0.5 w) fmod(t, period), the expression
    of :meth:`Sinusoid.integral`, so every value is bit-identical to it.
    """
    params = []
    for s in terms:
        w = 2.0 * math.pi / s.period
        params.append((2.0 * s.amplitude, 0.5 * w, s.period, w, s.phase))
    sin, fmod, fsum = math.sin, math.fmod, math.fsum

    def integral(t: float) -> float:
        parts = []
        for a2, hw, p, w, ph in params:
            half = hw * fmod(t, p)
            parts.append(a2 * (sin(half) / w) * sin(half + ph))
        return fsum(parts)

    return integral


def resolve_churn_flows(churn: Optional[ChurnSpec]) -> ChurnFlows:
    """The net churn flows of a spec as one function ``flows(t, u) -> [C_i]``.

    Every C_i is the ``fsum`` of a_ji u_j f_i - a_ij u_i f_j over j != i in
    ascending j (f = 1 for spontaneous and periodic churn, f_k = b_k u_k +
    eps_k for stimulated churn), with the rate a_ij(t) = a0_ij + fsum of the
    pair's modulations for periodic churn; see :func:`market_field`.
    """
    if churn is None:
        return lambda t, u: [0.0] * len(u)
    return market_field(None, churn)


#: make(m, r, a, b, eps, terms) -> rhs(t, u) per field shape; see market_field.
_CHURN_FIELDS: dict[tuple, dict] = {}


def market_field(market: Optional[BassCompetition],
                 churn: Optional[ChurnSpec] = None) -> numerics.RHS:
    """du_i/dt = (1 - sum u)(m_i + r_i u_i) + C_i(u) of a market (without the
    flows when the spec is None), or with ``market`` None the churn flows C_i
    of the spec alone.

    The function is written out once per shape: the supplier count, the
    churn's form (linear in the shares, or stimulated), whether the Bass
    part is there, and the modulated pairs with the term count of each of
    their modulations. Its ``make`` binds one document's values as closure
    locals, so a call only unpacks u, evaluates the modulated rates and the
    sums. Every sum is the ``fsum`` of its terms in the order of the
    definitions, so each value is the definition's to the bit.
    """
    m, r, a, b, eps, terms, groups = (), (), (), (), (), [], {}
    if market is not None:
        m, r = market.m, market.r
    if churn is None:
        form, n = None, market.n
    elif isinstance(churn, ChurnMatrix):
        form, n, a = "linear", churn.n, [v for row in churn.a for v in row]
    elif isinstance(churn, PeriodicChurnSpec):
        form, n = "linear", churn.n
        a = [churn.rate(i, j, 0.0) for i in range(n) for j in range(n)]
        for mod in churn.eps:
            groups.setdefault((mod.i, mod.j), []).append(mod)
        for (i, j), mods in sorted(groups.items()):
            terms.append(churn.a0.a[i][j])
            terms += [x for mod in mods for s in mod.terms for x in s]
    elif isinstance(churn, StimulatedChurnSpec):
        form, n, a = "stimulated", churn.n, [v for row in churn.churn.a for v in row]
        b, eps = churn.b, churn.eps
    else:
        raise ParameterError(f"unsupported churn specification {type(churn).__name__}")
    shape = (n, form, market is not None, tuple(
        (pair, tuple(len(mod.terms) for mod in mods)) for pair, mods in sorted(groups.items())))
    kind = "periodic" if groups else "spontaneous" if form == "linear" else form
    label = " ".join([f"n={n}"] + ["bass"] * (market is not None) + [kind] * bool(kind) + [
        f"a{i + 1},{j + 1}:" + "+".join(map(str, counts)) for (i, j), counts in shape[3]])
    built = numerics.build_once(_CHURN_FIELDS, shape, f"<churn field {label}>",
                                lambda: _churn_field_source(*shape), two_pi=2.0 * math.pi,
                                sin=math.sin, fsum=math.fsum)
    return built["make"](m, r, a, b, eps, terms)


def _churn_field_source(n: int, form: Optional[str], bass: bool,
                        groups: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]) -> str:
    """Source of the ``make`` of one shape of :func:`market_field`."""
    comps, modulated = range(n), dict(groups)

    def unpack(names) -> str:
        return " ".join(f"{name}," for name in names)

    lines = ["def make(m, r, a, b, eps, terms):"]
    if bass:
        lines += [f"    {unpack(f'm_{i}' for i in comps)} = m",
                  f"    {unpack(f'r_{i}' for i in comps)} = r"]
    if form:
        names = ("_" if i == j or (i, j) in modulated else f"a_{i}_{j}"
                 for i in comps for j in comps)
        lines.append(f"    {unpack(names)} = a")
    if form == "stimulated":
        lines += [f"    {unpack(f'b_{i}' for i in comps)} = b",
                  f"    {unpack(f'e_{i}' for i in comps)} = eps"]
    params, rates, q = [], [], 0
    for (i, j), counts in groups:
        params.append(f"base_{i}_{j}")
        sums = []
        for count in counts:
            ks = range(q, q + count)
            params += [f"{x}{k}" for k in ks for x in ("A", "P", "ph")]
            sums.append("fsum((" + unpack(f"A{k} * sin(x / P{k} + ph{k})" for k in ks) + "))")
            q += count
        rates.append(f"        a_{i}_{j} = base_{i}_{j} + fsum(({unpack(sums)}))")
    if params:
        lines.append(f"    {unpack(params)} = terms")
    lines += ["    def rhs(t, u):", f"        {unpack(f'u_{i}' for i in comps)} = u"]
    lines += ["        x = two_pi * t"] * bool(groups) + rates
    if form == "stimulated":
        lines += [f"        f_{i} = b_{i} * u_{i} + e_{i}" for i in comps]
    flow = ("a_{j}_{i} * u_{j} * f_{i} - a_{i}_{j} * u_{i} * f_{j}" if form == "stimulated"
            else "a_{j}_{i} * u_{j} - a_{i}_{j} * u_{i}")
    out = []
    for i in comps:
        parts = [f"vacancy * (m_{i} + r_{i} * u_{i})"] * bass + [
            "fsum((" + unpack(flow.format(i=i, j=j) for j in comps if j != i) + "))"] * bool(form)
        out.append(" + ".join(parts))
    lines += ["        vacancy = 1.0 - fsum(u)"] * bass
    lines += [f"        return [{', '.join(out)}]", "    return rhs", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Markets without churning
# ---------------------------------------------------------------------------

def fixed_point_no_churn(market: BassCompetition) -> list[float]:
    """Asymptotic shares of the no-churn market.

    All-innovator markets split in proportion to m_i; all-imitator
    markets amplify the initial shares through the exponents r_i / r_k;
    the mixed case solves the share-sum condition for the reference
    supplier by root finding and maps the rest through the first
    integral u_i(u_k).
    """
    m, r, u0 = market.m, market.r, market.u0
    n = market.n
    s0 = math.fsum(u0)

    if all(v == 0 for v in r):
        total_m = math.fsum(m)
        return [u0i + mi * (1.0 - s0) / total_m for u0i, mi in zip(u0, m)]

    if all(v == 0 for v in m):
        k = max(range(n), key=lambda i: u0[i])

        def share(i: int, x: float) -> float:
            if u0[i] == 0.0:
                return 0.0
            return u0[i] * (x / u0[k]) ** (r[i] / r[k])

        def gap(x: float) -> float:
            return math.fsum(share(i, x) for i in range(n)) - 1.0

        try:
            root = numerics.solve_root(gap, u0[k], 1.0, tol=1e-14)
        except numerics.BracketInvalidError as exc:
            raise InfeasibleMarketError(str(exc)) from exc
        return [share(i, root) for i in range(n)]

    if any(v == 0 for v in r):
        raise ParameterError(
            "fixed point solve needs r_i > 0 for all suppliers (or all zero); "
            "use the numeric path for mixed markets")

    k = max(range(n), key=lambda i: m[i] + r[i] * u0[i])
    base = m[k] + r[k] * u0[k]

    def share(i: int, x: float) -> float:
        grow = ((m[k] + r[k] * x) / base) ** (r[i] / r[k])
        return (m[i] / r[i] + u0[i]) * grow - m[i] / r[i]

    def gap(x: float) -> float:
        return math.fsum(share(i, x) for i in range(n)) - 1.0

    if gap(u0[k]) >= 0.0:
        return list(u0)
    try:
        root = numerics.solve_root(gap, u0[k], 1.0, tol=1e-14)
    except numerics.BracketInvalidError as exc:
        raise InfeasibleMarketError(str(exc)) from exc
    return [share(i, root) for i in range(n)]


def innovators_only_path(m: Sequence[float], grid: Sequence[float]) -> Trajectory:
    """u_i(t) = (m_i / sum m)(1 - e^{-sum(m) t}); shares stay proportional to m."""
    total = math.fsum(m)
    if any(v < 0 for v in m) or not total > 0:
        raise ParameterError("innovation coefficients must be nonnegative with positive sum")
    fill = [1.0 - math.exp(-total * t) for t in grid]
    return from_channels(grid, {f"u{i + 1}": [(mi / total) * f for f in fill]
                                for i, mi in enumerate(m)})


# ---------------------------------------------------------------------------
# Spontaneous churning
# ---------------------------------------------------------------------------

def _balance_matrix(c: ChurnMatrix) -> SquareMatrix:
    """n-1 zero-net-churn rows plus the developed-market row sum(u) = 1."""
    n = c.n
    rows = []
    for i in range(n - 1):
        row = [c.a[j][i] if j != i else -c.outflow(i) for j in range(n)]
        rows.append(row)
    rows.append([1.0] * n)
    return SquareMatrix.from_rows(rows)


def spontaneous_equilibrium(c: ChurnMatrix) -> list[float]:
    """Asymptotic shares of a fully developed market with spontaneous churn.

    Raises:
        DegenerateMarketError: When the balance system is singular
            (two or more suppliers lose no customers); solve the
            dynamic path and take its long-time limit instead.
    """
    n = c.n
    if n == 1:
        return [1.0]
    a = _balance_matrix(c)
    rhs = [0.0] * (n - 1) + [1.0]
    try:
        return numerics.linear_solve(a, rhs)
    except SingularMatrixError as exc:
        raise DegenerateMarketError(
            "churn balance system is singular (several suppliers lose no "
            "customers); use the dynamic path and take t -> infinity") from exc


def _innovator_churn_matrix(m: Sequence[float], c: ChurnMatrix) -> SquareMatrix:
    """Coefficient matrix Q of du/dt = m - Q u for innovators plus churn."""
    n = c.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(m[i] + c.outflow(i))
            else:
                row.append(m[i] - c.a[j][i])
        rows.append(row)
    return SquareMatrix.from_rows(rows)


def spontaneous_path(m: Sequence[float], c: ChurnMatrix,
                     grid: Sequence[float]) -> Trajectory:
    """Shares of an innovators-only market with spontaneous churn, from zero.

    Evaluates u(t) = (I - e^{-Qt}) v with v = Q^{-1} m through the matrix
    exponential; if Q is singular the path falls back to direct
    integration (noted on the trajectory).

    The decay e^{-Qt} v is computed at the first grid time and then
    propagated sample to sample with E = e^{-Q h}: decay(t + h) =
    E decay(t). One E serves every step it fits: it is reused while the
    time it has propagated to, anchor + k h, agrees with the next grid
    time to 1e-14 relative (the steps of :func:`time_grid` differ only
    in the last bits of t), and recomputed for the step to the next
    grid time otherwise, so a non-uniform grid costs one exponential
    per sample and the propagated time never drifts off the grid.
    """
    n = c.n
    if len(m) != n:
        raise ParameterError("m must have one entry per supplier")
    q = _innovator_churn_matrix(m, c)
    notes: tuple[str, ...] = ()
    try:
        v = numerics.linear_solve(q, list(m))
        neg_q = q.scaled(-1.0)
        # e^(-Q 0) is the identity exactly; it needs no series.
        decay = (SquareMatrix.identity(n).apply(v) if grid[0] == 0.0
                 else numerics.mat_exp_apply(neg_q, grid[0], v))
        rows = [tuple(vi - di for vi, di in zip(v, decay))]
        step_exp, h, anchor, k = None, 0.0, grid[0], 0
        for prev, t in zip(grid, grid[1:]):
            k += 1
            if step_exp is None or abs(anchor + k * h - t) > 1e-14 * abs(t):
                h, anchor, k = t - prev, prev, 1
                step_exp = numerics.mat_exp(neg_q, h)
            decay = step_exp.apply(decay)
            rows.append(tuple(vi - di for vi, di in zip(v, decay)))
    except SingularMatrixError:
        rows = numerics.sample_ivp(lambda t, y: [
            m[i] - math.fsum(q.entries[i][j] * y[j] for j in range(n))
            for i in range(n)], [0.0] * n, grid)
        notes = ("matrix-exponential route unavailable (singular Q); integrated numerically",)
    channels = {f"u{i + 1}": [row[i] for row in rows] for i in range(n)}
    return from_channels(grid, channels, notes=notes)


def two_supplier_spontaneous_path(m1: float, m2: float, a12: float, a21: float,
                                  grid: Sequence[float]) -> Trajectory:
    """Closed two-exponential form of the two-supplier innovator+churn path.

    The decay rates are s = a12 + a21 (churn mixing) and sigma = m1 + m2
    (market fill): u1 = a21 g(0, s) + (m1 - a21) g(s, sigma) and u2 alike
    with a12 and m2, where g is :func:`numerics.decay_gap`, so the form is
    exact at any gap between s and sigma.
    """
    s = a12 + a21
    sigma = m1 + m2
    if not s > 0 or not sigma > 0:
        raise ParameterError("needs positive total churn and innovation rates")
    mix = [numerics.decay_gap(0.0, s, t) for t in grid]
    fill = [numerics.decay_gap(s, sigma, t) for t in grid]
    u1 = [a21 * x + (m1 - a21) * y for x, y in zip(mix, fill)]
    u2 = [a12 * x + (m2 - a12) * y for x, y in zip(mix, fill)]
    return from_channels(grid, {"u1": u1, "u2": u2})


def two_supplier_peak_time(m1: float, m2: float, a21: float) -> float:
    """Peak time of supplier 2's share when it loses customers one-way
    (a12 = 0): T_m = (ln(m1 + m2) - ln a21) / (m1 + m2 - a21), which is
    1 / a21 when the two rates meet."""
    sigma = m1 + m2
    if not (sigma > 0 and a21 > 0):
        raise ParameterError("needs positive rates")
    return numerics.log_gap(sigma, a21)


# ---------------------------------------------------------------------------
# Periodic churning (two suppliers, fully developed market)
# ---------------------------------------------------------------------------

def periodic_mean_share(spec: PeriodicChurnSpec) -> float:
    """The constant part a21/(a12 + a21) of the two-supplier share u1."""
    a12_0, a21_0 = spec.a0.a[0][1], spec.a0.a[1][0]
    if not a12_0 + a21_0 > 0:
        raise ParameterError("baseline churn rates must not both vanish")
    return a21_0 / (a12_0 + a21_0)


#: Trailing-coefficient bound of the driven convolution's Chebyshev windows,
#: relative to the modulation amplitudes.
_WINDOW_TOL = 1e-13


def periodic_two_supplier_path(spec: PeriodicChurnSpec, u1_0: float,
                               grid: Sequence[float]) -> Trajectory:
    """Two-supplier share under periodically modulated churn rates.

    Returns u1 and u2 together with the three solution components: the
    constant mean share a21/(a12 + a21), a periodic zero-mean part, and
    a decaying transient from the initial share. The modulation integral
    E(t) of eps12 + eps21 is exact. The driven convolution
    sigma(t) = int_0^t d(x) exp(-s0 (t - x)) dx, with
    d = a21_0 alpha + eps21 (1 + alpha) and alpha = exp(E) - 1, is carried
    over windows of grid steps no longer than 1/s0, one Chebyshev series
    each; a step that no window shares takes a quadrature of its own.
    """
    if spec.n != 2:
        raise ParameterError("the analytic periodic path covers two suppliers")
    if not 0.0 <= u1_0 <= 1.0:
        raise ParameterError("u1_0 must lie in [0, 1]")
    mean_share = periodic_mean_share(spec)
    a12_0, a21_0 = spec.a0.a[0][1], spec.a0.a[1][0]
    s0 = a12_0 + a21_0
    # With two suppliers every modulation addresses a12 or a21.
    terms = [s for m in spec.eps for s in m.terms]
    amplitude = math.fsum(s.amplitude for s in terms)
    integral = _integral_kernel(terms)  # E(t)
    eps21 = _modulation_kernel([m for m in spec.eps if (m.i, m.j) == (1, 0)])
    expm1, exp = math.expm1, math.exp

    def driven(x: float) -> float:
        a = expm1(integral(x))
        return a21_0 * a + eps21(x) * (1.0 + a)

    times = list(grid)
    if times[0] != 0.0:
        raise ParameterError("grid must start at t = 0 (initial share is given there)")

    def step(sigma: float, t0: float, t: float) -> float:
        # d is of the size of the modulation amplitudes but crosses zero, and
        # its rounding at that size would keep a tolerance relative to the
        # increment itself out of reach near a crossing, so the increment is
        # measured against the amplitudes instead.
        return numerics.shifted_integral_step(
            sigma, lambda y: driven(t + y) * exp(s0 * y), lambda y: s0 * y, t0, t,
            amplitude * min(t - t0, 1.0 / s0))

    sigmas = [0.0] + numerics.shifted_integrals(
        lambda lo, x: driven(lo + x) * exp(s0 * x), lambda lo, x: s0 * x, step,
        times, 0.0, _WINDOW_TOL, amplitude)
    u1, mean_ch, periodic_ch, decaying_ch = [], [], [], []
    for t, sigma in zip(times, sigmas):
        a = expm1(integral(t))
        if a == -1.0:
            raise DomainError(f"the modulation factor e^E underflows to 0 at t = {t!r}, "
                              "and the periodic form divides by it")
        periodic = (-a * mean_share + sigma) / (1.0 + a)
        decaying = (u1_0 - mean_share) / (1.0 + a) * math.exp(-s0 * t)
        mean_ch.append(mean_share)
        periodic_ch.append(periodic)
        decaying_ch.append(decaying)
        u1.append(mean_share + periodic + decaying)

    u2 = [1.0 - v for v in u1]
    return from_channels(times, {
        "u1": u1, "u2": u2,
        "mean": mean_ch, "periodic": periodic_ch, "decaying": decaying_ch,
    })


# ---------------------------------------------------------------------------
# Stimulated churning
# ---------------------------------------------------------------------------

def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return roots


def stimulated_fixed_point(spec: StimulatedChurnSpec,
                           u0: Sequence[float] | None = None) -> StimulatedFixedPoint:
    """Asymptotic state of a fully developed market with stimulated churn.

    Purely stimulated churn admits no stable interior balance: the
    stable fixed points are the simplex vertices, so the market tips to
    a single supplier (winner-take-all). The realized vertex is found
    by simulating from ``u0`` (uniform by default). With a spontaneous
    component present, the balance equations have an interior solution;
    for two suppliers it is the admissible root of a quadratic.
    """
    n = spec.n
    if spec.purely_stimulated:
        start = tuple(u0) if u0 is not None else tuple(1.0 / n for _ in range(n))
        if abs(math.fsum(start) - 1.0) > 1e-9:
            raise ParameterError("initial shares of a developed market must sum to 1")
        rates = [x for row in spec.churn.a for x in row if x > 0] + [b for b in spec.b if b > 0]
        slowest = min(rates) if rates else 1.0
        final = numerics.sample_ivp(resolve_churn_flows(spec), list(start),
                                    [0.0, 60.0 / slowest])[-1]
        winner = max(range(n), key=lambda i: final[i])
        vertex = tuple(1.0 if i == winner else 0.0 for i in range(n))
        vertices = tuple(tuple(1.0 if i == k else 0.0 for i in range(n)) for k in range(n))
        return StimulatedFixedPoint(u=vertex, classification="winner_take_all",
                                    vertices=vertices)

    if n == 2:
        a12, a21 = spec.churn.a[0][1], spec.churn.a[1][0]
        e1, e2 = spec.eps
        delta = spec.b[0] * a21 - spec.b[1] * a12
        roots = _quadratic_roots(delta, e1 * a21 + e2 * a12 - delta, -e1 * a21)
        admissible = [r for r in roots if 1e-15 < r <= 1.0 + 1e-12]
        if not admissible:
            raise InconsistentSpecError(
                "no admissible balance root in (0, 1] for the two-supplier spec")
        u1 = min(1.0, admissible[0])
        return StimulatedFixedPoint(u=(u1, 1.0 - u1), classification="shared")

    return _stimulated_fixed_point_newton(spec, u0)


def _stimulated_fixed_point_newton(spec: StimulatedChurnSpec,
                                   u0: Sequence[float] | None) -> StimulatedFixedPoint:
    """Newton's method on the reduced balance system for n > 2 suppliers: full
    steps with a forward-difference Jacobian."""
    n = spec.n
    x = list(u0[:n - 1]) if u0 is not None else [1.0 / n] * (n - 1)
    flows = resolve_churn_flows(spec)

    def residual(xs: Sequence[float]) -> list[float]:
        u = list(xs) + [1.0 - math.fsum(xs)]
        return flows(0.0, u)[:n - 1]

    for _ in range(120):
        f = residual(x)
        if max(abs(v) for v in f) < 1e-13:
            break
        jac_rows = []
        h = 1e-7
        for j in range(n - 1):
            bumped = list(x)
            bumped[j] += h
            fj = residual(bumped)
            jac_rows.append([(fj[i] - f[i]) / h for i in range(n - 1)])
        jac = SquareMatrix.from_rows([[jac_rows[j][i] for j in range(n - 1)]
                                      for i in range(n - 1)])
        try:
            step = numerics.linear_solve(jac, f)
        except SingularMatrixError as exc:
            raise InconsistentSpecError("balance system Jacobian is singular") from exc
        x = [xi - si for xi, si in zip(x, step)]
    u = x + [1.0 - math.fsum(x)]
    if any(v < -1e-9 for v in u):
        raise InconsistentSpecError("balance root left the simplex")
    return StimulatedFixedPoint(u=tuple(max(0.0, v) for v in u), classification="shared")


# ---------------------------------------------------------------------------
# Full nonlinear dynamics
# ---------------------------------------------------------------------------

def competitive_path_numeric(market: BassCompetition,
                             churn: Optional[ChurnSpec],
                             grid: Sequence[float]) -> Trajectory:
    """Direct integration of the full nonlinear market equations.

    At every output sample shares must stay nonnegative and the developed
    fraction must never fall nor exceed one. The churn flows must cancel;
    each pair's term enters its two rows as exact negatives, so they are
    checked at the last sample only. A breach raises, since it signals a
    mis-specified churn structure rather than a solver issue.
    """
    n = market.n
    if churn is not None and getattr(churn, "n") != n:
        raise ParameterError("churn specification and market disagree on supplier count")
    rows = numerics.sample_ivp(market_field(market, churn), list(market.u0), grid)

    prev_sum = -math.inf
    for t, row in zip(grid, rows):
        total = math.fsum(row)
        if any(v < -1e-9 for v in row):
            raise IntegrationInvariantError(f"negative share at t={t:.6g}: {row}")
        if total > 1.0 + 1e-7:
            raise IntegrationInvariantError(f"total share exceeds 1 at t={t:.6g}")
        if total < prev_sum - 1e-7:
            raise IntegrationInvariantError(f"total share decreased at t={t:.6g}")
        prev_sum = total
    flows = resolve_churn_flows(churn)(grid[-1], rows[-1])
    if abs(math.fsum(flows)) > 1e-10 * max(1.0, math.fsum(abs(c) for c in flows)):
        raise IntegrationInvariantError(f"churn flows do not cancel at t={grid[-1]:.6g}")

    channels = {f"u{i + 1}": [row[i] for row in rows] for i in range(n)}
    return from_channels(grid, channels)
