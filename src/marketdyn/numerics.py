"""Self-contained numerical kernel.

Provides everything the model modules need and nothing more: an adaptive
DOP853 integrator with dense output, globally adaptive Gauss-Kronrod
quadrature, Chebyshev series over windows for integrals sampled on a
grid, a hybrid bisection/Newton root finder, the divided
differences of e^(-st) and of ln s over two rates, and small dense
linear algebra (linear solve, one matrix exponential, returned as a
matrix or applied to a vector).

All routines are pure functions of their inputs. The integrator's error
tolerances are fixed module constants, not arguments, and its step-size
sequence depends only on the field, the initial state and the span, so
CSV output stays reproducible bit for bit. Every model in this library
is smooth and non-stiff at the parameter scales used, which is what an
explicit embedded pair needs: Hairer's 8(5,3) pair with its 7th-order
continuous extension (Prince & Dormand, J. Comput. Appl. Math. 7 (1981);
Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6 and II.10).
A run that turns stiff ends with an error once Hairer's stiffness test
(Solving ODEs II, IV.2) shows the step budget cannot carry it through.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import threading
from collections import namedtuple
from typing import Callable, Iterable, Sequence

from .errors import (
    AccuracyNotReachedError,
    BracketInvalidError,
    DomainError,
    IntegrationDivergedError,
    SingularMatrixError,
)

State = Sequence[float]
RHS = Callable[[float, State], Sequence[float]]

#: Relative and absolute local error tolerances of :func:`sample_ivp`.
RTOL = 1e-13
ATOL = 1e-15
#: Step attempts after which :func:`sample_ivp` gives up.
MAX_STEPS = 100_000


def _fsum(xs: Iterable[float]) -> float:
    """math.fsum, which rounds alike on every Python (``sum`` compensates from
    3.12 on); where its partials overflow or meet inf - inf, ``sum``'s inf or nan."""
    xs = list(xs)
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return sum(xs)


class SquareMatrix(namedtuple("SquareMatrix", "n entries")):
    """Dense n-by-n real matrix, row-major."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[tuple[float, ...], ...]):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("entries must form an n-by-n grid")
        if not all(math.isfinite(v) for r in entries for v in r):
            raise DomainError("a matrix entry leaves the range of a double")
        return super().__new__(cls, n, entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[float]]) -> "SquareMatrix":
        return SquareMatrix(len(rows), tuple(tuple(float(v) for v in r) for r in rows))

    @staticmethod
    def identity(n: int) -> "SquareMatrix":
        return SquareMatrix(n, tuple(tuple(1.0 if i == j else 0.0 for j in range(n))
                                     for i in range(n)))

    def scaled(self, factor: float) -> "SquareMatrix":
        return SquareMatrix(self.n, tuple(tuple(factor * v for v in r) for r in self.entries))

    def apply(self, v: Sequence[float]) -> list[float]:
        fsum, mul = math.fsum, operator.mul
        return [fsum(map(mul, r, v)) for r in self.entries]

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        """The product, its entries unchecked: an overflow shows as inf or nan."""
        fsum, mul, columns = math.fsum, operator.mul, list(zip(*other.entries))
        return SquareMatrix._make((self.n, tuple(
            tuple([fsum(map(mul, r, c)) for c in columns]) for r in self.entries)))

    def inf_norm(self) -> float:
        return max(_fsum(map(abs, r)) for r in self.entries)


def _rms(xs: Sequence[float]) -> float:
    """Root mean square; inf (never OverflowError) when the squares overflow."""
    return math.sqrt(_fsum([x * x for x in xs]) / len(xs))


def _initial_step(f: RHS, t: float, y: list[float], k1: Sequence[float],
                  h_max: float) -> float:
    """Starting step from the sizes of y, y' and y'' (Hairer-Norsett-Wanner II.4)."""
    scale = [ATOL + RTOL * abs(v) for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([k / s for k, s in zip(k1, scale)])
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h = min(h, h_max)
    if not h > 0.0:
        return 0.0
    k2 = f(t + h, [v + h * k for v, k in zip(y, k1)])
    d2 = _rms([(b - a) / s for a, b, s in zip(k1, k2, scale)]) / h
    h_new = max(1e-6, 1e-3 * h) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h, h_new, h_max)


# Hairer's dop853.f (Solving ODEs I, II.5), its constants as the doubles they
# round to; a sum lists the stages k_j it reads and their weights, in its order.
#: (node c, stages, weights) of stages 2-12, k = f(t + c h, y + h sum(w k_j));
#: stage 12 is taken at the step's end.
_DOP853_STAGES = (
    (0.05260015195876773, (1,), (0.05260015195876773,)),
    (0.0789002279381516, (1, 2), (0.0197250569845379, 0.0591751709536137)),
    (0.1183503419072274, (1, 3), (0.02958758547680685, 0.08876275643042054)),
    (0.2816496580927726, (1, 3, 4), (0.2413651341592667, -0.8845494793282861, 0.924834003261792)),
    (0.3333333333333333, (1, 4, 5), (0.037037037037037035, 0.17082860872947386,
     0.12546768756682242)),
    (0.25, (1, 4, 5, 6), (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125)),
    (0.3076923076923077, (1, 4, 5, 6, 7), (0.03709200011850479, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023)),
    (0.6512820512820513, (1, 4, 5, 6, 7, 8), (0.6241109587160757, -3.3608926294469414,
     -0.868219346841726, 27.59209969944671, 20.154067550477894, -43.48988418106996)),
    (0.6, (1, 4, 5, 6, 7, 8, 9), (0.47766253643826434, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627)),
    (0.8571428571428571, (1, 4, 5, 6, 7, 8, 9, 10), (-0.9371424300859873, 5.186372428844064,
     1.0914373489967295, -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196)),
    (None, (1, 4, 5, 6, 7, 8, 9, 10, 11), (2.273310147516538, -10.53449546673725,
     -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636)),
)
#: Stages and weights of the 8th-order solution and of its 5th-order error.
_DOP853_WEIGHTS = ((1, 6, 7, 8, 9, 10, 11, 12),
                   (0.054293734116568765, 4.450312892752409, 1.8915178993145003,
                    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
                    0.20136540080403034, 0.04471061572777259))
_DOP853_ERR5 = ((1, 6, 7, 8, 9, 10, 11, 12),
                (0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                 1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                 0.08192320648511571, -0.022355307863886294))
#: The 3rd-order error is the step's increment plus this sum.
_DOP853_ERR3 = ((1, 9, 12), (-0.2440944881889764, -0.7338466882816118, -0.022058823529411766))
#: (node, stages, weights) of the continuous extension's stages 14-16.
_DOP853_DENSE_STAGES = (
    (0.1, (1, 7, 8, 9, 10, 11, 12, 13), (0.056167502283047954, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298)),
    (0.2, (1, 6, 7, 8, 11, 12, 13, 14), (0.03183464816350214, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325)),
    (0.7777777777777778, (1, 6, 7, 8, 9, 13, 14, 15), (-0.42889630158379194, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987)),
)
#: Stages and weights of the four highest dense-output coefficients.
_DOP853_DENSE_IN = (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
_DOP853_DENSE_ROWS = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)


#: DOP853's step and its dense output; _dop853_source writes out the fields
#: in braces per component ({y} is "y_0, y_1," for two components).
_DOP853_TEMPLATE = """\
def step(rhs, t, h, t_new, y, k1):
    {y} = y
    {k1} = k1
    try:
{stages}
{solution}
        y_new = [{u}]
        err5 = {err5}
        err3 = {err3}
        deno = err5 + 0.01 * err3
        err = 0.0 if deno == 0.0 else abs(h) * err5 / math.sqrt({n} * deno)
        if not all(map(math.isfinite, y_new)):
            err = math.inf
        if not err <= 1.0:
            return err, s, y_new, None
        k13 = rhs(t_new, y_new)
    except (OverflowError, ValueError) as exc:
        # A trial step far past the stability limit can overflow a stage
        # state; the field then overflows itself or fails on inf or nan.
        if not isinstance(exc, OverflowError) and all(map(math.isfinite, s)):
            raise
        return math.inf, s, None, None
    return err, s, y_new, (k1, k6, k7, k8, k9, k10, k11, k12, k13)

def dense(rhs, t, h, t_new, y, y_new, ks, grid, nxt, out):
    {y} = y
    {u} = y_new
    k1, k6, k7, k8, k9, k10, k11, k12, k13 = ks
{dense_stages}
{coefficients}
    while nxt < len(grid) and grid[nxt] < t_new:
        s1 = (grid[nxt] - t) / h
        s0 = 1.0 - s1
        out.append(({samples}))
        nxt += 1
    return nxt
"""


def _dop853_source(n: int) -> str:
    """Source of DOP853's ``step`` and ``dense`` for states of n components:
    each stage state, error sum and dense-output coefficient written out per
    component, the tableau's doubles as literals and its sums in dop853.f's
    order (x + -c * k is x - c * k to the bit), so the results are those of
    loops over the components, bit for bit, without their overhead."""
    comps = range(n)

    def names(name: str) -> str:
        return " ".join(f"{name}_{i}," for i in comps)

    def terms(stages: Sequence[int], weights: Sequence[float], i: int) -> str:
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in zip(stages, weights))

    def state(stages: Sequence[int], weights: Sequence[float]) -> str:
        return "[" + ", ".join(f"y_{i} + h * ({terms(stages, weights, i)})" for i in comps) + "]"

    stages = []
    for k, (node, js, ws) in enumerate(_DOP853_STAGES, start=2):
        at = "t_new" if node is None else f"t + {node!r} * h"
        stages += [f"        s = {state(js, ws)}",
                   f"        {names(f'k{k}')} = k{k} = rhs({at}, s)"]
    dense_stages = [f"    {names(f'k{k}')} = k{k}" for k in (1, 6, 7, 8, 9, 10, 11, 12, 13)]
    for k, (node, js, ws) in enumerate(_DOP853_DENSE_STAGES, start=14):
        dense_stages.append(f"    {names(f'k{k}')} = rhs(t + {node!r} * h, {state(js, ws)})")
    solution, coefficients = [], []
    for i in comps:
        solution += [f"        i_{i} = {terms(*_DOP853_WEIGHTS, i)}",
                     f"        u_{i} = y_{i} + h * i_{i}",
                     f"        sk = ATOL + RTOL * max(abs(y_{i}), abs(u_{i}))",
                     f"        e5_{i} = ({terms(*_DOP853_ERR5, i)}) / sk",
                     f"        e3_{i} = (i_{i} + {terms(*_DOP853_ERR3, i)}) / sk"]
        coefficients += [f"    d_{i} = u_{i} - y_{i}", f"    b_{i} = h * k1_{i} - d_{i}",
                         f"    c_{i} = d_{i} - h * k13_{i} - b_{i}"]
        coefficients += [f"    r{r}_{i} = h * ({terms(_DOP853_DENSE_IN, row, i)})"
                         for r, row in enumerate(_DOP853_DENSE_ROWS, start=4)]
    return _DOP853_TEMPLATE.format(
        n=n, y=names("y"), k1=names("k1"), u=names("u"), stages="\n".join(stages),
        solution="\n".join(solution), dense_stages="\n".join(dense_stages),
        err5=" + ".join(f"e5_{i} * e5_{i}" for i in comps),
        err3=" + ".join(f"e3_{i} * e3_{i}" for i in comps), coefficients="\n".join(coefficients),
        samples=" ".join(f"y_{i} + s1 * (d_{i} + s0 * (b_{i} + s1 * (c_{i} + s0 * (r4_{i} + s1 * "
                         f"(r5_{i} + s0 * (r6_{i} + s1 * r7_{i}))))))," for i in comps))


_BUILD_LOCK = threading.Lock()


def build_once(cache: dict, key: object, name: str, source: Callable[[], str],
               **env: object) -> dict:
    """The namespace of the code ``source()`` returns, compiled as ``name`` and
    run over ``env``: built on the first call for ``key`` and kept in
    ``cache``, under one lock, so library callers on threads that meet a key
    together build it once. The source is in :mod:`linecache` under
    ``name``, for tracebacks."""
    with _BUILD_LOCK:
        built = cache.get(key)
        if built is None:
            import linecache
            text = source()
            built = dict(env)
            exec(compile(text, name, "exec"), built)
            linecache.cache[name] = (len(text), None, text.splitlines(True), name)
            cache[key] = built
        return built


_DOP853_BUILT: dict[int, dict] = {}


def _dop853(n: int) -> tuple[Callable, Callable]:
    """DOP853's ``step`` and ``dense`` for n components, built on first use."""
    built = build_once(_DOP853_BUILT, n, f"<dop853 step n={n}>", lambda: _dop853_source(n),
                       math=math, ATOL=ATOL, RTOL=RTOL)
    return built["step"], built["dense"]


def sample_ivp(rhs: RHS, y0: State, grid: Sequence[float]) -> list[tuple[float, ...]]:
    """States of the IVP du/dt = rhs(t, u), u(grid[0]) = y0, at the grid times.

    Adaptive DOP853 steps (Hairer's explicit Runge-Kutta 8(5,3) pair)
    keep the local error within :data:`RTOL` and :data:`ATOL`. The error
    estimate blends the 5th- and 3rd-order embedded solutions, and the
    step changes by 0.9 err^(-1/8), within [1/3, 6], and does not grow
    right after a rejection. Grid times inside a step come from its 7th-order dense
    output, whose three extra stages run only on steps that hold such a
    time; the last step lands exactly on grid[-1]. The step is written out
    for len(y0) components, so each evaluation must return that many
    entries, else ValueError.

    Raises:
        IntegrationDivergedError: If the step shrinks below 16 ulp of t
            (a blow-up; a trial step whose stages overflow or whose error
            estimate is not finite is retried at a third of its length),
            if the problem turns stiff (h times the field's Lipschitz
            estimate between the last stage and the new state exceeds
            6.1 on 15 accepted steps, with no six below it in a row in
            between, and steps of that length cannot reach grid[-1]
            within the budget), or if more than :data:`MAX_STEPS` steps
            are tried; the error carries the last time with an accepted
            state.
    """
    if not grid or any(not b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid times must be given and strictly increasing")
    y = [float(v) for v in y0]
    out = [tuple(y)]
    t, t_end = grid[0], grid[-1]
    if len(grid) == 1:
        return out
    n = len(y)
    h_max = t_end - t
    k1 = rhs(t, y)
    if len(k1) != n:
        raise ValueError(f"rhs returned {len(k1)} entries, expected {n}")
    h = _initial_step(rhs, t, y, k1, h_max)
    step, dense = _dop853(n)
    nxt, rejected, steps, stiff, calm = 1, False, 0, 0, 0
    while True:
        steps += 1
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        # The last step may close a span of any width; it signals no blow-up.
        if steps > MAX_STEPS or (not last and h < 16.0 * math.ulp(t)):
            raise IntegrationDivergedError(
                f"integration stalled near t={t:.6g}: step {h:.3g} at attempt {steps}",
                last_valid_time=t)
        t_new = t_end if last else t + h
        err, s, y_new, ks = step(rhs, t, h, t_new, y, k1)
        if not err <= 1.0:
            # A rejected step shrinks by at most 3; an overflowing one, or
            # one with a non-finite estimate, by 3.
            h *= max(1 / 3, 0.9 * err ** -0.125) if err < math.inf else 1 / 3
            rejected = True
            continue
        factor = 6.0 if err == 0.0 else min(6.0, 0.9 * err ** -0.125)
        # Hairer's stiffness test: h times the field's Lipschitz estimate
        # between the last stage and the new state stays near the stability
        # boundary of explicit steps (6.1 on the real axis) only on a stiff
        # problem, whose steps the boundary rather than the error bounds.
        # The controller straddles the boundary, so only six calm steps in
        # a row clear the count. A run that such steps would still finish
        # within the step budget goes on.
        k12, k13 = ks[-2:]
        gap = math.dist(s, y_new)
        if gap > 0.0 and h * math.dist(k12, k13) > 6.1 * gap:
            stiff, calm = stiff + 1, 0
            if stiff >= 15 and (t_end - t_new) > (MAX_STEPS - steps) * h:
                raise IntegrationDivergedError(
                    f"problem became stiff near t={t_new:.6g}: steps of {h:.3g} at the "
                    f"stability limit of explicit steps cannot reach t={t_end:.6g} "
                    f"within the step budget", last_valid_time=t_new)
        else:
            calm += 1
            if calm == 6:
                stiff = 0
        if nxt < len(grid) and grid[nxt] < t_new:
            # Hairer's continuous extension of order 7 on [t, t_new]: three
            # more stages, then Horner's scheme in s and 1 - s.
            nxt = dense(rhs, t, h, t_new, y, y_new, ks, grid, nxt, out)
        if nxt < len(grid) and grid[nxt] == t_new:
            out.append(tuple(y_new))
            nxt += 1
        if last:
            return out
        t, y, k1 = t_new, y_new, k13
        h = min(h * (min(1.0, factor) if rejected else factor), h_max)
        rejected = False


# Gauss-Kronrod 7-15 rule on [-1, 1] (Piessens et al., QUADPACK, 1983):
# the nonnegative Kronrod abscissae, their weights, and the weights of the
# 7-point Gauss rule on the odd-indexed abscissae 1, 3, 5 and 7.
_KRONROD_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245, 0.0)
_KRONROD_WEIGHTS = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_WEIGHTS = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                  0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
#: Bisections after which :func:`quadrature` gives up.
QUAD_MAX_SPLITS = 1000


def kronrod_panel(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: the 15-point Kronrod estimate of the
    integral of g over [a, b] and its distance from the 7-point Gauss one."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    centre = g(mid)
    kronrod = _KRONROD_WEIGHTS[7] * centre
    gauss = _GAUSS_WEIGHTS[3] * centre
    for i in range(7):
        dx = half * _KRONROD_NODES[i]
        pair = g(mid - dx) + g(mid + dx)
        kronrod += _KRONROD_WEIGHTS[i] * pair
        if i % 2:
            gauss += _GAUSS_WEIGHTS[i // 2] * pair
    return half * kronrod, abs(half * (kronrod - gauss))


def quadrature(g: Callable[[float], float], a: float, b: float,
               tol: float = 1e-10, scale: float = 1e-12) -> float:
    """Integral of g over [a, b] by globally adaptive Gauss-Kronrod 7-15.

    The subinterval with the largest error estimate |K15 - G7| is bisected
    until the summed estimate is at most ``tol`` times the magnitude of the
    integral (QUADPACK's QAG scheme). ``scale`` floors that magnitude for
    an integrand whose terms cancel: their rounding, not the integral's
    own size, then bounds the accuracy that can be reached.

    Raises:
        AccuracyNotReachedError: If :data:`QUAD_MAX_SPLITS` bisections do
            not reach the requested accuracy; the best estimate is attached.
    """
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    value, err = kronrod_panel(g, a, b)
    pieces = [(-err, a, b, value)]
    for _ in range(QUAD_MAX_SPLITS):
        if _fsum(-p[0] for p in pieces) <= tol * max(abs(_fsum(p[3] for p in pieces)), scale):
            return math.fsum(p[3] for p in pieces)
        _, lo, hi, _ = heapq.heappop(pieces)
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            value, err = kronrod_panel(g, x0, x1)
            heapq.heappush(pieces, (-err, x0, x1, value))
    raise AccuracyNotReachedError(
        f"quadrature on [{a:.6g}, {b:.6g}] hit the subdivision limit",
        best_estimate=_fsum(p[3] for p in pieces))


def shifted_integral_step(acc: float, weighted: Callable[[float], float],
                          rise: Callable[[float], float], lo: float, hi: float,
                          scale: float = 1e-12) -> float:
    """J(hi) from J(lo) = acc for J(t) = int^t f(u) e^(k(u) - k(t)) du, k nondecreasing.

    Both functions take the offset y <= 0 of u = hi + y, which keeps its
    digits at any hi where u itself would round: ``rise(y)`` is
    k(hi + y) - k(hi) <= 0 and ``weighted(y)`` is f(u) e^rise(y). Its
    quadrature runs in y, so its nodes do too, with ``scale`` as in
    :func:`quadrature`. A window halved while the weight at its middle is
    below e^-40 drops the stretch that a long step would hide between the
    nodes.
    """
    y0 = lo - hi
    while rise(0.5 * y0) < -40.0:
        y0 *= 0.5
    return acc * math.exp(rise(lo - hi)) + quadrature(weighted, y0, 0.0, 1e-11, scale)


# Spectral integration over windows (Clenshaw & Curtis, Numer. Math. 2, 1960;
# Greengard, SIAM J. Numer. Anal. 28, 1991; Trefethen, Approximation Theory
# and Approximation Practice, 2013, ch. 3 and 19): an integrand sampled at the
# Chebyshev-Lobatto points of a window is interpolated by a Chebyshev series,
# which is integrated term by term and summed by Clenshaw's recurrence.

#: Degree of the interpolant of :func:`chebyshev_window` (one more node).
CHEB_DEGREE = 24
#: Bound of :func:`chebyshev_window` on its two trailing coefficients,
#: relative to the integrand.
WINDOW_TOL = 1e-13


@functools.cache
def _chebyshev_tables() -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Node j at fraction (1 + cos(pi j / n)) / 2 of the window, from its
    start, and the rows of the type-I cosine transform that takes the
    samples g_j to the coefficients, folded on the symmetry
    cos(pi (n - j) k / n) = (-1)^k cos(pi j k / n): row k weighs
    g_j + g_(n-j) for even k and g_j - g_(n-j) for odd k, over j <= n/2,
    and the middle sample, so added to itself, at half its weight."""
    n = CHEB_DEGREE
    cos = [math.cos(math.pi * m / n) for m in range(2 * n)]
    rows = []
    for k in range(n + 1):
        scale = (1.0 if k in (0, n) else 2.0) / n
        row = [scale * cos[j * k % (2 * n)] * (0.5 if j == 0 else 1.0) for j in range(n // 2)]
        rows.append(tuple(row + [0.0 if k % 2 else 0.5 * scale * cos[n // 2 * k % (2 * n)]]))
    return tuple(0.5 + 0.5 * cos[j] for j in range(n + 1)), tuple(rows)


class ChebyshevWindow(namedtuple("ChebyshevWindow", "length values integrals tail")):
    """Chebyshev series on the window [0, length] of offsets from its start:
    ``integrals`` of the antiderivative from 0 of the integrand's
    interpolant, and ``values`` of that interpolant, padded to the same
    length; ``tail``, its two trailing coefficients relative to the
    magnitude the tolerance was measured against."""

    __slots__ = ()

    def integral(self, x: float) -> float:
        """The antiderivative at offset x, by Clenshaw's recurrence."""
        x = 2.0 * x / self.length - 1.0
        x2 = x + x
        b1 = b2 = 0.0
        for c in self.integrals[:0:-1]:
            b1, b2 = c + x2 * b1 - b2, b1
        return self.integrals[0] + x * b1 - b2

    def integral_and_value(self, x: float) -> tuple[float, float]:
        """The antiderivative and the interpolant at offset x."""
        x = 2.0 * x / self.length - 1.0
        x2 = x + x
        b1 = b2 = c1 = c2 = 0.0
        for b, c in zip(self.integrals[:0:-1], self.values[:0:-1]):
            b1, b2 = b + x2 * b1 - b2, b1
            c1, c2 = c + x2 * c1 - c2, c1
        return self.integrals[0] + x * b1 - b2, self.values[0] + x * c1 - c2


def chebyshev_window(g: Callable[[float], float], length: float,
                     scale: float = 0.0) -> ChebyshevWindow | None:
    """Interpolant of g(x), x in [0, length], at the CHEB_DEGREE + 1
    Chebyshev-Lobatto points, or None when it does not resolve g: when its
    two trailing coefficients sum to more than WINDOW_TOL times the larger of
    max |g| at the nodes and ``scale``, or a sample is not finite. The
    caller then halves the window. ``scale`` floors the magnitude of an
    integrand whose rounding, not its size, bounds the reachable accuracy.
    """
    fractions, rows = _chebyshev_tables()
    samples = [g(length * f) for f in fractions]
    n, mul, mirrored = CHEB_DEGREE, operator.mul, samples[::-1]
    sums = list(map(operator.add, samples, mirrored))
    differences = list(map(operator.sub, samples, mirrored))
    a = [math.fsum(map(mul, row, differences if k % 2 else sums)) for k, row in enumerate(rows)]
    size = max(max(map(abs, samples)), scale)
    tail = abs(a[n - 1]) + abs(a[n])
    if not tail <= WINDOW_TOL * size < math.inf:
        return None
    # int T_0 = T_1, int T_1 = T_2 / 4 and int T_k = T_(k+1) / 2(k+1) -
    # T_(k-1) / 2(k-1): b_k = (a_(k-1) - a_(k+1)) / 2k, with a_0 counted twice.
    half = 0.5 * length
    a += [0.0, 0.0]
    b = [0.0] + [half * ((a[k - 1] if k > 1 else 2.0 * a[0]) - a[k + 1]) / (2 * k)
                 for k in range(1, n + 2)]
    b[0] = math.fsum(c if k % 2 else -c for k, c in enumerate(b))  # 0 at x = -1
    return ChebyshevWindow(length, tuple(a[:n + 2]), tuple(b), tail / size if size else 0.0)


def shifted_integrals(weighted: Callable[[float, float], float],
                      rise: Callable[[float, float], float],
                      step: Callable[[float, float, float], float], times: Sequence[float],
                      acc: float, scale: float = 0.0) -> list[float]:
    """J at each of times[1:], for J(t) = int^t f(u) e^(k(u) - k(t)) du from
    J(times[0]) = acc, with k nondecreasing.

    Grid steps are grouped into windows [T0, T1] over which k rises by at
    most 1. In a window, ``rise(T0, x)`` is k(T0 + x) - k(T0) >= 0 and
    ``weighted(T0, x)`` is f(T0 + x) e^rise(T0, x); the series of the latter
    (:func:`chebyshev_window`, with ``scale``) gives
    J(t) = e^-rise (J(T0) + its integral to t) at every grid time of the
    window. A window the series does not resolve is halved, and the next
    one may double again. A window that would hold a single step gives way
    to ``step(acc, lo, hi)``, J(hi) from J(lo) = acc by the route's own
    quadrature of that step.
    """
    out = []
    exp = math.exp
    i, last, span = 0, len(times) - 1, math.inf
    while i < last:
        lo = times[i]
        rises, m = [], i
        while m < last and times[m + 1] - lo <= span:
            r = rise(lo, times[m + 1] - lo)
            if r > 1.0:
                break
            rises.append(r)
            m += 1
        if m <= i + 1:
            acc = step(acc, lo, times[i + 1])
            out.append(acc)
            i += 1
        else:
            window = chebyshev_window(lambda x: weighted(lo, x), times[m] - lo, scale)
            if window is None:
                span = 0.5 * (times[m] - lo)
                continue
            out += [exp(-r) * (acc + window.integral(t - lo))
                    for t, r in zip(times[i + 1:m + 1], rises)]
            acc = out[-1]
            i = m
        span *= 2.0
    return out


def solve_root(g: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12) -> float:
    """Root of g on [lo, hi] by safeguarded Newton iteration.

    Newton steps use a centered finite-difference derivative; any step
    that would leave the current bracket is replaced by a bisection
    step, and so is every step from the 100th on: from far above the
    root of a steep power, Newton creeps down by about one e-fold of g
    per step. So convergence is guaranteed for continuous g. The
    returned point always lies inside the initial bracket; after 200
    iterations it is the midpoint of the bracket left.

    Raises:
        BracketInvalidError: If g(lo) and g(hi) have the same sign.
    """
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketInvalidError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: g(lo)={flo:.6g}, g(hi)={fhi:.6g}")

    x = 0.5 * (lo + hi)
    for k in range(200):
        fx = g(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (fhi > 0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        if hi - lo <= tol:
            break
        # Derivative probes stay inside the bracket, as callers often pass
        # functions that are only defined there, and within a hundredth of
        # it, so that a secant across it does not stand in for the slope.
        h = min(max(1e-7, 1e-7 * abs(x)), 0.01 * (hi - lo))
        x_hi = min(x + h, hi)
        x_lo = max(x - h, lo)
        dfdx = (g(x_hi) - g(x_lo)) / (x_hi - x_lo) if x_hi > x_lo else 0.0
        x_new = x - fx / dfdx if dfdx != 0.0 else math.nan
        if abs(x_new - x) < tol:
            # Converged from one side: step tol past the root to close the bracket.
            x_new = x + tol if x == lo else x - tol
        if not (lo < x_new < hi) or k >= 100:
            x_new = 0.5 * (lo + hi)
        x = x_new
    return 0.5 * (lo + hi)


def decay_gap(x: float, y: float, t: float) -> float:
    """(e^(-xt) - e^(-yt)) / (y - x), the divided difference of s -> e^(-st).

    Symmetric in the rates, and t e^(-xt) where they meet. Written as
    e^(-lo t) (1 - e^(-(hi - lo) t)) / (hi - lo) with expm1, it keeps full
    relative precision at any gap between the rates, so a closed form built
    on it needs no confluent branch (McCurdy, Ng & Parlett, Math. Comp. 43
    (1984)).
    """
    if x > y:
        x, y = y, x
    gap = y - x
    if gap * t == 0.0:
        return t * math.exp(-x * t)
    return -math.expm1(-gap * t) / gap * math.exp(-x * t)


def log_gap(x: float, y: float) -> float:
    """(ln x - ln y) / (x - y) for positive rates, and 1/x where they meet.

    Near the meeting point it is log1p((hi - lo)/lo) / (hi - lo), which
    does not cancel; once hi > 2 lo the difference of logarithms loses no
    digits and stays finite where (hi - lo)/lo would overflow.
    """
    if x > y:
        x, y = y, x
    if y > 2.0 * x:
        return (math.log(y) - math.log(x)) / (y - x)
    if y == x:
        return 1.0 / x
    return math.log1p((y - x) / x) / (y - x)


def _lu_decompose(a: SquareMatrix) -> tuple[list[list[float]], list[int], int]:
    """Partial-pivot LU factorization in place; returns (lu, perm, sign).

    Raises SingularMatrixError when no usable pivot exists.
    """
    n = a.n
    lu = [list(r) for r in a.entries]
    perm = list(range(n))
    sign = 1
    scale = max(max(abs(v) for v in r) for r in a.entries)
    threshold = 1e-13 * max(scale, 1.0)
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if abs(lu[pivot_row][k]) <= threshold:
            raise SingularMatrixError(f"no usable pivot in column {k}")
        if pivot_row != k:
            lu[k], lu[pivot_row] = lu[pivot_row], lu[k]
            perm[k], perm[pivot_row] = perm[pivot_row], perm[k]
            sign = -sign
        inv_pivot = 1.0 / lu[k][k]
        for i in range(k + 1, n):
            factor = lu[i][k] * inv_pivot
            lu[i][k] = factor
            for j in range(k + 1, n):
                lu[i][j] -= factor * lu[k][j]
    return lu, perm, sign


def linear_solve(a: SquareMatrix, b: Sequence[float]) -> list[float]:
    """Solve A x = b by partial-pivot Gaussian elimination.

    Raises:
        SingularMatrixError: If A is singular to working precision.
    """
    n = a.n
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    lu, perm, _ = _lu_decompose(a)
    x = [float(b[p]) for p in perm]
    for i in range(n):
        for j in range(i):
            x[i] -= lu[i][j] * x[j]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i] -= lu[i][j] * x[j]
        x[i] /= lu[i][i]
    return x


def mat_exp(m: SquareMatrix, t: float) -> SquareMatrix:
    """exp(M t) by scaling and squaring of the truncated series.

    The series route avoids the distinct-eigenvalue restriction of a
    diagonalization and is plenty accurate for the small systems used
    here (relative error well below 1e-9 for ||M t|| up to 50). Callers
    that need exp(M t) v on a grid of times compute the matrix for one
    step once and propagate with it, rather than calling this per time.
    """
    b = m.scaled(t)
    norm = b.inf_norm()
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    half = 0.5 ** squarings
    b = SquareMatrix._make((m.n, tuple(tuple([half * v for v in r]) for r in b.entries)))

    # Truncated Taylor series of exp(B) with B scaled to norm <= 1/2:
    # 25 terms leave a remainder below 0.5^25/25! of the leading term. No
    # term can overflow, so the series runs on plain rows and unchecked
    # matrices; a squaring can, so each one is checked.
    n, add = m.n, operator.add
    term = SquareMatrix.identity(n)
    rows = term.entries
    for k in range(1, 26):
        factor = 1.0 / k
        term = SquareMatrix._make((n, tuple(
            tuple([factor * v for v in r]) for r in term.matmul(b).entries)))
        rows = tuple(tuple(map(add, r, s)) for r, s in zip(rows, term.entries))
    result = SquareMatrix(n, rows)
    for _ in range(squarings):
        result = SquareMatrix(n, result.matmul(result).entries)
    return result


def mat_exp_apply(m: SquareMatrix, t: float, v: Sequence[float]) -> list[float]:
    """exp(M t) v: the matrix of :func:`mat_exp` applied to v."""
    if len(v) != m.n:
        raise ValueError("vector has wrong length")
    return mat_exp(m, t).apply(v)
