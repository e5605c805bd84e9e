"""Self-contained numerical kernel.

Provides everything the model modules need and nothing more: an adaptive
DOP853 integrator with dense output, globally adaptive Gauss-Kronrod
quadrature, a hybrid bisection/Newton root finder, the error function,
the divided differences of e^(-st) and of ln s over two rates, and small
dense linear algebra (determinant, cofactors, linear solve, one matrix
exponential, returned as a matrix or applied to a vector).

All routines are pure functions of their inputs. The integrator's error
tolerances are fixed module constants, not arguments, and its step-size
sequence depends only on the field, the initial state, the span and the
step bound, so CSV output stays reproducible bit for bit. Every model in
this library is smooth and non-stiff at the parameter scales used, which
is what an explicit embedded pair needs: Hairer's 8(5,3) pair with its
7th-order continuous extension (Prince & Dormand, J. Comput. Appl. Math.
7 (1981); Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6 and II.10).
A run that turns stiff ends with an error once Hairer's stiffness test
(Solving ODEs II, IV.2) shows the step budget cannot carry it through.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

from .errors import (
    AccuracyNotReachedError,
    BracketInvalidError,
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


class VectorField(NamedTuple):
    """A first-order ODE system du/dt = rhs(t, u) of fixed dimension."""

    dim: int
    rhs: RHS

    def __call__(self, t: float, y: State) -> Sequence[float]:
        out = self.rhs(t, y)
        if len(out) != self.dim:
            raise ValueError(f"rhs returned {len(out)} entries, expected {self.dim}")
        return out


class SquareMatrix(namedtuple("SquareMatrix", "n entries")):
    """Dense n-by-n real matrix, row-major."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[tuple[float, ...], ...]):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("entries must form an n-by-n grid")
        if not all(math.isfinite(v) for r in entries for v in r):
            raise ValueError("matrix entries must be finite")
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
        return [math.fsum(r[j] * v[j] for j in range(self.n)) for r in self.entries]

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        n = self.n
        rows = tuple(
            tuple(math.fsum(self.entries[i][k] * other.entries[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n)
        )
        return SquareMatrix(n, rows)

    def inf_norm(self) -> float:
        return max(sum(abs(v) for v in r) for r in self.entries)


def _rms(xs: Sequence[float]) -> float:
    """Root mean square; inf (never OverflowError) when the squares overflow."""
    return math.sqrt(sum(x * x for x in xs) / len(xs))


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


def sample_ivp(field: VectorField, y0: State, grid: Sequence[float],
               step: float | None = None) -> list[tuple[float, ...]]:
    """States of an IVP at the given grid times (grid[0] is the initial time).

    Adaptive DOP853 steps (Hairer's explicit Runge-Kutta 8(5,3) pair),
    no longer than ``step`` (default: the whole span), keep the local
    error within :data:`RTOL` and :data:`ATOL`. The error estimate blends
    the 5th- and 3rd-order embedded solutions, and the step changes by
    0.9 err^(-1/8), within [1/3, 6], and does not grow right after a
    rejection. Grid times inside a step come from its 7th-order dense
    output, whose three extra stages run only on steps that hold such a
    time; the last step lands exactly on grid[-1]. The field is called
    as ``field(t, y)``.

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
    f = field
    y = [float(v) for v in y0]
    out = [tuple(y)]
    t, t_end = grid[0], grid[-1]
    if len(grid) == 1:
        return out
    n = len(y)
    h_max = t_end - t if step is None else min(step, t_end - t)
    k1 = f(t, y)
    h = _initial_step(f, t, y, k1, h_max)
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
        # Stage coefficients of Hairer's dop853.f (Solving ODEs I, II.5);
        # ``s`` holds the state of the last stage evaluated.
        try:
            s = [v + h * (5.26001519587677318785587544488e-2 * a) for v, a in zip(y, k1)]
            k2 = f(t + 0.526001519587677318785587544488e-1 * h, s)
            s = [v + h * (1.97250569845378994544595329183e-2 * a
                          + 5.91751709536136983633785987549e-2 * b)
                 for v, a, b in zip(y, k1, k2)]
            k3 = f(t + 0.789002279381515978178381316732e-1 * h, s)
            s = [v + h * (2.95875854768068491816892993775e-2 * a
                          + 8.87627564304205475450678981324e-2 * c)
                 for v, a, c in zip(y, k1, k3)]
            k4 = f(t + 0.118350341907227396726757197510 * h, s)
            s = [v + h * (2.41365134159266685502369798665e-1 * a
                          - 8.84549479328286085344864962717e-1 * c
                          + 9.24834003261792003115737966543e-1 * d)
                 for v, a, c, d in zip(y, k1, k3, k4)]
            k5 = f(t + 0.281649658092772603273242802490 * h, s)
            s = [v + h * (3.7037037037037037037037037037e-2 * a
                          + 1.70828608729473871279604482173e-1 * d
                          + 1.25467687566822425016691814123e-1 * e)
                 for v, a, d, e in zip(y, k1, k4, k5)]
            k6 = f(t + 0.333333333333333333333333333333 * h, s)
            s = [v + h * (3.7109375e-2 * a + 1.70252211019544039314978060272e-1 * d
                          + 6.02165389804559606850219397283e-2 * e - 1.7578125e-2 * g)
                 for v, a, d, e, g in zip(y, k1, k4, k5, k6)]
            k7 = f(t + 0.25 * h, s)
            s = [v + h * (3.70920001185047927108779319836e-2 * a
                          + 1.70383925712239993810214054705e-1 * d
                          + 1.07262030446373284651809199168e-1 * e
                          - 1.53194377486244017527936158236e-2 * g
                          + 8.27378916381402288758473766002e-3 * p)
                 for v, a, d, e, g, p in zip(y, k1, k4, k5, k6, k7)]
            k8 = f(t + 0.307692307692307692307692307692 * h, s)
            s = [v + h * (6.24110958716075717114429577812e-1 * a
                          - 3.36089262944694129406857109825 * d
                          - 8.68219346841726006818189891453e-1 * e
                          + 2.75920996994467083049415600797e1 * g
                          + 2.01540675504778934086186788979e1 * p
                          - 4.34898841810699588477366255144e1 * q)
                 for v, a, d, e, g, p, q in zip(y, k1, k4, k5, k6, k7, k8)]
            k9 = f(t + 0.651282051282051282051282051282 * h, s)
            s = [v + h * (4.77662536438264365890433908527e-1 * a
                          - 2.48811461997166764192642586468 * d
                          - 5.90290826836842996371446475743e-1 * e
                          + 2.12300514481811942347288949897e1 * g
                          + 1.52792336328824235832596922938e1 * p
                          - 3.32882109689848629194453265587e1 * q
                          - 2.03312017085086261358222928593e-2 * r)
                 for v, a, d, e, g, p, q, r in zip(y, k1, k4, k5, k6, k7, k8, k9)]
            k10 = f(t + 0.6 * h, s)
            s = [v + h * (-9.3714243008598732571704021658e-1 * a
                          + 5.18637242884406370830023853209 * d
                          + 1.09143734899672957818500254654 * e
                          - 8.14978701074692612513997267357 * g
                          - 1.85200656599969598641566180701e1 * p
                          + 2.27394870993505042818970056734e1 * q
                          + 2.49360555267965238987089396762 * r
                          - 3.0467644718982195003823669022 * w)
                 for v, a, d, e, g, p, q, r, w in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)]
            k11 = f(t + 0.857142857142857142857142857142 * h, s)
            s = [v + h * (2.27331014751653820792359768449 * a
                          - 1.05344954667372501984066689879e1 * d
                          - 2.00087205822486249909675718444 * e
                          - 1.79589318631187989172765950534e1 * g
                          + 2.79488845294199600508499808837e1 * p
                          - 2.85899827713502369474065508674 * q
                          - 8.87285693353062954433549289258 * r
                          + 1.23605671757943030647266201528e1 * w
                          + 6.43392746015763530355970484046e-1 * x)
                 for v, a, d, e, g, p, q, r, w, x
                 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)]
            k12 = f(t_new, s)
            # Hairer's combined error estimate: the 5th-order error, damped
            # where the 3rd-order one is far larger.
            incr = [5.42937341165687622380535766363e-2 * a
                    + 4.45031289275240888144113950566 * g
                    + 1.89151789931450038304281599044 * p
                    - 5.8012039600105847814672114227 * q
                    + 3.1116436695781989440891606237e-1 * r
                    - 1.52160949662516078556178806805e-1 * w
                    + 2.01365400804030348374776537501e-1 * x
                    + 4.47106157277725905176885569043e-2 * z
                    for a, g, p, q, r, w, x, z in zip(k1, k6, k7, k8, k9, k10, k11, k12)]
            y_new = [v + h * i for v, i in zip(y, incr)]
            err5 = err3 = 0.0
            for v, u, i, a, g, p, q, r, w, x, z in zip(y, y_new, incr, k1, k6, k7, k8, k9,
                                                       k10, k11, k12):
                sk = ATOL + RTOL * max(abs(v), abs(u))
                e = (1.312004499419488073250102996e-2 * a - 1.225156446376204440720569753 * g
                     - 4.957589496572501915214079952e-1 * p
                     + 1.664377182454986536961530415 * q
                     - 3.503288487499736816886487290e-1 * r
                     + 3.341791187130174790297318841e-1 * w
                     + 8.192320648511571246570742613e-2 * x
                     - 2.235530786388629525884427845e-2 * z) / sk
                err5 += e * e
                e = (i - 0.244094488188976377952755905512 * a
                     - 0.733846688281611857341361741547 * r
                     - 0.220588235294117647058823529412e-1 * z) / sk
                err3 += e * e
            deno = err5 + 0.01 * err3
            err = 0.0 if deno == 0.0 else abs(h) * err5 / math.sqrt(n * deno)
            if not all(map(math.isfinite, y_new)):
                err = math.inf
            if err <= 1.0:
                k13 = f(t_new, y_new)
        except (OverflowError, ValueError) as exc:
            # A trial step far past the stability limit can overflow a stage
            # state; the field then overflows itself or fails on inf or nan.
            if not isinstance(exc, OverflowError) and all(map(math.isfinite, s)):
                raise
            err = math.inf
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
            k14 = f(t + 0.1 * h, [
                v + h * (5.61675022830479523392909219681e-2 * a
                         + 2.53500210216624811088794765333e-1 * p
                         - 2.46239037470802489917441475441e-1 * q
                         - 1.24191423263816360469010140626e-1 * r
                         + 1.5329179827876569731206322685e-1 * w
                         + 8.20105229563468988491666602057e-3 * x
                         + 7.56789766054569976138603589584e-3 * z - 8.298e-3 * o)
                for v, a, p, q, r, w, x, z, o in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
            k15 = f(t + 0.2 * h, [
                v + h * (3.18346481635021405060768473261e-2 * a
                         + 2.83009096723667755288322961402e-2 * g
                         + 5.35419883074385676223797384372e-2 * p
                         - 5.49237485713909884646569340306e-2 * q
                         - 1.08347328697249322858509316994e-4 * x
                         + 3.82571090835658412954920192323e-4 * z
                         - 3.40465008687404560802977114492e-4 * o
                         + 1.41312443674632500278074618366e-1 * b)
                for v, a, g, p, q, x, z, o, b in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
            k16 = f(t + 0.777777777777777777777777777778 * h, [
                v + h * (-4.28896301583791923408573538692e-1 * a
                         - 4.69762141536116384314449447206 * g
                         + 7.68342119606259904184240953878 * p
                         + 4.06898981839711007970213554331 * q
                         + 3.56727187455281109270669543021e-1 * r
                         - 1.39902416515901462129418009734e-3 * o
                         + 2.9475147891527723389556272149 * b
                         - 9.15095847217987001081870187138 * c)
                for v, a, g, p, q, r, o, b, c in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
            dense = []
            for v, u, a, g, p, q, r, w, x, z, o, b, c, d in zip(
                    y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
                diff = u - v
                bspl = h * a - diff
                dense.append((v, diff, bspl, diff - h * o - bspl, h * (
                    -8.4289382761090128651353491142 * a + 5.6671495351937776962531783590e-1 * g
                    - 3.0689499459498916912797304727 * p + 2.3846676565120698287728149680 * q
                    + 2.1170345824450282767155149946 * r - 8.7139158377797299206789907490e-1 * w
                    + 2.2404374302607882758541771650 * x + 6.3157877876946881815570249290e-1 * z
                    - 8.8990336451333310820698117400e-2 * o + 1.8148505520854727256656404962e1 * b
                    - 9.1946323924783554000451984436 * c - 4.4360363875948939664310572000 * d),
                    h * (
                    10.427508642579134603413151009 * a + 2.4228349177525818288430175319e2 * g
                    + 1.6520045171727028198505394887e2 * p - 3.7454675472269020279518312152e2 * q
                    - 22.113666853125306036270938578 * r + 7.7334326684722638389603898808 * w
                    - 30.674084731089398182061213626 * x - 9.3321305264302278729567221706 * z
                    + 15.697238121770843886131091075 * o - 31.139403219565177677282850411 * b
                    - 9.3529243588444783865713862664 * c + 35.816841486394083752465898540 * d),
                    h * (
                    19.985053242002433820987653617 * a - 3.8703730874935176555105901742e2 * g
                    - 1.8917813819516756882830838328e2 * p + 5.2780815920542364900561016686e2 * q
                    - 11.573902539959630126141871134 * r + 6.8812326946963000169666922661 * w
                    - 1.0006050966910838403183860980 * x + 7.7771377980534432092869265740e-1 * z
                    - 2.7782057523535084065932004339 * o - 60.196695231264120758267380846 * b
                    + 84.320405506677161018159903784 * c + 11.992291136182789328035130030 * d),
                    h * (
                    -25.693933462703749003312586129 * a - 1.5418974869023643374053993627e2 * g
                    - 2.3152937917604549567536039109e2 * p + 3.5763911791061412378285349910e2 * q
                    + 93.405324183624310003907691704 * r - 37.458323136451633156875139351 * w
                    + 1.0409964950896230045147246184e2 * x + 29.840293426660503123344363579 * z
                    - 43.533456590011143754432175058 * o + 96.324553959188282948394950600 * b
                    - 39.177261675615439165231486172 * c - 1.4972683625798562581422125276e2 * d)))
            while nxt < len(grid) and grid[nxt] < t_new:
                s1 = (grid[nxt] - t) / h
                s0 = 1.0 - s1
                out.append(tuple(
                    v + s1 * (e0 + s0 * (e1 + s1 * (e2 + s0 * (e3 + s1 * (e4 + s0 * (
                        e5 + s1 * e6)))))) for v, e0, e1, e2, e3, e4, e5, e6 in dense))
                nxt += 1
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
        if sum(-p[0] for p in pieces) <= tol * max(abs(sum(p[3] for p in pieces)), scale):
            return math.fsum(p[3] for p in pieces)
        _, lo, hi, _ = heapq.heappop(pieces)
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            value, err = kronrod_panel(g, x0, x1)
            heapq.heappush(pieces, (-err, x0, x1, value))
    raise AccuracyNotReachedError(
        f"quadrature on [{a:.6g}, {b:.6g}] hit the subdivision limit",
        best_estimate=sum(p[3] for p in pieces))


def shifted_integral_step(acc: float, f: Callable[[float], float],
                          rise: Callable[[float], float], lo: float, hi: float) -> float:
    """J(hi) from J(lo) = acc for J(t) = int^t f(u) e^(k(u) - k(t)) du, k nondecreasing.

    Both functions take the offset y <= 0 of u = hi + y, which keeps its
    digits at any hi where u itself would round: ``f(y)`` is the integrand at
    u and ``rise(y)`` = k(hi + y) - k(hi) <= 0. The quadrature of
    f(y) e^rise(y) runs in y, so its nodes do too. A window halved while the
    weight at its middle is below e^-40 drops the stretch that a long step
    would hide between the nodes.
    """
    y0 = lo - hi
    while rise(0.5 * y0) < -40.0:
        y0 *= 0.5
    return acc * math.exp(rise(lo - hi)) + quadrature(
        lambda y: f(y) * math.exp(rise(y)), y0, 0.0, 1e-11)


def solve_root(g: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12) -> float:
    """Root of g on [lo, hi] by safeguarded Newton iteration.

    Newton steps use a centered finite-difference derivative; any step
    that would leave the current bracket is replaced by a bisection
    step, so convergence is guaranteed for continuous g. The returned
    point always lies inside the initial bracket; after 200 iterations
    it is the midpoint of the bracket left.

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
    for _ in range(200):
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
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        x = x_new
    return 0.5 * (lo + hi)


def erf(x: float) -> float:
    """Error function (2/sqrt(pi)) * integral of exp(-u^2) from 0 to x.

    Backed by the C library implementation; odd, monotone, and
    saturates to +-1 for |x| > 6 (where 1 - |erf| < 1e-16).
    """
    if not math.isfinite(x):
        raise ValueError("erf requires finite input")
    if x > 6.0:
        return 1.0
    if x < -6.0:
        return -1.0
    return math.erf(x)


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


def det(a: SquareMatrix) -> float:
    """Determinant via the LU factorization (0.0 when singular)."""
    try:
        lu, _, sign = _lu_decompose(a)
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
    b = b.scaled(0.5 ** squarings)

    # Truncated Taylor series of exp(B) with B scaled to norm <= 1/2:
    # 25 terms leave a remainder below 0.5^25/25! of the leading term.
    n = m.n
    result = SquareMatrix.identity(n)
    term = SquareMatrix.identity(n)
    for k in range(1, 26):
        term = term.matmul(b).scaled(1.0 / k)
        result = SquareMatrix(n, tuple(
            tuple(result.entries[i][j] + term.entries[i][j] for j in range(n))
            for i in range(n)))
    for _ in range(squarings):
        result = result.matmul(result)
    return result


def mat_exp_apply(m: SquareMatrix, t: float, v: Sequence[float]) -> list[float]:
    """exp(M t) v: the matrix of :func:`mat_exp` applied to v."""
    if len(v) != m.n:
        raise ValueError("vector has wrong length")
    return mat_exp(m, t).apply(v)
