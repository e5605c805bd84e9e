"""Self-contained numerical kernel.

Provides everything the model modules need and nothing more: an adaptive
Dormand-Prince 5(4) integrator with dense output, globally adaptive
Gauss-Kronrod quadrature, a hybrid bisection/Newton root finder, the
error function, and small dense linear algebra (determinant, cofactors,
linear solve, one matrix exponential, returned as a matrix or applied
to a vector).

All routines are pure functions of their inputs. The integrator's error
tolerances are fixed module constants, not arguments, and its step-size
sequence depends only on the field, the initial state, the span and the
step bound, so CSV output stays reproducible bit for bit. Every model in
this library is smooth and non-stiff at the parameter scales used, which
is what an explicit embedded pair needs (Dormand & Prince, J. Comput.
Appl. Math. 6 (1980); Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    AccuracyNotReachedError,
    BracketInvalidError,
    IntegrationDivergedError,
    SingularMatrixError,
)

State = Sequence[float]
RHS = Callable[[float, State], Sequence[float]]

#: Relative and absolute local error tolerances of :func:`sample_ivp`.
RTOL = 1e-12
ATOL = 1e-14
#: Step attempts after which :func:`sample_ivp` gives up on a stiff problem.
MAX_STEPS = 100_000


@dataclass(frozen=True)
class VectorField:
    """A first-order ODE system du/dt = rhs(t, u) of fixed dimension."""

    dim: int
    rhs: RHS

    def __call__(self, t: float, y: State) -> Sequence[float]:
        out = self.rhs(t, y)
        if len(out) != self.dim:
            raise ValueError(f"rhs returned {len(out)} entries, expected {self.dim}")
        return out


@dataclass(frozen=True)
class SquareMatrix:
    """Dense n-by-n real matrix, row-major."""

    n: int
    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n-by-n grid")
        if not all(math.isfinite(v) for r in self.entries for v in r):
            raise ValueError("matrix entries must be finite")

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
    h_new = max(1e-6, 1e-3 * h) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h, h_new, h_max)


def sample_ivp(field: VectorField, y0: State, grid: Sequence[float],
               step: float | None = None) -> list[tuple[float, ...]]:
    """States of an IVP at the given grid times (grid[0] is the initial time).

    Adaptive Dormand-Prince 5(4) steps, no longer than ``step`` (default:
    the whole span), keep the local error within :data:`RTOL` and
    :data:`ATOL`. Grid times inside a step come from the step's dense
    output; the last step lands exactly on grid[-1].

    Raises:
        IntegrationDivergedError: If the state becomes non-finite, the
            step shrinks below 16 ulp of t (a blow-up) or more than
            :data:`MAX_STEPS` steps are tried (a stiff problem); the error
            carries the last time with an accepted state.
    """
    if not grid or any(not b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid times must be given and strictly increasing")
    f = field
    y = [float(v) for v in y0]
    out = [tuple(y)]
    t, t_end = grid[0], grid[-1]
    if len(grid) == 1:
        return out
    h_max = t_end - t if step is None else min(step, t_end - t)
    k1 = f(t, y)
    h = _initial_step(f, t, y, k1, h_max)
    nxt, rejected, steps = 1, False, 0
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
        k2 = f(t + 0.2 * h, [v + h * (0.2 * a) for v, a in zip(y, k1)])
        k3 = f(t + 0.3 * h, [v + h * (3 / 40 * a + 9 / 40 * b)
                             for v, a, b in zip(y, k1, k2)])
        k4 = f(t + 0.8 * h, [v + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c)
                             for v, a, b, c in zip(y, k1, k2, k3)])
        k5 = f(t + 8 / 9 * h, [v + h * (19372 / 6561 * a - 25360 / 2187 * b
                                        + 64448 / 6561 * c - 212 / 729 * d)
                               for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
        t_new = t_end if last else t + h
        k6 = f(t_new, [v + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                                + 49 / 176 * d - 5103 / 18656 * e)
                       for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
        y_new = [v + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                          - 2187 / 6784 * e + 11 / 84 * g)
                 for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t_new, y_new)
        err = _rms([h * (71 / 57600 * a - 71 / 16695 * c + 71 / 1920 * d
                         - 17253 / 339200 * e + 22 / 525 * g - 1 / 40 * k)
                    / (ATOL + RTOL * max(abs(v), abs(w)))
                    for v, w, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
        if not math.isfinite(err):
            raise IntegrationDivergedError(
                f"state became non-finite near t={t:.6g}", last_valid_time=t)
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if err > 1.0:
            h *= factor
            rejected = True
            continue
        if nxt < len(grid) and grid[nxt] < t_new:
            # Hairer's continuous extension of order 4 on [t, t_new].
            dense = []
            for v, w, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                diff, bspl = w - v, h * a - (w - v)
                dense.append((v, diff, bspl, diff - h * k - bspl, h * (
                    -12715105075 / 11282082432 * a + 87487479700 / 32700410799 * c
                    - 10690763975 / 1880347072 * d + 701980252875 / 199316789632 * e
                    - 1453857185 / 822651844 * g + 69997945 / 29380423 * k)))
            while nxt < len(grid) and grid[nxt] < t_new:
                s = (grid[nxt] - t) / h
                r = 1.0 - s
                out.append(tuple(v + s * (p + r * (q + s * (u + r * w)))
                                 for v, p, q, u, w in dense))
                nxt += 1
        if nxt < len(grid) and grid[nxt] == t_new:
            out.append(tuple(y_new))
            nxt += 1
        if last:
            return out
        t, y, k1 = t_new, y_new, k7
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

    ``rise(y)`` = k(hi + y) - k(hi) <= 0 for y <= 0: an offset that keeps its
    digits at any hi. The quadrature of f(hi + y) e^rise(y) runs in y, so its
    nodes do too. A window halved while the weight at its middle is below
    e^-40 drops the stretch that a long step would hide between the nodes.
    """
    y0 = lo - hi
    while rise(0.5 * y0) < -40.0:
        y0 *= 0.5
    return acc * math.exp(rise(lo - hi)) + quadrature(
        lambda y: f(hi + y) * math.exp(rise(y)), y0, 0.0, 1e-11)


def solve_root(g: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of g on [lo, hi] by safeguarded Newton iteration.

    Newton steps use a centered finite-difference derivative; any step
    that would leave the current bracket is replaced by a bisection
    step, so convergence is guaranteed for continuous g. The returned
    point always lies inside the initial bracket.

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
    for _ in range(max_iter):
        fx = g(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (fhi > 0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        if hi - lo <= tol:
            break
        # Derivative probes stay inside the bracket: callers often pass
        # functions that are only defined there.
        h = max(1e-7, 1e-7 * abs(x))
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
