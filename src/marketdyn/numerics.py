"""Self-contained numerical kernel.

Provides everything the model modules need and nothing more: a fixed-step
classical Runge-Kutta integrator, adaptive Simpson quadrature, a hybrid
bisection/Newton root finder, the error function, and small dense linear
algebra (determinant, cofactors, linear solve, one matrix exponential,
returned as a matrix or applied to a vector).

All routines are pure functions of their inputs. Fixed-step integration
was chosen over adaptive stepping deliberately: every model in this
library is smooth and non-stiff at the parameter scales used, and a
fixed grid keeps CSV output reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    AccuracyNotReachedError,
    BracketInvalidError,
    IntegrationDivergedError,
    SingularMatrixError,
)
from .trajectory import Trajectory

State = Sequence[float]
RHS = Callable[[float, State], Sequence[float]]

#: Default number of integration steps per requested time span.
DEFAULT_STEPS = 10_000


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


def _rk4_step(f: RHS, t: float, y: list[float], h: float) -> list[float]:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, [yi + 0.5 * h * ki for yi, ki in zip(y, k1)])
    k3 = f(t + 0.5 * h, [yi + 0.5 * h * ki for yi, ki in zip(y, k2)])
    k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    return [yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def integrate_ivp(field: VectorField, y0: State, t0: float, t1: float,
                  step: float, labels: Sequence[str] | None = None) -> Trajectory:
    """Integrate an initial-value problem with the classical 4th-order scheme.

    Samples at t0, t0+step, ... with the final point clamped to t1.

    Args:
        field: The system to integrate.
        y0: Initial state, length ``field.dim``.
        t0: Start time.
        t1: End time, must exceed t0.
        step: Positive step size; the last step is shortened to land on t1.
        labels: Optional channel names (defaults to y0, y1, ...).

    Raises:
        IntegrationDivergedError: If the state becomes non-finite; the
            error carries the last time with a valid state.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if not step > 0:
        raise ValueError("step must be positive")
    if len(y0) != field.dim:
        raise ValueError("initial state has wrong dimension")

    f = field
    y = [float(v) for v in y0]
    t = float(t0)
    times = [t]
    states = [tuple(y)]
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(step, t1 - t)
        y = _rk4_step(f, t, y, h)
        t = t1 if t + h >= t1 - 1e-14 * max(1.0, abs(t1)) else t + h
        if not all(math.isfinite(v) for v in y):
            raise IntegrationDivergedError(
                f"state became non-finite near t={t:.6g}", last_valid_time=times[-1])
        times.append(t)
        states.append(tuple(y))
    names = tuple(labels) if labels is not None else tuple(f"y{i}" for i in range(field.dim))
    return Trajectory(tuple(times), tuple(states), names)


def sample_ivp(field: VectorField, y0: State, grid: Sequence[float],
               step: float | None = None) -> list[tuple[float, ...]]:
    """States of an IVP at the given grid times (grid[0] is the initial time).

    Each grid interval is subdivided into equal RK4 steps no longer than
    `step` (default: total span / :data:`DEFAULT_STEPS`).
    """
    if len(grid) < 1:
        raise ValueError("grid must contain at least one time")
    span = grid[-1] - grid[0]
    if step is None:
        step = span / DEFAULT_STEPS if span > 0 else 1.0
    y = [float(v) for v in y0]
    out = [tuple(y)]
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("grid times must be strictly increasing")
        nsub = max(1, math.ceil((b - a) / step - 1e-12))
        h = (b - a) / nsub
        t = a
        for _ in range(nsub):
            y = _rk4_step(field, t, y, h)
            t += h
        if not all(math.isfinite(v) for v in y):
            raise IntegrationDivergedError(
                f"state became non-finite near t={b:.6g}", last_valid_time=a)
        out.append(tuple(y))
    return out


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def quadrature(g: Callable[[float], float], a: float, b: float,
               tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson integral of g over [a, b].

    The subdivision stops once the local Richardson error estimate drops
    below the share of ``tol`` (relative to the magnitude of the whole
    integral) allotted to the subinterval.

    Raises:
        AccuracyNotReachedError: If the depth limit is hit before the
            requested accuracy; the best estimate is attached.
    """
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0

    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = _simpson(fa, fm, fb, b - a)
    # Relative tolerance is anchored to the first whole-interval estimate;
    # the tiny floor keeps zero-mean integrands from demanding the impossible.
    scale = max(abs(whole), 1e-12)
    failed = [False]

    def recurse(x0: float, x2: float, f0: float, f1: float, f2: float,
                s: float, eps: float, depth: int) -> float:
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = g(lm), g(rm)
        s_left = _simpson(f0, flm, f1, x1 - x0)
        s_right = _simpson(f1, frm, f2, x2 - x1)
        err = (s_left + s_right - s) / 15.0
        if abs(err) <= eps:
            return s_left + s_right + err
        if depth >= max_depth:
            failed[0] = True
            return s_left + s_right + err
        return (recurse(x0, x1, f0, flm, f1, s_left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, s_right, eps / 2.0, depth + 1))

    result = recurse(a, b, fa, fm, fb, whole, tol * scale, 0)
    if failed[0]:
        raise AccuracyNotReachedError(
            f"quadrature on [{a:.6g}, {b:.6g}] hit the subdivision limit",
            best_estimate=result)
    return result


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
