"""Independent reference for the outputs of the benchmark's operations.

Every check recomputes the result from the generated document alone,
with scipy: ``solve_ivp`` at tight tolerances on the defining ODE of the
model (written here, not imported from marketdyn), ``scipy.linalg.expm``
for the linear systems solved by matrix exponential, ``quad`` for time
integrals t(u), and a null space for churn equilibria.

A value agrees when it lies within ``TOLERANCE`` of the reference,
relative to the reference channel's largest magnitude (or, for a single
number, to its own magnitude). The tolerance is far above the reference
error and above the 9 significant digits of the CSV, and far below any
modelling mistake, so any correct integrator passes, not only the
current fixed-step one.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.linalg import expm, null_space

TOLERANCE = 1e-6
REF_RTOL = 1e-12

#: Label -> (kernel kind, u0) of the rows of ``tables latency_kernels``.
KERNEL_TABLE_ROWS = {
    "(1-u)/u": ("trend_linear_zero", 0.0), "1/u": ("inverse_u", 0.0),
    "1-u": ("one_minus_u", 0.0), "no feedback": ("none", 0.0),
    "sqrt(u)": ("sqrt", 0.0), "u": ("linear", 0.01), "u^2": ("quadratic", 0.01),
}
LATENCY_U0_VALUES = (0.001, 0.005, 0.01, 0.02, 0.04)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def time_grid(horizon: float, samples: int) -> np.ndarray:
    step = horizon / (samples - 1)
    return np.array([i * step for i in range(samples - 1)] + [horizon])


def solve(rhs, y0, t_end: float, *, t_eval=None, breaks=(), events=None, scale=1.0):
    """Integrate piecewise between break points (where the RHS jumps or kinks).

    Returns (states at t_eval, final state, event times, event states).
    """
    knots = sorted({0.0, float(t_end), *(b for b in breaks if 0.0 < b < t_end)})
    y = np.asarray(y0, dtype=float)
    out = None if t_eval is None else np.empty((len(t_eval), len(y)))
    ev_t, ev_y = [], []
    for a, b in zip(knots, knots[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=REF_RTOL,
                        atol=REF_RTOL * scale, dense_output=True, events=events)
        if sol.status < 0:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        if t_eval is not None:
            mask = (t_eval >= a) & (t_eval <= b)
            out[mask] = sol.sol(t_eval[mask]).T
        if events is not None:
            ev_t.extend(sol.t_events[0])
            ev_y.extend(sol.y_events[0])
        y = sol.y[:, -1]
        if sol.status == 1:  # terminal event: the state stays put from here
            if t_eval is not None:
                out[t_eval > sol.t[-1]] = y
            break
    return out, y, ev_t, ev_y


def close(value: float, ref: float, scale: float = 0.0) -> bool:
    return abs(value - ref) <= TOLERANCE * max(abs(ref), scale, 1e-12)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().split("\n")
    labels = lines[0].split(",")
    return labels, np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def parse_pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().split("\n")[1:]:
        key, _, value = line.partition(",")
        if key != "note":
            out[key] = value
    return out


def compare_channels(labels, rows, grid, ref: dict[str, np.ndarray]) -> list[str]:
    problems = []
    if rows.shape[0] != len(grid) or not np.allclose(rows[:, 0], grid, rtol=1e-8, atol=1e-12):
        return [f"time column differs from the {len(grid)}-point grid"]
    for name, expected in ref.items():
        if name not in labels:
            problems.append(f"channel {name} missing")
            continue
        got = rows[:, labels.index(name)]
        scale = float(np.max(np.abs(expected)))
        err = float(np.max(np.abs(got - expected)))
        if not err <= TOLERANCE * max(scale, 1e-12):
            k = int(np.argmax(np.abs(got - expected)))
            problems.append(f"{name} off by {err:.3g} (scale {scale:.3g}) at t={grid[k]:.6g}")
    return problems


def compare_values(got: dict[str, str], ref: dict[str, float],
                   scales: dict[str, float] | None = None) -> list[str]:
    problems = []
    for name, expected in ref.items():
        if name not in got:
            problems.append(f"metric {name} missing")
            continue
        value = float(got[name])
        if not close(value, expected, (scales or {}).get(name, 0.0)):
            problems.append(f"{name} = {value!r}, reference {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# Model definitions
# ---------------------------------------------------------------------------

def schedule_rate(s: dict):
    kind = s["kind"]
    if kind == "constant":
        return lambda t: s["a"]
    if kind == "linear":
        return lambda t: s["a0"] + s["a1"] * t
    if kind == "exp_decay":
        return lambda t: s["a0"] * math.exp(-s["beta"] * t)
    if kind == "cutoff":
        return lambda t: s["a"] if t <= s["T"] else 0.0
    if kind == "tabulated":
        pts = s["points"]
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        return lambda t: float(np.interp(t, xs, ys))
    raise ValueError(kind)


def schedule_breaks(s: dict) -> list[float]:
    if s["kind"] == "cutoff":
        return [s["T"]]
    if s["kind"] == "tabulated":
        return [p[0] for p in s["points"]]
    return []


def kernel_F(k: dict):
    kind = k["kind"]
    table = {
        "none": lambda u: 1.0,
        "bass": lambda u: 1.0 + k.get("ratio", 0.0) * u,
        "linear": lambda u: u,
        "sqrt": lambda u: math.sqrt(max(u, 0.0)),
        "quadratic": lambda u: u * u,
        "power": lambda u: max(u, 0.0) ** k.get("n", 1.0),
        "one_minus_u": lambda u: 1.0 - u,
        "inverse_u": lambda u: 1.0 / u,
        "inverse_u_cutoff": lambda u: 1.0 / u if u < k.get("u1", 1.0) else 0.0,
        "trend_linear_zero": lambda u: (1.0 - u) / u,
    }
    return table[kind]


def feedback_growth(k: dict):
    f = kernel_F(k)
    return lambda u: (1.0 - u) * f(u)


def time_to_share(k: dict, rate: float, u0: float, u: float) -> float:
    """t(u) = (1/rate) * integral of du / ((1 - u) F(u)) from u0."""
    if u <= u0:
        return 0.0
    g = feedback_growth(k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(lambda v: 1.0 / g(v), u0, u, epsabs=0.0, epsrel=1e-13, limit=500)
    return value / rate


def feedback_rate(m: dict) -> float:
    """The growth rate that puts u(T50) at 1/2."""
    return time_to_share(m["kernel"], 1.0, m.get("u0", 0.0), 0.5) / m["T50"]


def churn_rates(churn: dict | None):
    """a_ij(t) of a churn document as a function of t (None: no churn)."""
    if churn is None:
        return None
    if churn["kind"] in ("spontaneous", "stimulated"):
        a = np.array(churn["a"], dtype=float)
        return lambda t: a
    a0 = np.array(churn["a0"], dtype=float)

    def rates(t: float) -> np.ndarray:
        a = a0.copy()
        for mod in churn.get("eps", []):
            a[mod["i"], mod["j"]] += sum(
                term["amplitude"] * math.sin(2.0 * math.pi * t / term["period"]
                                             + term.get("phase", 0.0))
                for term in mod["terms"])
        return a
    return rates


def churn_flow(churn: dict | None, rates, t: float, u: np.ndarray) -> np.ndarray:
    """Net flow into each supplier; a_ij is the intensity i -> j."""
    if churn is None:
        return np.zeros_like(u)
    a = rates(t)
    if churn["kind"] == "stimulated":
        f = np.array(churn["b"]) * u + np.array(churn["eps"])
        gain = (a * u[:, None]).sum(axis=0) * f   # sum_j a_ji u_j f_i
        loss = u * (a * f[None, :]).sum(axis=1)   # u_i sum_j a_ij f_j
        return gain - loss
    return (a * u[:, None]).sum(axis=0) - u * a.sum(axis=1)


def periodic_churn_doc(m: dict) -> dict:
    mods = [{"i": i, "j": j, "terms": m.get(key, [])}
            for key, i, j in (("eps12", 0, 1), ("eps21", 1, 0))]
    return {"kind": "periodic", "a0": [[0.0, m["a12_0"]], [m["a21_0"], 0.0]], "eps": mods}


def bpq_system(m: dict):
    """(rhs over (B, P, Q, C), initial state, demand(t, state)) of a bpq case."""
    case, n = m["case"], m.get("N", 1.0)
    if case == "case1":
        a, b, c = m["a"], m["b"], m["c"]
        inflow = lambda t, s: a          # noqa: E731
        outflow = lambda t, s: b         # noqa: E731
        drain = c
        start = (n, 0.0, 0.0)
    elif case == "case2":
        inflow = lambda t, s: m["beta"] * s[1]   # noqa: E731
        outflow = lambda t, s: m["b"]            # noqa: E731
        drain = 0.0
        q0 = m.get("Q0", 0.0)
        start = (n - m["P0"] - q0, m["P0"], q0)
    elif case == "case3":
        inflow = lambda t, s: m["a"] + m["beta"] * s[1]   # noqa: E731
        outflow = lambda t, s: m["b"]                     # noqa: E731
        drain = 0.0
        start = (n, 0.0, 0.0)
    elif case == "case5":
        inflow = lambda t, s: m["a"]                  # noqa: E731
        outflow = lambda t, s: m["gamma"] * s[2]      # noqa: E731
        drain = 0.0
        p0 = m.get("P0", 0.0)
        start = (n - p0 - m["Q0"], p0, m["Q0"])
    elif case == "case6":
        inflow = lambda t, s: m["a"]                          # noqa: E731
        outflow = lambda t, s: m["b"] + m["gamma"] * s[2]     # noqa: E731
        drain = 0.0
        start = (n, 0.0, 0.0)
    else:
        raise ValueError(case)

    def rhs(t, s):
        a, b = inflow(t, s), outflow(t, s)
        return [-(a + drain) * s[0], a * s[0] - b * s[1], b * s[1] + drain * s[0], a * s[0]]

    def demand(t, s):
        return inflow(t, s) * s[0]

    def balance(t, s):   # dP/dt
        return inflow(t, s) * s[0] - outflow(t, s) * s[1]

    return rhs, (*start, 0.0), demand, balance


# ---------------------------------------------------------------------------
# simulate: reference channels on the output grid
# ---------------------------------------------------------------------------

def reference_channels(m: dict, grid: np.ndarray) -> dict[str, np.ndarray]:
    kind, t_end = m["kind"], float(grid[-1])
    n_pop = m.get("N", 1.0)
    if kind in ("simple", "scheduled"):
        sched = {"kind": "constant", "a": m["a"]} if kind == "simple" else m["schedule"]
        rate = schedule_rate(sched)
        y, *_ = solve(lambda t, u: [rate(t) * (1.0 - u[0])], [m.get("u0", 0.0)], t_end,
                      t_eval=grid, breaks=schedule_breaks(sched))
        u = y[:, 0]
        return {"u": u, "D": np.array([rate(t) for t in grid]) * n_pop * (1.0 - u)}
    if kind == "segmented":
        segs = m["segments"]
        rates = [schedule_rate(s["schedule"]) for s in segs]
        sizes = np.array([s["n"] for s in segs])
        breaks = [b for s in segs for b in schedule_breaks(s["schedule"])]
        y, *_ = solve(lambda t, y: [r(t) * (n - yi) for r, n, yi in zip(rates, sizes, y)],
                      np.zeros(len(segs)), t_end, t_eval=grid, breaks=breaks)
        demand = [sum(r(t) * n_pop * (n - yi) for r, n, yi in zip(rates, sizes, row))
                  for t, row in zip(grid, y)]
        return {"u": y.sum(axis=1), "D": np.array(demand)}
    if kind == "hesitation":
        a, b, c = m["a"], m["b"], m["c"]
        if m.get("variant") == "returning_hesitation":
            gen = np.array([[-(a + b), c, 0.0], [b, -c, 0.0], [a, 0.0, 0.0]])
        else:
            gen = np.array([[-(a + b), 0.0, 0.0], [b, -c, 0.0], [a, c, 0.0]])
        y = np.array([expm(gen * t) @ [1.0, 0.0, 0.0] for t in grid])
        if m.get("variant") == "returning_hesitation":
            demand = n_pop * a * y[:, 0]
        else:
            demand = n_pop * (a * y[:, 0] + c * y[:, 1])
        return {"p": y[:, 0], "h": y[:, 1], "u": y[:, 2], "D": demand}
    if kind == "birth_death":
        gen = np.array([[m["d"] - m["a"] - m["f"], 0.0], [m["a"], -m["g"]]])
        y = np.array([expm(gen * t) @ [1.0, 0.0] for t in grid])
        return {"p": y[:, 0], "u": y[:, 1], "D": m["a"] * n_pop * y[:, 0]}
    if kind == "feedback":
        k, rate = m["kernel"], feedback_rate(m)
        growth = feedback_growth(k)
        events = None
        if k["kind"] == "inverse_u_cutoff":
            def reach(t, u):
                return u[0] - k["u1"]
            reach.terminal = True
            events = reach
        y, _, frozen, _ = solve(lambda t, u: [rate * growth(min(u[0], 1.0))],
                                [m.get("u0", 0.0)], t_end, t_eval=grid, events=events)
        u = y[:, 0]
        if frozen:  # the cutoff kernel parks the share at u1 from then on
            u[grid >= frozen[0]] = k["u1"]
        return {"u": u, "D": np.array([n_pop * rate * growth(v) for v in u])}
    if kind == "innovators_only":
        mm = np.array(m["m"])
        y, *_ = solve(lambda t, u: mm * (1.0 - u.sum()), np.zeros(len(mm)), t_end, t_eval=grid)
        return {f"u{i + 1}": y[:, i] for i in range(len(mm))}
    if kind == "spontaneous_churn":
        # du_i/dt = m_i (1 - sum u) + churn in - churn out, solved exactly on [u; 1].
        mm, a = np.array(m["m"]), np.array(m["a"], dtype=float)
        n = len(mm)
        gen = np.zeros((n + 1, n + 1))
        gen[:n, :n] = a.T - np.diag(a.sum(axis=1)) - np.outer(mm, np.ones(n))
        gen[:n, n] = mm
        y = np.array([(expm(gen * t) @ np.r_[np.zeros(n), 1.0])[:n] for t in grid])
        return {f"u{i + 1}": y[:, i] for i in range(n)}
    if kind in ("bass_competition", "stimulated_churn", "periodic_churn"):
        if kind == "bass_competition":
            churn, mm, rr, u0 = (m.get("churn"), np.array(m["m"]), np.array(m["r"]),
                                 np.array(m["u0"], dtype=float))
        elif kind == "stimulated_churn":
            churn = {"kind": "stimulated", "a": m["a"], "b": m["b"], "eps": m["eps"]}
            n = len(m["a"])
            mm, rr = np.zeros(n), np.ones(n)
            u0 = np.array(m["u0"], dtype=float) if "u0" in m else np.full(n, 1.0 / n)
        else:
            churn, mm, rr = periodic_churn_doc(m), np.zeros(2), np.zeros(2)
            u0 = np.array([m["u1_0"], 1.0 - m["u1_0"]])
        rates = churn_rates(churn)

        def rhs(t, u):
            return (1.0 - u.sum()) * (mm + rr * u) + churn_flow(churn, rates, t, u)

        y, *_ = solve(rhs, u0, t_end, t_eval=grid)
        return {f"u{i + 1}": y[:, i] for i in range(len(u0))}
    if kind == "bpq":
        rhs, start, demand, _ = bpq_system(m)
        y, *_ = solve(rhs, start, t_end, t_eval=grid, scale=n_pop)
        return {"B": y[:, 0], "P": y[:, 1], "Q": y[:, 2], "C": y[:, 3],
                "D": np.array([demand(t, s) for t, s in zip(grid, y)])}
    if kind == "complementary":
        return complementary_channels(m, grid)
    raise ValueError(f"no reference for model kind {kind!r}")


def complementary_channels(m: dict, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Companion game alone from its launch at -tau, then both games from 0."""
    g, b, a_c, b_c, tau = m["g"], m["b"], m["a_c"], m["b_c"], m["tau"]
    n = m.get("N", 1.0)
    nc = m.get("N_c", n)

    def companion(t, s):
        return [-a_c * s[0], a_c * s[0] - b_c * s[1]]

    start = np.array([nc, 0.0])
    if tau > 0:
        _, start, *_ = solve(companion, start, tau, scale=nc)

    def rhs(t, s):
        bb, pp, bc, pc = s
        return [-g * bb * pc, g * bb * pc - b * pp, -a_c * bc, a_c * bc - b_c * pc]

    y, *_ = solve(rhs, [n, 0.0, start[0], start[1]], float(grid[-1]), t_eval=grid,
                  scale=max(n, nc))
    bb, pp, bc, pc = y.T
    return {"B": bb, "P": pp, "Q": n - bb - pp, "B_c": bc, "P_c": pc, "Q_c": nc - bc - pc,
            "D": g * pc * bb, "C": n - bb}


# ---------------------------------------------------------------------------
# metrics / equilibrium / calibrate / tables
# ---------------------------------------------------------------------------

def first_crossing(rhs, y0, t_end: float, level_fn, scale=1.0):
    """(time, state) of the first downward zero of level_fn along the solution."""
    def event(t, y):
        return level_fn(t, y)
    event.terminal = True
    event.direction = -1
    _, final, times, states = solve(rhs, y0, t_end, events=event, scale=scale)
    if not times:
        return None, final
    return times[0], states[0]


def feedback_metrics(m: dict, got: dict[str, str]) -> list[str]:
    k, u0 = m["kernel"], m.get("u0", 0.0)
    rate = float(got["rate"])
    ref = {"rate": feedback_rate(m)}
    problems = []
    t50 = time_to_share(k, rate, u0, 0.5)
    if "T50" in m and not close(t50, m["T50"]):
        problems.append(f"t(0.5) = {t50!r} at the reported rate, target T50 {m['T50']!r}")
    ref["T50"] = t50
    ref["T10"] = time_to_share(k, rate, u0, 0.1)
    scales = {"T10": t50, "T60_minus_T50": t50, "t_inflection": t50}
    if not (k["kind"] == "inverse_u_cutoff" and k["u1"] < 0.6):
        ref["T60_minus_T50"] = time_to_share(k, rate, u0, 0.6) - t50
    growth = feedback_growth(k)
    us = np.linspace(max(u0, 1e-9), 1.0 - 1e-9, 20001)
    peak = float(us[int(np.argmax([growth(u) for u in us]))])
    interior = u0 + 1e-3 < peak < 1.0 - 1e-3
    if interior != ("u_inflection" in got):
        problems.append(f"inflection reported: {'u_inflection' in got}, expected {interior}")
    elif interior:
        u_star = float(got["u_inflection"])
        # The reported share must maximise the growth rate; the grid locates it to 1e-4.
        if abs(u_star - peak) > 1e-4:
            problems.append(f"u_inflection = {u_star!r}, growth peaks near {peak!r}")
        ref["t_inflection"] = time_to_share(k, rate, u0, u_star)
        ref["gradient_at_inflection"] = rate * growth(u_star)
    return problems + compare_values(got, ref, scales)


def bpq_metrics(m: dict, got: dict[str, str]) -> list[str]:
    rhs, start, _, balance = bpq_system(m)
    n = m.get("N", 1.0)
    t_m, state = first_crossing(rhs, start, 1e4, balance, scale=n)
    ref = {"T_m": t_m, "P_m": state[1]}
    case = m["case"]
    if case == "case1":
        ref["C_inf"] = m["a"] * n / (m["a"] + m["c"])
    elif case in ("case3", "case6"):
        ref["C_inf"] = n
    elif case == "case5":
        ref["C_inf"] = start[0]
    elif case == "case2":
        _, final, *_ = solve(rhs, start, 1e4 / m["b"], scale=n)
        ref.update(C_inf=start[0] - final[0], B_inf=final[0], B_at_peak=m["b"] / m["beta"],
                   P_at_peak=state[1])
    return compare_values(got, ref, {"T_m": 1.0, "P_m": n, "C_inf": n, "B_inf": n,
                                     "B_at_peak": n, "P_at_peak": n})


def metrics_check(doc: dict, text: str) -> list[str]:
    m, got = doc["model"], parse_pairs(text)
    kind = m["kind"]
    bad = [k for k, v in got.items() if k != "classification" and not math.isfinite(float(v))]
    if bad:
        return [f"non-finite metrics {bad}"]
    if kind == "simple":
        rhs = lambda t, u: [m["a"] * (1.0 - u[0])]   # noqa: E731
        ref = {"a": m["a"]}
        for label, level in (("T50", 0.5), ("T10", 0.1)):
            u0 = m.get("u0", 0.0)
            ref[label] = 0.0 if u0 >= level else first_crossing(
                rhs, [u0], 1e4 / m["a"], lambda t, u, lv=level: lv - u[0])[0]
        return compare_values(got, ref, {"T10": ref["T50"], "T50": 1.0 / m["a"]})
    if kind == "feedback":
        return feedback_metrics(m, got)
    if kind == "bpq":
        return bpq_metrics(m, got)
    if kind == "complementary":
        grid = time_grid(doc["horizon"], doc["samples"])
        ch = complementary_channels(m, grid)
        problems = []
        for suffix, channel in (("", "P"), ("_companion", "P_c")):
            p = ch[channel]
            scale = float(np.max(np.abs(p)))
            t_m, p_m = float(got[f"T_m{suffix}"]), float(got[f"P_m{suffix}"])
            k = int(np.argmin(np.abs(grid - t_m)))
            if not (close(p_m, float(p.max()), scale) and close(float(p[k]), p_m, scale)):
                problems.append(f"peak of {channel}: ({t_m!r}, {p_m!r}), "
                                f"reference max {float(p.max())!r}")
        return problems
    if kind == "stimulated_churn":
        n = len(m["a"])
        u = np.array([float(got[f"u{i + 1}_fixed_point"]) for i in range(n)])
        churn = {"kind": "stimulated", "a": m["a"], "b": m["b"], "eps": m["eps"]}
        flow = churn_flow(churn, churn_rates(churn), 0.0, u)
        if got.get("classification") != "shared":
            return [f"classification {got.get('classification')!r}, expected 'shared'"]
        if not (abs(u.sum() - 1.0) <= TOLERANCE and np.all(u >= -TOLERANCE)
                and np.max(np.abs(flow)) <= TOLERANCE):
            return [f"fixed point {u.tolist()} leaves net churn {np.abs(flow).max():.3g}"]
        return []
    raise ValueError(f"no metrics reference for {kind!r}")


def equilibrium_check(doc: dict, text: str) -> list[str]:
    m, got = doc["model"], parse_pairs(text)
    kind = m["kind"]
    if kind == "periodic_churn":
        mean = m["a21_0"] / (m["a12_0"] + m["a21_0"])
        return compare_values(got, {"u1_mean": mean, "u2_mean": 1.0 - mean})
    if kind == "stimulated_churn":
        n = len(m["a"])
        churn = {"kind": "stimulated", "a": m["a"], "b": m["b"], "eps": m["eps"]}
        rates = churn_rates(churn)
        slowest = min([x for row in m["a"] for x in row if x > 0] + [b for b in m["b"] if b > 0])
        _, final, *_ = solve(lambda t, u: churn_flow(churn, rates, t, u), m["u0"],
                             60.0 / slowest)
        vertex = {f"u{i + 1}": float(i == int(np.argmax(final))) for i in range(n)}
        if got.get("classification") != "winner_take_all":
            return [f"classification {got.get('classification')!r}"]
        return compare_values(got, vertex, {k: 1.0 for k in vertex})
    n = len(m["m"])
    churn = m.get("a") if kind == "spontaneous_churn" else (m.get("churn") or {}).get("a")
    if churn is not None:
        a = np.array(churn, dtype=float)
        generator = a - np.diag(a.sum(axis=1))
        pi = null_space(generator.T)[:, 0]
        pi = pi / pi.sum()
    else:
        mm, rr = np.array(m["m"]), np.array(m["r"])
        _, pi, *_ = solve(lambda t, u: (1.0 - u.sum()) * (mm + rr * u), m["u0"],
                          60.0 / mm.sum())
    return compare_values(got, {f"u{i + 1}": float(pi[i]) for i in range(n)},
                          {f"u{i + 1}": 1.0 for i in range(n)})


def calibrate_check(doc: dict, text: str) -> list[str]:
    m, targets, got = doc["model"], doc["targets"], parse_pairs(text)
    if m["kind"] == "simple":
        a = float(got["a"])
        _, final, *_ = solve(lambda t, u: [a * (1.0 - u[0])], [m.get("u0", 0.0)], targets["T50"])
        return [] if close(final[0], 0.5) else [f"u(T50) = {final[0]!r} at a = {a!r}"]
    if m["kind"] == "feedback":
        rate = float(got["rate"])
        t50 = time_to_share(m["kernel"], rate, m.get("u0", 0.0), 0.5)
        return [] if close(t50, targets["T50"]) else [f"t(0.5) = {t50!r} at rate {rate!r}"]
    if m["case"] == "case1":
        s = float(got["a_plus_c"])
        model = {"case": "case1", "a": s, "b": s / targets["ratio"], "c": 0.0}
    else:
        model = {"case": "case2", "N": m["N"], "P0": m["P0"], "Q0": m.get("Q0", 0.0),
                 "b": float(got["b"]), "beta": float(got["beta"])}
    rhs, start, _, balance = bpq_system(model)
    t_m, state = first_crossing(rhs, start, 1e4, balance, scale=model.get("N", 1.0))
    problems = [] if close(t_m, targets["T_m"]) else [f"peak at {t_m!r}, target T_m"]
    if "P_Tm" in targets and not close(state[1], targets["P_Tm"]):
        problems.append(f"peak height {state[1]!r}, target {targets['P_Tm']!r}")
    return problems


_ROW = re.compile(r"^\s*(.+?)\s{2,}(\S+)\s{2,}")


def tables_check(which: str, text: str) -> list[str]:
    rows = [_ROW.match(line) for line in text.split("\n")[2:]]
    rows = [(r.group(1), float(r.group(2))) for r in rows if r]
    t50 = 5.0
    if which == "latency_u0":
        expected = {f"{u0:g}": ("linear", u0) for u0 in LATENCY_U0_VALUES}
        digits = 2
    else:
        expected = KERNEL_TABLE_ROWS
        digits = 4
    if sorted(label for label, _ in rows) != sorted(expected):
        return [f"table rows {[label for label, _ in rows]}"]
    problems = []
    for label, printed in rows:
        kind, u0 = expected[label]
        k = {"kind": kind}
        rate = time_to_share(k, 1.0, u0, 0.5) / t50
        ratio = time_to_share(k, rate, u0, 0.1) / t50
        if abs(printed - ratio) > 0.5 * 10 ** -digits + 1e-9:
            problems.append(f"{label}: T10/T50 printed {printed}, reference {ratio:.6f}")
    return problems


def check(op, text: str) -> list[str]:
    """Problems with the output of a successful operation (empty when it agrees)."""
    if op.command == "tables":
        return tables_check(op.which, text)
    if op.command == "calibrate":
        return calibrate_check(op.doc, text)
    if op.command == "equilibrium":
        return equilibrium_check(op.doc, text)
    if op.command == "metrics":
        return metrics_check(op.doc, text)
    doc = op.doc
    grid = time_grid(doc["horizon"], doc.get("samples", 1000))
    labels, rows = parse_csv(text)
    if not np.all(np.isfinite(rows)):
        return ["non-finite values in the CSV"]
    return compare_channels(labels, rows, grid, reference_channels(doc["model"], grid))
