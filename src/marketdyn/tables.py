"""Reference tables recomputed from the model catalog.

Every number here is produced by the library at call time, so a
regression in any closed form shows up as a changed table. The one
hard-coded column is reference data: the published T10/T50 ratios of the
initial-share table (``LATENCY_U0_PUBLISHED``), used only to flag rows
where the recomputed ratio disagrees with them. Times render in the
year/month/day style of the source tables (1 month = 1/12 time unit,
1 day = 1/365 time unit).
"""

from __future__ import annotations

from typing import NamedTuple

from . import feedback

#: (label, kernel, u0) rows of the latency comparison, ordered by latency.
LATENCY_KERNEL_ROWS = (
    ("(1-u)/u", feedback.kernel("trend_linear_zero"), 0.0),
    ("1/u", feedback.kernel("inverse_u"), 0.0),
    ("1-u", feedback.kernel("one_minus_u"), 0.0),
    ("no feedback", feedback.kernel("none"), 0.0),
    ("sqrt(u)", feedback.kernel("sqrt"), 0.0),
    ("u", feedback.kernel("linear"), 0.01),
    ("u^2", feedback.kernel("quadratic"), 0.01),
)

LATENCY_U0_VALUES = (0.001, 0.005, 0.01, 0.02, 0.04)

#: Published T10/T50 for each entry of ``LATENCY_U0_VALUES``, two decimals.
#: Reference data for comparison only; it never replaces a computed value.
LATENCY_U0_PUBLISHED = (0.67, 0.58, 0.52, 0.44, 0.31)

#: Largest gap between a recomputed and a published ratio left without a note.
LATENCY_U0_ALLOWANCE = 0.01


def format_duration(years: float) -> str:
    """Render a time span as 'Y years M months D days', day-rounded last."""
    if years < 0:
        return "-" + format_duration(-years)
    yy = int(years)
    rem_days = (years - yy) * 365.0
    month_len = 365.0 / 12.0
    mm = int(rem_days / month_len)
    dd = round(rem_days - mm * month_len)
    if dd >= round(month_len):
        mm, dd = mm + 1, 0
    if mm >= 12:
        yy, mm = yy + 1, mm - 12
    parts = []
    if yy:
        parts.append(f"{yy} year" + ("s" if yy != 1 else ""))
    if mm:
        parts.append(f"{mm} month" + ("s" if mm != 1 else ""))
    if dd or not parts:
        parts.append(f"{dd} day" + ("s" if dd != 1 else ""))
    return " ".join(parts)


class LatencyU0Row(NamedTuple):
    u0: float
    ratio: float
    t10_formatted: str
    footnote: str | None = None


class LatencyKernelRow(NamedTuple):
    label: str
    t10_over_t50: float
    t10_formatted: str
    late_over_t50: float
    late_formatted: str
    footnote: str | None = None


def latency_u0_table(t50: float = 5.0) -> list[LatencyU0Row]:
    """T10/T50 of the linear-feedback market for several initial shares.

    A row whose recomputed ratio lies more than ``LATENCY_U0_ALLOWANCE``
    from its published value carries a footnote with both. This marks the
    u0 = 0.001 row: the table prints 0.67, while the closed form
    ln(0.1(1-u0)/(0.9 u0)) / ln((1-u0)/u0) gives 0.6819, which rounds to
    0.68 like every other row rounds its exact value.
    """
    rows = []
    for u0, published in zip(LATENCY_U0_VALUES, LATENCY_U0_PUBLISHED):
        model = feedback.FeedbackModel.calibrated(feedback.kernel("linear"), t50, u0)
        ratio = feedback.t_of_u(model, 0.1) / t50
        footnote = None
        if abs(ratio - published) > LATENCY_U0_ALLOWANCE:
            footnote = (f"u0={u0:g}: published ratio {published:.2f}; recomputed "
                        f"ratio {ratio:.2f} ({ratio:.4f}, more than "
                        f"{LATENCY_U0_ALLOWANCE:g} away)")
        rows.append(LatencyU0Row(u0=u0, ratio=ratio,
                                 t10_formatted=format_duration(ratio * t50),
                                 footnote=footnote))
    return rows


def latency_kernels_table(t50: float = 5.0) -> list[LatencyKernelRow]:
    """Latency and late-evolution comparison across the kernel family.

    The quadratic row carries a footnote: the catalog value 0.88 for
    T10/T50 at u0 = 0.01 stems from a time formula that fails the
    t(u0) = 0 check; solving the growth equation itself gives 0.90.
    Both are shown so neither can be mistaken for the other.
    """
    rows = []
    for label, kern, u0 in LATENCY_KERNEL_ROWS:
        model = feedback.FeedbackModel.calibrated(kern, t50, u0)
        metrics = feedback.latency_metrics(model)
        ratio = metrics.t10 / t50
        late = metrics.t60_minus_t50 / t50
        footnote = None
        if metrics.t10_over_t50_catalog is not None:
            footnote = (f"catalog ratio {metrics.t10_over_t50_catalog:.2f} (from a t(u) "
                        f"variant that fails t(u0)=0); recomputed ratio {ratio:.2f}")
        rows.append(LatencyKernelRow(
            label=label, t10_over_t50=ratio,
            t10_formatted=format_duration(ratio * t50),
            late_over_t50=late, late_formatted=format_duration(late * t50),
            footnote=footnote))
    return rows


def render_latency_u0(t50: float = 5.0) -> str:
    lines = [f"latency vs initial share (linear feedback, T50 = {t50:g})",
             f"{'u0':>8}  {'T10/T50':>8}  T10"]
    notes = []
    for row in latency_u0_table(t50):
        mark = " *" if row.footnote else ""
        lines.append(f"{row.u0:>8g}  {row.ratio:>8.2f}  {row.t10_formatted}{mark}")
        if row.footnote:
            notes.append(f"  * {row.footnote}")
    return "\n".join(lines + notes) + "\n"


def render_latency_kernels(t50: float = 5.0) -> str:
    lines = [f"latency vs feedback strength (T50 = {t50:g}, ordered by latency)",
             f"{'feedback':>12}  {'T10/T50':>8}  {'T10':>22}  {'T60-T50':>22}"]
    notes = []
    for row in latency_kernels_table(t50):
        mark = " *" if row.footnote else ""
        lines.append(f"{row.label:>12}  {row.t10_over_t50:>8.4f}  "
                     f"{row.t10_formatted:>22}  {row.late_formatted:>22}{mark}")
        if row.footnote:
            notes.append(f"  * {row.footnote}")
    return "\n".join(lines + notes) + "\n"
