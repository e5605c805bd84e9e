"""Sampled time series of model state.

Every solver in the library returns a :class:`Trajectory`: a strictly
increasing time grid, one column per channel with one entry per time
point, and a label per channel. Values are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Iterable, Sequence


class Trajectory(namedtuple("Trajectory", "times columns labels notes")):
    """Uniformly or adaptively sampled evolution of a model.

    Attributes:
        times: Strictly increasing sample times.
        columns: One tuple per channel, in label order; each has one entry per time.
        labels: Channel names, one per column.
        notes: Free-form solver annotations (e.g. fallback markers).
    """

    __slots__ = ()

    def __new__(cls, times: tuple[float, ...], columns: tuple[tuple[float, ...], ...],
                labels: tuple[str, ...], notes: tuple[str, ...] = ()):
        if not times:
            raise ValueError("trajectory must contain at least one sample")
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if len(columns) != len(labels):
            raise ValueError("every label must have one column")
        if any(map(len(times).__ne__, map(len, columns))):
            raise ValueError("every column must have one entry per time")
        return super().__new__(cls, times, columns, labels, notes)

    def channel(self, label: str) -> tuple[float, ...]:
        """Return the series for one named channel."""
        try:
            return self.columns[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no channel named {label!r}; have {self.labels}") from None


def from_channels(times: Sequence[float], channels: dict[str, Sequence[float]],
                  notes: Iterable[str] = ()) -> Trajectory:
    """Assemble a trajectory from per-channel series."""
    return Trajectory(tuple(times), tuple(map(tuple, channels.values())), tuple(channels),
                      tuple(notes))


def time_grid(t0: float, t1: float, samples: int) -> tuple[float, ...]:
    """Uniform grid of `samples` points on [t0, t1], endpoints included."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    step = (t1 - t0) / (samples - 1)
    ts = [t0 + i * step for i in range(samples - 1)]
    ts.append(t1)
    return tuple(ts)


def argmax_channel(traj: Trajectory, label: str) -> tuple[int, float, float]:
    """Index, time and value of the grid maximum of a channel."""
    series = traj.channel(label)
    k = max(range(len(series)), key=lambda i: series[i])
    return k, traj.times[k], series[k]
