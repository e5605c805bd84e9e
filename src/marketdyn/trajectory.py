"""Sampled time series of model state.

Every solver in the library returns a :class:`Trajectory`: a strictly
increasing time grid, one state tuple per time point, and a label per
channel. Values are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Trajectory:
    """Uniformly or adaptively sampled evolution of a model.

    Attributes:
        times: Strictly increasing sample times.
        states: One tuple per time point; all tuples share the channel count.
        labels: Channel names, one per state entry.
        notes: Free-form solver annotations (e.g. fallback markers).
    """

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if len(self.states) != len(self.times):
            raise ValueError("states and times must have the same length")
        if not self.times:
            raise ValueError("trajectory must contain at least one sample")
        if not all(map(operator.lt, self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        width = len(self.labels)
        if any(map(width.__ne__, map(len, self.states))):
            raise ValueError("every state must have one entry per label")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def channel(self, label: str) -> tuple[float, ...]:
        """Return the series for one named channel."""
        try:
            k = self.labels.index(label)
        except ValueError:
            raise KeyError(f"no channel named {label!r}; have {self.labels}") from None
        return tuple(row[k] for row in self.states)

    def final(self) -> tuple[float, ...]:
        return self.states[-1]


def from_channels(times: Sequence[float], channels: dict[str, Sequence[float]],
                  notes: Iterable[str] = ()) -> Trajectory:
    """Assemble a trajectory from per-channel series."""
    labels = tuple(channels)
    try:
        states = tuple(zip(*channels.values(), strict=True))
    except ValueError:
        raise ValueError("every channel must have one entry per time") from None
    return Trajectory(tuple(map(float, times)), states, labels, tuple(notes))


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

