"""Dynamic market models: adoption, feedback, churn competition, game lifecycles.

The catalog splits into four model families plus shared plumbing:

- :mod:`marketdyn.monopoly` -- single-supplier adoption without market
  feedback (constant, time-varying, segmented, hesitation, birth/death).
- :mod:`marketdyn.feedback` -- one market with a network-effect kernel
  F(u), calibrated through the half-market time T50.
- :mod:`marketdyn.competition` -- several suppliers, with and without
  churning; equilibria and dynamics.
- :mod:`marketdyn.games` -- buyer/player/quitter lifecycles for games
  and services with limited popularity, plus complementary games.
- :mod:`marketdyn.numerics` -- the self-contained numerical kernel every
  model is cross-validated against.
- :mod:`marketdyn.scenario` / :mod:`marketdyn.cli` -- JSON scenario
  documents and the deterministic CSV command line.

Importing :mod:`marketdyn.scenario` or :mod:`marketdyn.cli` registers
``feedback``, ``competition``, ``games``, ``numerics`` and ``tables`` in
``sys.modules`` without running their bodies: each body runs on the first
attribute access, so a run loads only the families and kernels it uses. That first access is
safe from several threads at once; the others wait until the body has
run.
"""

import importlib.util
import sys
import threading
import types

from .trajectory import Trajectory, time_grid

__all__ = ["Trajectory", "time_grid"]
__version__ = "0.1.0"

_LOAD_LOCK = threading.RLock()
_RUNNING: set[int] = set()   # ids of lazy modules whose body is running


class _LazyModule(types.ModuleType):
    """A registered module whose body has not run; the first attribute access runs it."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _LazyModule and id(self) not in _RUNNING:
                _RUNNING.add(id(self))   # the body's own lookups read the partial module
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    # Only now may other threads skip the lock.
                    self.__class__ = types.ModuleType
                finally:
                    _RUNNING.discard(id(self))
        return types.ModuleType.__getattribute__(self, attr)


def lazy_submodule(name: str) -> types.ModuleType:
    """``marketdyn.<name>``, put in ``sys.modules`` now; its body runs on first use."""
    fullname = f"{__name__}.{name}"
    with _LOAD_LOCK:
        module = sys.modules.get(fullname)
        if module is None:
            module = importlib.util.module_from_spec(importlib.util.find_spec(fullname))
            module.__class__ = _LazyModule
            sys.modules[fullname] = module
            setattr(sys.modules[__name__], name, module)
    return module
