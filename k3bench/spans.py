"""Spans and counters recorded from outside the package.

The benchmark never edits k3lat.  In a traced worker it replaces each
traced function, in every ``k3lat`` module namespace that binds it, with a
wrapper that records calls, self time and a few deterministic counters.
``from .forms import forms_isomorphic`` binds a second name in the
importing module, so patching ``forms`` alone would miss the calls made
from ``towers``, ``overlattice`` and ``cli``.

Self time is a span's duration minus the time covered by the wrapped spans
nested inside it.  Durations are in reference seconds from the worker's
``HostClock``, like the end-to-end times.
"""

from __future__ import annotations

import functools
import sys
import time

from hostclock import HostClock


def _group_order(args) -> int:
    return args[0].group_order


def _length(result) -> int:
    return len(result)


# (module, function) -> {counter: (kind, what)}.  kind "arg" adds
# what(args) on each call, "result" adds what(result) on each return, and
# "raise" counts the calls that raise the exception class named what (the
# exception still propagates).  Every counter here is deterministic for a
# given input; the benchmark checks that two traced runs of one seed give
# identical values.
TRACED = {
    ("forms", "forms_isomorphic"): {"group_order_sum": ("arg", _group_order),
                                    "budget_exceeded": ("raise", "SearchBudgetExceeded")},
    ("forms", "milgram_signature"): {"group_order_sum": ("arg", _group_order)},
    ("forms", "isotropic_subgroups"): {"subgroups": ("result", _length)},
    ("lattice", "discriminant_group"): {},
    ("intmat", "snf"): {},
    ("intmat", "hnf_row"): {},
    ("nsgeometry", "find_even_sets"): {"sets": ("result", _length)},
    ("intmat", "fp_enumerate"): {"vectors": ("result", _length)},
    ("catalog", "build_Mn"): {},
    ("catalog", "family_lattice"): {},
    ("lattice", "short_vectors"): {"vectors": ("result", _length)},
    ("lattice", "is_isometric_definite"): {},
    ("overlattice", "genus_of"): {},
    ("overlattice", "genus_equal"): {},
    ("towers", "tower"): {},
    ("towers", "mukai_twisted_check"): {},
}


class Tracer:
    """Per-function call counts, self time and counters for one worker."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {}
        # Time covered by wrapped children of each open span.
        self._child_time: list[float] = []

    def install(self) -> None:
        """Wrap every traced function in every loaded k3lat module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "k3lat" or name.startswith("k3lat."))]
        for (mod_name, fn_name), counters in TRACED.items():
            original = getattr(sys.modules[f"k3lat.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, key, fn, counters):
        stat = {"calls": 0, "self_s": 0.0}
        stat.update({c: 0 for c in counters})
        self.stats[key] = stat
        by_kind = {kind: [(c, what) for c, (k, what) in counters.items() if k == kind]
                   for kind in ("arg", "result", "raise")}
        child_time = self._child_time
        reference_s = self.clock.reference_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            for c, f in by_kind["arg"]:
                stat[c] += f(args)
            child_time.append(0.0)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for c, name in by_kind["raise"]:
                    stat[c] += type(exc).__name__ == name
                raise
            finally:
                span = reference_s(t0, time.monotonic())
                stat["self_s"] += span - child_time.pop()
                if child_time:
                    child_time[-1] += span
            for c, f in by_kind["result"]:
                stat[c] += f(result)
            return result

        return wrapper

    def counters(self) -> dict[str, int]:
        """Every deterministic count, keyed ``module.function.counter``."""
        return {f"{key}.{name}": value
                for key, stat in self.stats.items()
                for name, value in stat.items() if name != "self_s"}

    def self_times(self) -> dict[str, float]:
        return {f"{key}.self_s": stat["self_s"] for key, stat in self.stats.items()}
