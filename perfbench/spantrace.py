"""Span tracer that times calls into exactspin's public functions from outside.

The tracer never edits the library.  It replaces each traced function in
every ``exactspin`` module namespace that binds it (a function imported
with ``from .rotation import little_d_row`` is bound in two namespaces,
and both call sites must see the wrapper) and puts the originals back on
``uninstall``.  A traced name that no longer exists is reported as absent,
so the benchmark keeps working when a later change deletes or moves it.

Spans are kept in memory as ``[name, start, end, parent, command, extra]``
lists and written out once, when the process ends.  ``self_times`` turns
them into per-span self time: the span's duration minus the part of it
covered by its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# module -> public functions timed in it
TARGETS = {
    "su2": ("operator_matrix",),
    "rotation": ("little_d", "little_d_row", "rotation_matrix", "rotated_basis_state",
                 "apply_rotation"),
    "model": ("model_hamiltonian", "apply_hamiltonian"),
    "spectrum": ("exact_spectrum", "ground_state", "residual_norm", "brute_diagonalize"),
    "observables": ("dicke_distribution",),
    "dynamics": ("to_eigenbasis", "rotated_observable", "evolve_observable",
                 "paper_jz_series"),
    "verify": ("run_required_checks", "run_diagnostic_sweeps", "run_observations"),
    "cli": ("main",),
}

# functions whose peak traced allocation (tracemalloc) is recorded
PEAK_TARGETS = ("spectrum.exact_spectrum", "dynamics.rotated_observable",
                "dynamics.evolve_observable", "dynamics.paper_jz_series")

# functions whose first argument's leading dimension is recorded
DIM_TARGETS = ("spectrum.brute_diagonalize",)

NAME, START, END, PARENT, COMMAND, EXTRA = range(6)


def target_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._mem_stack: list[list] = []
        self._patches: list[tuple] = []

    def install(self) -> list[str]:
        """Wrap every traced function; return the names that are absent."""
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "exactspin" or name.startswith("exactspin."))]
        for full in target_names():
            mod_name, fn_name = full.split(".")
            module = sys.modules.get(f"exactspin.{mod_name}")
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                self.absent.append(full)
                continue
            wrapper = self._wrap(full, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))
        return self.absent

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        peak = name in PEAK_TARGETS
        dim = name in DIM_TARGETS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = {}
            if dim and args:
                extra["dim"] = int(len(args[0]))
            if peak:
                self._mem_enter()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.command, extra]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                if peak:
                    extra["peak_bytes"] = self._mem_exit()

        return traced

    def _mem_enter(self) -> None:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem_stack:  # keep enclosing peaks before the reset
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current, started])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, running, started = self._mem_stack.pop()
        top = max(running, peak)
        for frame in self._mem_stack:
            frame[1] = max(frame[1], top)
        if started:
            tracemalloc.stop()
        return top - base


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def summarize(spans: list[list], keep=None) -> dict[str, dict]:
    """calls, summed self time, largest peak and largest dim per traced name.

    keep, if given, selects spans by their command id; self times are still
    computed over all spans, so a dropped parent does not change a child.
    """
    out = {name: {"calls": 0, "self_s": 0.0, "peak_bytes": 0, "dim": 0}
           for name in target_names()}
    for span, own in zip(spans, self_times(spans)):
        if keep is not None and not keep(span[COMMAND]):
            continue
        row = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "peak_bytes": 0, "dim": 0})
        row["calls"] += 1
        row["self_s"] += own
        extra = span[EXTRA] or {}
        row["peak_bytes"] = max(row["peak_bytes"], extra.get("peak_bytes", 0))
        row["dim"] = max(row["dim"], extra.get("dim", 0))
    return out
