"""Spans around the calls into each contextprob module, recorded from outside.

``Tracer.install`` rebinds the public functions listed in ``TARGETS`` in
every loaded ``contextprob`` module namespace (where the package's own
modules look them up) to timing wrappers, and ``uninstall`` puts the
originals back.  Spans are kept in memory as (name, start, end, parent),
with a note on the result of some calls (``NOTES``), and summarised when
the run ends.  Nothing in the package's files changes.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# module -> public functions whose calls become spans named "<module>.<function>"
TARGETS = {
    "model_io": ("load_model", "ingest_contingency_table"),
    "prespace": (
        "variable_distribution",
        "filter_context",
        "conditional_distribution",
        "pushforward",
    ),
    "dynamics": (
        "apply_kernel",
        "transition_probabilities",
        "contextual_statistics",
        "measurement_distribution",
        "sample_frequencies",
    ),
    "interference": ("analyze_interference",),
    "amplitudes": ("trigonometric_amplitude", "hyperbolic_amplitude", "born_residual"),
    "reporting": ("analyze_statistics", "analyze_model", "emit_report"),
    "cli": ("main",),
}

# span name -> what to note about each call's result, kept next to the spans
NOTES = {
    "reporting.emit_report": len,  # bytes of the report
    "dynamics.sample_frequencies": lambda table: table.total,  # draws
}


class _JsonProxy:
    """Stands in for ``json`` inside ``model_io`` so the parse stage is a span."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.notes: dict[str, list] = {name: [] for name in NOTES}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        note, noted = NOTES.get(name), self.notes.get(name)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    noted.append(note(result))
                return result
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "contextprob" or name.startswith("contextprob."))
        }
        wrappers = {}
        for short, functions in TARGETS.items():
            module = modules[f"contextprob.{short}"]
            for function in functions:
                original = getattr(module, function)
                wrappers[id(original)] = self.wrap(f"{short}.{function}", original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._rebind(module, attr, wrappers[id(value)])
        model_io = modules["contextprob.model_io"]
        experiment = model_io.ExperimentModel
        self._rebind(
            experiment,
            "effective_kernel",
            self.wrap("model_io.effective_kernel", experiment.effective_kernel),
        )
        if getattr(model_io, "json", None) is json:
            self._rebind(model_io, "json", _JsonProxy(self.wrap("model_io.json_loads", json.loads)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def durations(self, *names: str) -> list[float]:
        """Durations in seconds of every finished span with one of the names."""
        wanted = set(names)
        return [
            end - start
            for name, start, end in zip(self.names, self.starts, self.ends)
            if name in wanted and end > 0.0
        ]
