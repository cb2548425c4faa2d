"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public entry points of each layer of ``repro`` from the
outside (module functions and class methods), records one span per call
-- name, start, end, parent -- in memory, and restores every original
when it is uninstalled.  Nothing inside ``repro`` is changed and the
program's own telemetry is left alone: installing ``repro.obs`` telemetry
as the process global would make ``run_routing_flow`` add a hold
analysis, so a traced run would time a different program.

An entry point that does not exist (a later change deleted it) is
recorded as absent; the metrics that depend on it read 0 and the run
goes on.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

# (layer, module, attribute path).  The layer name is the span name.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("netlist", "repro.netlist.benchmarks", "build_benchmark"),
    ("placement", "repro.placement.placer", "place"),
    ("steiner.build_forest", "repro.steiner.forest", "build_forest"),
    ("flow", "repro.flow.pipeline", "run_routing_flow"),
    ("groute", "repro.groute.router", "GlobalRouter.route"),
    ("droute", "repro.droute.detailed", "DetailedRouter.route"),
    ("sta", "repro.sta.engine", "STAEngine.run"),
    ("sta", "repro.sta.incremental", "IncrementalSTA.run"),
    ("mcmm.run", "repro.mcmm.sta", "ScenarioSTA.run"),
    ("mcmm.probe_batch", "repro.mcmm.sta", "ScenarioSTA.probe_batch"),
    ("timing_model.gradient", "repro.timing_model.compiled", "CompiledObjective.gradient"),
    ("timing_model.evaluate", "repro.timing_model.compiled", "CompiledObjective.evaluate"),
    ("timing_model.train", "repro.timing_model.train", "train_evaluator"),
    ("core.refine", "repro.core.refine", "refine"),
    ("eco", "repro.eco.driver", "run_eco"),
    # Wraps the handlers it returns (serve.handler.<kind> spans).
    ("serve.handlers", "repro.serve.handlers", "default_handlers"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    window: int = -1  # index of the measured window the span ran in
    child_s: float = 0.0  # summed duration of direct children
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _info_probe_batch(args, kwargs, result) -> Dict[str, float]:
    rows = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    return {"rows": float(len(rows))}


def _info_train(args, kwargs, result) -> Dict[str, float]:
    return {"epochs": float(len(result.losses))}


def _info_refine(args, kwargs, result) -> Dict[str, float]:
    return {
        "validations": float(result.validations),
        "validated_reverts": float(result.validated_reverts),
        "accepted": float(result.accepted),
    }


def _info_eco(args, kwargs, result) -> Dict[str, float]:
    return {
        "trials": float(result.trials),
        "reverted": float(result.reverted),
        "accepted": float(result.num_accepted),
        "rebuilds": float(result.rebuilds),
    }


_INFO: Dict[str, Callable[..., Dict[str, float]]] = {
    "mcmm.probe_batch": _info_probe_batch,
    "timing_model.train": _info_train,
    "core.refine": _info_refine,
    "eco": _info_eco,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    SETUP = -2  # window of the traced set-up

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[Tuple[str, str]] = []  # (entry point, layer)
        self.window = -1  # -1: outside any measured window
        self.windows: Dict[int, Tuple[float, float]] = {}
        self.queue_waits: List[Tuple[int, float]] = []  # (window, seconds)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def open(self, window: int) -> None:
        """Attribute the spans that follow to ``window``."""
        self.window = window
        self.windows[window] = (time.perf_counter(), math.nan)

    def close(self) -> None:
        self.windows[self.window] = (self.windows[self.window][0], time.perf_counter())
        self.window = -1

    def window_s(self, window: int) -> float:
        start, end = self.windows[window]
        return end - start

    def call(self, name: str, fn: Callable, args, kwargs, info=None) -> Any:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent, window=self.window)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.dur
        if info is not None:
            span.info.update(info(args, kwargs, result))
        return result

    def wrap(self, name: str, fn: Callable, info=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    # -- install / uninstall --------------------------------------------
    def install(self) -> "Tracer":
        for layer, module_name, path in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append((f"{module_name}.{path}", layer))
                continue
            if layer == "serve.handlers":
                wrapped = self._wrap_default_handlers(original)
            else:
                wrapped = self.wrap(layer, original, _INFO.get(layer))
            if owner_name:
                self._patch(owner, attr, wrapped)
            else:
                # A module function is also bound by name in every module
                # that imported it with ``from ... import``: patch each.
                for mod in list(sys.modules.values()):
                    namespace = getattr(mod, "__dict__", None) or {}
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        return self

    def _wrap_default_handlers(self, original: Callable) -> Callable:
        """Wrap every handler the service gets from ``default_handlers``.

        Each handler call becomes a ``serve.handler.<kind>`` span, and
        the wait of each job it answers (submit to handler start, on the
        service's monotonic clock) is recorded as a queue wait.
        """

        @functools.wraps(original)
        def traced_default_handlers(*args, **kwargs):
            handlers = original(*args, **kwargs)
            return {kind: self._wrap_handler(kind, h) for kind, h in handlers.items()}

        return traced_default_handlers

    def _wrap_handler(self, kind: str, handler: Callable) -> Callable:
        name = f"serve.handler.{kind}"

        @functools.wraps(handler)
        def traced(job, ctx):
            now = time.monotonic()
            for member in job.members or [job]:
                self.queue_waits.append((self.window, now - member.submitted_t))
            return self.call(name, handler, (job, ctx), {})

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived quantities ----------------------------------------------
    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span


@dataclass
class LayerTotals:
    """Calls, self time and summed ``info`` counters per span name."""

    calls: Dict[str, int] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, float] = field(default_factory=dict)
    roots_s: float = 0.0

    def add(self, spans: List[Span]) -> "LayerTotals":
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + s.self_s
            for key, value in s.info.items():
                k = f"{s.name}.{key}"
                self.info[k] = self.info.get(k, 0.0) + value
            if s.parent is None:
                self.roots_s += s.dur
        return self

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, 0)

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def info_sum(self, key: str) -> float:
        return self.info.get(key, 0.0)
