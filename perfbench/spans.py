"""Span tracing of repro's layers, installed from outside the program.

A :class:`Tracer` wraps the public functions and methods of each layer
(``repro.nn`` kernels, ``repro.core`` trainers, ``repro.data`` loaders,
the ``repro.api`` pipeline / session / cache / digests, ``repro.metrics``,
``repro.hardware`` and ``repro.deploy``) with wrappers that record one
span per call: name, start, end, parent span and the id of the request or
submission the benchmark was serving.  Spans stay in memory until the run
ends.  :meth:`Tracer.uninstall` restores every original, so an untraced
phase in the same process runs the unmodified program.

The wrappers live here, not in ``repro``: the program is measured as
shipped.  The process is single-threaded under every workload, so one
span stack suffices.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: One recorded call: (name, start, end, parent index or -1, request id).
Span = tuple


class Tracer:
    """Records spans around the calls into each layer while installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.request: Any = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- wrapping ---------------------------------------------------------- #
    def _wrap(self, fn: Callable, name: str,
              outcome: Optional[Callable[[Any], str]] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            label = name
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    label = outcome(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.request)

        return traced

    def _wrap_iterator(self, fn: Callable, name: str) -> Callable:
        """Time each ``next()`` of the iterator ``fn`` returns."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.request)
                yield item

        return traced

    def patch_method(self, cls: type, attr: str, name: str, *,
                     outcome: Optional[Callable[[Any], str]] = None,
                     iterator: bool = False) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method)."""
        raw = inspect.getattr_static(cls, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapped = (self._wrap_iterator(fn, name) if iterator
                   else self._wrap(fn, name, outcome))
        had_own = attr in cls.__dict__
        setattr(cls, attr, kind(wrapped) if kind is not None else wrapped)
        self._patches.append((cls, attr, raw if had_own else None))

    def patch_function(self, fn: Callable, name: str) -> None:
        """Wrap ``fn`` under every ``repro`` module name that refers to it."""
        wrapped = self._wrap(fn, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))

    def patch_name(self, module, attr: str, name: str) -> None:
        """Wrap one module-level name only (calls made through that module)."""
        fn = getattr(module, attr)
        setattr(module, attr, self._wrap(fn, name))
        self._patches.append((module, attr, fn))

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        from repro.api import adapters, cache, digests, pipeline, session
        from repro.core import deploy as core_deploy
        from repro.core.trainer import ALFTrainer, ClassifierTrainer
        from repro.data.loader import DataLoader
        from repro.deploy import plan as deploy_plan
        from repro.hardware import report as hardware_report
        from repro.metrics import ops as metrics_ops
        from repro.nn.backend import NumpyBackend
        from repro.nn.tensor import Tensor

        for kernel in ("im2col", "col2im", "einsum", "matmul",
                       "im2col_out", "einsum_out", "matmul_out"):
            self.patch_method(NumpyBackend, kernel, f"nn.{kernel}")
        self.patch_method(Tensor, "backward", "nn.backward")
        for trainer in (ALFTrainer, ClassifierTrainer):
            self.patch_method(trainer, "train_batch", "core.train_batch")
            self.patch_method(trainer, "evaluate", "core.evaluate")
        self.patch_function(core_deploy.compress_model, "core.compress_model")
        self.patch_method(DataLoader, "__iter__", "data.batches", iterator=True)

        for value in list(vars(adapters).values()):
            if (isinstance(value, type)
                    and issubclass(value, adapters.CompressionAdapter)):
                for stage in ("fit", "finalize"):
                    if stage in value.__dict__:
                        self.patch_method(value, stage, f"pipeline.{stage}")
        self.patch_name(pipeline, "evaluate_accuracy", "pipeline.eval")
        self.patch_function(metrics_ops.profile_model, "metrics.profile_model")
        self.patch_function(hardware_report.evaluate_layers,
                            "hardware.evaluate_layers")

        self.patch_method(session.SweepSession, "submit", "session.submit")
        self.patch_function(session.execute_shard, "session.shard")
        self.patch_method(cache.FileReportCache, "get", "cache.get",
                          outcome=lambda report: ("cache.get_miss"
                                                  if report is None
                                                  else "cache.get_hit"))
        for method in ("put", "get_plan", "put_plan"):
            self.patch_method(cache.FileReportCache, method, f"cache.{method}")
        self.patch_function(digests.payload_digest, "digests.payload_digest")
        self.patch_function(digests.canonical_json, "digests.canonical_json")

        self.patch_function(deploy_plan.compile, "deploy.compile")
        self.patch_method(deploy_plan.InferencePlan, "to_dict", "deploy.to_dict")
        self.patch_method(deploy_plan.InferencePlan, "from_dict",
                          "deploy.from_dict")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped name (latest patch first)."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)  # the wrapper shadowed an inherited one
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------- #
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, inclusive durations and total self time.

        A span's self time is its duration minus the durations of its
        direct children; the process is single-threaded, so children nest
        inside their parent and never overlap each other.
        """
        done = [span for span in self.spans if span is not None]
        child_time = [0.0] * len(self.spans)
        for span in done:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            duration = span[2] - span[1]
            entry = out.setdefault(span[0], {"calls": 0, "durations": [],
                                             "self": [], "self_s": 0.0})
            entry["calls"] += 1
            entry["durations"].append(duration)
            entry["self"].append(duration - child_time[index])
            entry["self_s"] += duration - child_time[index]
        return out

    def write(self, path: str, origin: float) -> int:
        """Write every span as one gzip'd JSON line; returns the count."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                stream.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent,
                    "request": request}) + "\n")
                count += 1
        return count
