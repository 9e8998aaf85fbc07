"""In-memory spans recorded from outside the package.

The benchmark wraps the package's public functions by rebinding module
attributes for the duration of a traced op; nothing under src/ is edited.
A span is (name, start, end, parent, op id); self time is a span's duration
minus the durations of its direct children, so the self times of all spans
of one op add up to the op's root span.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from pentaset import cli, io_render, modelset, verify


def _points(_args, _kwargs, snap):
    return {"points": len(snap.points)}


def _analyzed(_args, _kwargs, snap):
    return {"points": len(snap.points),
            "inner_points": sum(p.min_dist_sq is not None for p in snap.points)}


def _report(_args, _kwargs, report):
    attrs = {"tested": report.tested_count}
    if "close_pairs" in report.details:
        attrs["close_pairs"] = report.details["close_pairs"]
    return attrs


def _written(args, kwargs, _result):
    dest = kwargs.get("destination", args[2] if len(args) > 2 else None)
    return {"bytes_out": dest.tell()} if hasattr(dest, "tell") else {}


def _rendered(_args, _kwargs, svg):
    return {"bytes_out": len(svg)}


def _check_span(args, kwargs):
    return "verify." + (args[0] if args else kwargs["name"])


# (module, attribute, span name or function of the call's arguments, attrs).
# Each binding a caller goes through is rebound separately: cli and verify
# import the functions by name.
TRACED_CALLS = (
    (cli, "run_cli", "cli.run_cli", None),
    (cli, "enumerate_points", "modelset.enumerate_points", _points),
    (cli, "analyze", "modelset.analyze", _analyzed),
    (cli, "write_snapshot", "io_render.write_snapshot", _written),
    (cli, "render_svg", "io_render.render_svg", _rendered),
    (verify, "enumerate_points", "modelset.enumerate_points", _points),
    (verify, "analyze", "modelset.analyze", _analyzed),
    (verify, "run_check", _check_span, _report),
    (modelset, "enumerate_points", "modelset.enumerate_points", _points),
    (modelset, "analyze", "modelset.analyze", _analyzed),
    (io_render, "read_snapshot", "io_render.read_snapshot", _points),
    (io_render, "write_snapshot", "io_render.write_snapshot", _written),
    (io_render, "render_svg", "io_render.render_svg", _rendered),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id = None
        self._bindings = []
        for module, attr, name, attrs in TRACED_CALLS:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._bindings.append((module, attr, fn, self._wrap(fn, name, attrs)))

    def _open(self, name: str) -> dict:
        span = {"name": name, "op": self._op_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter(), "end": None, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def op(self, op_id):
        """Root span "op" for one op, with every traced binding installed."""
        for module, attr, _fn, traced in self._bindings:
            setattr(module, attr, traced)
        self._op_id = op_id
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op_id = None
            for module, attr, fn, _traced in self._bindings:
                setattr(module, attr, fn)

    def self_times(self) -> list[tuple[dict, float]]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - c) for s, c in zip(self.spans, child_time)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps(dict(s, id=i), sort_keys=True) + "\n")
