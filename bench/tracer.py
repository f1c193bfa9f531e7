"""Spans around becnlo's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (id, parent, name, start, end) and rebinds the
names other modules imported, so `cli.derive_scales` and
`validity.tf_density` are traced too.  Spans stay in memory until `dump`.
The module imports nothing from becnlo at import time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("params", "host_tf", "stored_mode", "lifetime", "validity", "grids", "gpe", "cli")


class Tracer:
    """Spans of the operations numbered below `keep_ops` (all if None).

    Later operations are timed the same way, so the overhead does not
    change, but their spans are dropped to bound memory.
    """

    def __init__(self, keep_ops=None):
        self.spans = []  # [id, parent, op, name, start, end, iterations]
        self.op = 0  # operation the next spans belong to
        self.keep_ops = keep_ops
        self._stack = []
        self._next_id = 0

    def _open(self, name):
        span = [self._next_id, self._stack[-1][0] if self._stack else None, self.op, name,
                time.perf_counter(), None, None]
        self._next_id += 1
        if self.keep_ops is None or self.op < self.keep_ops:
            self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                span[6] = iterations
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer module of becnlo."""
        package = importlib.import_module("becnlo")
        modules = [importlib.import_module(f"becnlo.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "iterations")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def add_self_times(spans):
    """Set each span's `self`: its duration minus the time its children cover."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (span["end"] - span["start"])
    for span in spans:
        span["self"] = (span["end"] - span["start"]) - child_time.get(span["id"], 0.0)
    return spans


def parse_importtime(stderr: str) -> dict:
    """Import cost from `python -X importtime` output, in seconds.

    Children are printed before their parent, indented two spaces deeper.
    `scipy_s` sums the cumulative time of the outermost scipy imports (a
    scipy module not pulled in by another scipy module); `becnlo_self_s`
    sums the self time of becnlo's own modules.
    """
    entries = []  # (name, level, self_us, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        label = fields[2][1:]
        name = label.lstrip(" ")
        entries.append((name, (len(label) - len(name)) // 2, int(fields[0]), int(fields[1])))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    scipy_us = 0
    becnlo_self_us = 0
    for i, (name, level, self_us, cumulative_us) in enumerate(entries):
        if name == "becnlo" or name.startswith("becnlo."):
            becnlo_self_us += self_us
        if not is_scipy(name):
            continue
        outermost = True
        wanted = level - 1
        for later_name, later_level, _, _ in entries[i + 1:]:
            if wanted < 1:  # top-level imports sit at level 1
                break
            if later_level == wanted:
                if is_scipy(later_name):
                    outermost = False
                    break
                wanted -= 1
        if outermost:
            scipy_us += cumulative_us
    return {"scipy_s": scipy_us * 1e-6, "becnlo_self_s": becnlo_self_us * 1e-6}
