"""Call spans around the public functions of a package, and their self times.

``Tracer.install`` replaces every public function of every module of a
package, in every module namespace of that package that binds it, by a
wrapper that records one span per call: (name, start, end, parent).  The
spans stay in memory until ``drain``; ``self_times`` turns a span list
into per-name totals.
"""

import functools
import importlib
import inspect
import pkgutil
import time


def _modules(package):
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


def public_functions(package):
    """{qualified name: function} for the public functions each module defines.

    Names are relative to the package, as in ``demix.ip_update``.
    """
    found = {}
    for module in _modules(package):
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Records spans; ``spans[k]`` is [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def wrap(self, name, function):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def span(self, name, function, *args, **kwargs):
        """Call ``function`` inside a span called ``name``; returns its result."""
        return self.wrap(name, function)(*args, **kwargs)

    def install(self, package):
        """Wrap the package's public functions; returns the names wrapped."""
        functions = public_functions(package)
        wrappers = {fn: self.wrap(name, fn) for name, fn in functions.items()}
        for module in [package] + _modules(package):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return sorted(functions)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def drain(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans):
    """Per-name totals {name: [total_s, self_s, calls]} of a span list.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from one thread, so children never overlap and
    the self times of a tree sum to its root's duration.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for k, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0.0, 0])
        entry[0] += end - start
        entry[1] += end - start - child[k]
        entry[2] += 1
    return totals
