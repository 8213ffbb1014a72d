"""In-memory span tracer that wraps tqd's public functions from outside.

A wrapped call records one span: id, parent id, name, the module whose
attribute the caller looked up (its site), thread, start, end, and an
optional annotation taken from its arguments or result. Spans are kept in a list and written out only when
the run ends.

Wrapping replaces module attributes, because that is what callers look
up: `tqd.trainer.adam_update` is what `train` calls, `tqd.analysis.
grad_at_timestep` is what `gradient_probe` calls. A function defined in
one module and imported into another is wrapped at each site, so every
call passes through exactly one wrapper. Public methods of classes
defined in the traced modules (e.g. `TqdSampler.prepare_batch`) are
wrapped on the class.

Nothing here names a function the program must have: the tracer wraps
whatever public functions it finds, and a layer metric whose function is
gone is reported as absent rather than stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

MODULES = ("cli", "quality", "sampler", "synth", "trainer", "analysis")


class Tracer:
    """Records a span per wrapped call; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # tuples, see SPAN_FIELDS
        self.installed = set()  # span names that were wrapped
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._restore = []
        self._annotators = {}

    SPAN_FIELDS = ("id", "parent", "name", "site", "thread", "start", "end", "info")

    def annotate(self, name: str, fn) -> None:
        """fn(args, kwargs, result) -> info stored on each span of `name`."""
        self._annotators[name] = fn

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, site: str):
        annotator = self._annotators.get(name)
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                # a pool worker's outermost call belongs to the main
                # thread's open span (e.g. gradient_probe)
                parent = self._main_stack[-1]
            else:
                parent = 0
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = None
                if annotator is not None:
                    try:
                        info = annotator(args, kwargs, result)
                    except Exception:  # a changed signature loses only the annotation
                        info = None
                spans.append((sid, parent, name, site, threading.get_ident(),
                              start, end, info))

        return wrapper

    def install(self) -> None:
        """Wrap every public function and class method of the traced modules."""
        for site in MODULES:
            try:
                mod = importlib.import_module(f"tqd.{site}")
            except ModuleNotFoundError:  # a module a later change removed
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                owner = getattr(value, "__module__", "") or ""
                if not owner.startswith("tqd."):
                    continue
                short = owner.rsplit(".", 1)[-1]
                if inspect.isfunction(value):
                    name = f"{short}.{value.__name__}"
                    self._replace(mod, attr, value, name, site)
                elif inspect.isclass(value) and owner == mod.__name__:
                    for meth, fn in list(vars(value).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{short}.{value.__name__}.{meth}"
                        self._replace(value, meth, fn, name, site)

    def _replace(self, owner, attr, original, name: str, site: str) -> None:
        setattr(owner, attr, self._wrap(original, name, site))
        self._restore.append((owner, attr, original))
        self.installed.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

