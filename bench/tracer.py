"""Span tracer for the tvload package, installed from outside its source.

``Tracer.install()`` wraps every public function of each tvload module (the
names in its ``__all__``, or its public top-level functions where it has
none) and rebinds each wrapped name in every tvload module that holds it, so
``from .gls import fit_iterative`` in ``cli``, ``sim`` and ``bootstrap`` is
traced as well.  Work submitted to a ``ThreadPoolExecutor`` inherits the span
open on the submitting thread as its parent.  Spans stay in memory and are
written out once the command ends.

Run as a script, it traces one tvload command::

    python tracer.py SPANS.json -- estimate --input panel.csv --output-dir out
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "factors", "wavelet", "gls", "metrics", "sim", "bootstrap")

# Functions whose call arguments are recorded as a key, to count distinct calls.
_KEYED = {"wavelet.evaluate_basis": ("family", "J", "T")}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _key_value(value):
    return getattr(value, "value", value)


class Tracer:
    """Collects spans ``[name, start, end, parent, thread, extra]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Open span of this thread, else the span that submitted its work."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def open(self, name: str) -> int:
        parent = self.current()
        record = [name, time.perf_counter(), None, parent, threading.get_ident(), {}]
        with self._lock:
            self.spans.append(record)
            sid = len(self.spans) - 1
        self._stack().append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def run_as_child_of(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as the parent of its spans."""
        saved = getattr(self._local, "inherited", None)
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = saved

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        keyed = _KEYED.get(name)
        writes = fn.__name__.startswith("write_") and "path" in signature.parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                if keyed or writes:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = tracer.spans[sid][5]
                    if keyed:
                        extra["key"] = [_key_value(bound.arguments[k]) for k in keyed]
                    if writes and os.path.exists(bound.arguments["path"]):
                        extra["bytes"] = os.path.getsize(bound.arguments["path"])

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"tvload.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for fname, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tvload" or n.startswith("tvload."))]
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

        tracer = self
        submit = ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer.run_as_child_of, tracer.current(), fn, *args, **kwargs)

        self._set(ThreadPoolExecutor, "submit", traced_submit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "thread": th, **extra}
            for n, s, e, p, th, extra in self.spans
        ]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <tvload arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import tvload.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = tvload.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
