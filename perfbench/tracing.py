"""Per-layer spans around the public functions of the maslov modules.

A traced function is patched in every module namespace that binds it:
``paths``, ``leray``, ``signature`` and ``cli`` import names with
``from .x import y``, so patching only the defining module would miss those
calls.  Class constructors are traced by wrapping ``__init__`` (which runs
the dataclass ``__post_init__`` validation).  Spans stay in memory as
``(span_id, parent_id, op_id, name, t0, t1)`` and are written out at the
end; a span's self time is its duration minus the durations of its
children (calls are nested, so the children never overlap).

Run as a script, this module wraps one CLI call so that the cold-start
workload can be traced in its own subprocess::

    python perfbench/tracing.py SPANS.json compute --input job.json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: traced public functions, by defining module
FUNCTIONS = {
    "cli": ("compute_report", "parse_plane", "parse_lagrangian_path", "parse_symplectic_path"),
    "paths": ("lift_path", "induced_path", "mu_lagrangian", "mu_symplectic", "mu_ell", "keller_maslov"),
    "lagrangian": ("souriau_w", "intersection_dim", "frame_from_w", "frame_from_graph", "apply_symplectic"),
    "leray": ("mu_bar", "souriau_m", "companion_lift", "lift_of"),
    "signature": ("kashiwara_tau", "inert_index"),
    "derived": ("spectral_flow", "hormander_xi", "graph_path", "shear_path"),
    "symplectic": ("is_symplectic",),
}

#: classes whose constructor is traced
CLASSES = {
    "paths": ("SymplecticPath",),
    "lagrangian": ("LagrangianFrame",),
    "leray": ("LagrangianLift",),
    "symplectic": ("SymplecticMatrix",),
}

PARSERS = ("cli.parse_plane", "cli.parse_lagrangian_path", "cli.parse_symplectic_path")
GENERATOR = "paths.generator"


def span_names() -> list[str]:
    """Every traced span name, in report order."""
    names = []
    for mod in FUNCTIONS:
        names += [f"{mod}.{fn}" for fn in FUNCTIONS[mod]]
        names += [f"{mod}.{cls}" for cls in CLASSES.get(mod, ())]
    return names


class Tracer:
    """Installs span wrappers on the maslov modules and records spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.samples = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"maslov.{m}") for m in FUNCTIONS}
        namespaces = [v for k, v in sys.modules.items() if k == "maslov" or k.startswith("maslov.")]
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                original = getattr(mods[mod], fn)
                after = self._count_samples if fn == "lift_path" else None
                wrapper = self._wrap(f"{mod}.{fn}", original, after)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapper)
        for mod, classes in CLASSES.items():
            for name in classes:
                cls = getattr(mods[mod], name)
                self._set(cls, "__init__", self._wrap(f"{mod}.{name}", cls.__init__))
        path_cls = mods["paths"].LagrangianPath
        post_init = path_cls.__post_init__

        def count_generator(path):
            post_init(path)
            if path.generator is not None:
                object.__setattr__(path, "generator", self._wrap(GENERATOR, path.generator))

        self._set(path_cls, "__post_init__", count_generator)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _count_samples(self, lifted):
        self.samples += lifted.sample_count

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"samples": self.samples, "spans": self.spans}, fh)


def aggregate(spans) -> dict:
    """name -> [calls, self seconds, total seconds]."""
    children = defaultdict(float)
    for sid, parent, _op, _name, t0, t1 in spans:
        children[parent] += t1 - t0
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _parent, _op, name, t0, t1 in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += (t1 - t0) - children.get(sid, 0.0)
        entry[2] += t1 - t0
    return out


if __name__ == "__main__":
    spans_file, cli_args = sys.argv[1], sys.argv[2:]
    from maslov import cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(spans_file)
    sys.exit(code)
