"""Layer tracing from outside the engine.

``Tracer.install()`` replaces the public functions and methods of each
engine layer (one package module per layer) with timing wrappers, without
editing ``src/``.  Names imported with ``from .x import f`` are rebound in
every loaded ``endochain`` module, so calls across layers go through the
wrappers too.

Each wrapped call is a span: (id, name, job, parent id, start, end, self).
Self time is the span's duration minus the time its wrapped child calls
cover; the engine is single-threaded, so children nest strictly inside
their parent.  Spans stay in memory and are written as JSON lines at the
end of the run.

Two kinds of callables are handled differently, to keep the tracing cost
small against the work measured:

* ``SKIP``: value-class accessors and per-coefficient helpers (millions of
  calls that each cost less than a wrapper).  They are not wrapped, so
  their time stays in the caller's self time.
* ``FOLD``: hot kernels that matter as a layer (``Echelon.add``).  They are
  timed and counted per name and charged to the parent's covered time, but
  get no span record of their own.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "ringio", "curve_ring", "chain", "lattice", "linalg", "resolver", "endo", "field")

SKIP_CLASSES = {
    "lattice.Ambient",
    "lattice.WindowSpace",
    "endo.ProjIndex",
    "field.FieldSpec",
    "field.GFElement",
    "linalg.RatFun",
}
SKIP = {
    "lattice.hom_coord",
    "lattice.hom_ambient",
    "lattice.hom_apply",
    "linalg.Echelon.residue",
    "linalg.Echelon.rank",
}
FOLD = {"linalg.Echelon.add", "linalg.Echelon.contains"}
ECHELON_ADD = "linalg.Echelon.add"  # returns True when the rank grew
RAW_SPAN = "lattice.raw_span"  # returns (WindowSpace, Echelon)


class Stat:
    __slots__ = ("calls", "total", "self", "kept", "rows", "rank")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.kept = 0  # Echelon.add: calls that grew the rank
        self.rows = 0  # Echelon.add calls made directly under this name
        self.rank = 0  # raw_span: summed rank of the echelons returned


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {}
        self.job = None
        self._stack = []  # [span id or None, name, start, covered child time]
        self._next_id = 0
        self._restore = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, name):
        fold = name in FOLD
        stack = self._stack
        clock = time.perf_counter
        st = self.stat(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold:
                sid = None
            else:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [sid, name, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                own = dur - frame[3]
                st.calls += 1
                st.total += dur
                st.self += own
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                if sid is not None:
                    tracer.spans.append(
                        (sid, name, tracer.job, parent[0] if parent else None, frame[2], end, own)
                    )
            if name == ECHELON_ADD:
                st.kept += out is True
                if parent is not None:
                    tracer.stat(parent[1]).rows += 1
            elif name == RAW_SPAN:
                st.rank += out[1].rank()
            return out

        return wrapper

    def install(self, package):
        """Wrap every public callable of the layer modules of ``package``."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and name not in SKIP:
                    replaced[obj] = self._wrap(obj, name)
                    self._set(mod, attr, replaced[obj])
                elif inspect.isclass(obj) and name not in SKIP_CLASSES:
                    self._wrap_methods(obj, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        self._set(mod, attr, replaced[obj])

    def _wrap_methods(self, cls, cls_name):
        for attr, obj in list(vars(cls).items()):
            name = f"{cls_name}.{attr}"
            if attr.startswith("_") or name in SKIP:
                continue
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_totals(self):
        """{layer: (calls, self seconds)} over every wrapped name."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, st in self.stats.items():
            acc = out[name.split(".", 1)[0]]
            acc[0] += st.calls
            acc[1] += st.self
        return out

    def write_jsonl(self, path):
        keys = ("id", "name", "job", "parent", "start", "end", "self")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
