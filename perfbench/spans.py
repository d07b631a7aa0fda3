"""Span tracing around germlab's public functions, from outside the program.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span: name, start, end and the enclosing span on the same
thread.  Several germlab modules bind names with `from ... import`, so a
function is replaced in every loaded module that holds it, not only in the
module that defines it.  Spans stay in per-thread arrays and are exported
when the run ends; the corpus runner's worker threads each get their own
buffer, so no span or counter is shared between threads.

A layer's self time is its span's duration minus the durations of the
spans directly inside it.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Methods are given as "Class.method".
TRACED = (
    ("germlab.poly", "Polynomial.__mul__", "poly.mul"),
    ("germlab.poly", "Polynomial.__pow__", "poly.pow"),
    ("germlab.poly", "Polynomial.evaluate", "poly.evaluate"),
    ("germlab.poly", "Polynomial.exact_div", "poly.exact_div"),
    ("germlab.poly", "PolyMatrix.det", "poly.det"),
    ("germlab.poly", "PolyMatrix.__matmul__", "poly.matmul"),
    ("germlab.poly", "PolyMatrix.minors", "poly.minors"),
    ("germlab.germs", "milnor_data", "germs.milnor_data"),
    ("germlab.germs", "pullback_numerator", "germs.pullback_numerator"),
    ("germlab.mixed", "MixedPolynomial.realify", "mixed.realify"),
    ("germlab.mixed", "MixedPolynomial.wirtinger", "mixed.wirtinger"),
    ("germlab.curves", "CurveFamily.pullback", "curves.pullback"),
    ("germlab.compose", "compose_exact", "compose.compose_exact"),
    ("germlab.compose", "composition_milnor_check", "compose.composition_milnor_check"),
    ("germlab.compose", "image_in_milnor_check", "compose.image_in_milnor_check"),
    ("germlab.compose", "composition_sampled_probe", "compose.composition_sampled_probe"),
    ("germlab.hwc", "hwc_check", "hwc.hwc_check"),
    ("germlab.hwc", "hwc_check_mixed", "hwc.hwc_check_mixed"),
    ("germlab.hwc", "empty_interior_criterion", "hwc.empty_interior_criterion"),
    ("germlab.hwc", "isolated_singularity_probe", "hwc.isolated_singularity_probe"),
    ("germlab.witness", "thom_irregularity_witness", "witness.thom_irregularity_witness"),
    ("germlab.witness", "condition_b_family_check", "witness.condition_b_family_check"),
    ("germlab.witness", "condition_b_sampled_probe", "witness.condition_b_sampled_probe"),
    ("germlab.witness", "_distance_to_components", "witness._distance_to_components"),
    ("germlab.sampling", "compile_float", "sampling.compile_float"),
    ("germlab.sampling", "refine_on_variety", "sampling.refine_on_variety"),
    ("germlab.sampling", "nearest_on_variety", "sampling.nearest_on_variety"),
    ("germlab.certify", "RegularityReport.derive", "certify.derive"),
    ("germlab.dsl", "parse_text", "dsl.parse"),
    ("germlab.corpus", "run_entry", "corpus.entry"),
    ("scipy.optimize", "least_squares", "scipy.least_squares"),
    ("scipy.optimize", "minimize", "scipy.minimize"),
)


class _Buffer:
    """Spans and counters of one thread."""

    __slots__ = ("name", "start", "end", "parent", "stack", "counts")

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[dict, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self.buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, post=None, name_of=None):
        """fn with a span around each call; post(result, buf) may replace the result."""
        fixed = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buf()
            nid = fixed if name_of is None else self._nid(name_of(args))
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()
            return result if post is None else post(result, buf)

        return wrapper

    # -- post hooks for the counted layers ---------------------------------

    def _post_compile(self, evaluator, buf):
        creator = self.names[buf.name[buf.stack[-1]]] if buf.stack else "-"
        by = f"sampling.float_evals.by.{creator}"

        def counted(*args, **kwargs):
            counts = self._buf().counts
            counts["sampling.float_evals"] += 1
            counts[by] += 1
            return evaluator(*args, **kwargs)

        return counted

    @staticmethod
    def _post_lsq(sol, buf):
        buf.counts["scipy.least_squares.nfev"] += int(sol.nfev)
        buf.counts["scipy.least_squares.njev"] += int(sol.njev or 0)
        # status 0 means max_nfev ran out; 1..4 are the tolerance stops.
        buf.counts["scipy.least_squares.converged"] += int(sol.status > 0)
        return sol

    @staticmethod
    def _post_minimize(sol, buf):
        buf.counts["scipy.minimize.nfev"] += int(sol.nfev)
        return sol

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        # A module not loaded yet (scipy.optimize in a command that never
        # samples) has nothing to trace, and importing it would cost time.
        traced = [t for t in TRACED if t[0] in sys.modules]
        functions = {id(getattr(sys.modules[m], a)) for m, a, _ in traced if "." not in a}
        holders: dict[int, list[dict]] = {}
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if not isinstance(d, dict):
                continue
            for v in list(d.values()):
                if id(v) in functions:
                    holders.setdefault(id(v), []).append(d)
        posts = {
            "sampling.compile_float": self._post_compile,
            "scipy.least_squares": self._post_lsq,
            "scipy.minimize": self._post_minimize,
        }
        for modname, attr, name in traced:
            mod = sys.modules[modname]
            name_of = (lambda a: f"corpus.entry.{a[0]}") if name == "corpus.entry" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self.wrap(name, orig, posts.get(name), name_of)
                for key, v in list(cls.__dict__.items()):
                    if v is orig:  # aliases such as __rmul__ = __mul__
                        self._undo.append((cls, key, orig))
                        setattr(cls, key, wrapper)
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig, posts.get(name), name_of)
            for d in holders.get(id(orig), ()):
                for key, v in list(d.items()):
                    if v is orig:
                        self._undo.append((d, key, orig))
                        d[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def counters(self) -> Counter:
        total: Counter = Counter()
        for buf in list(self.buffers):
            total.update(buf.counts)
        return total

    def aggregate(self, t0: float = float("-inf"), t1: float = float("inf")) -> dict:
        """{span name: [calls, self seconds]} over spans starting in [t0, t1)."""
        out: dict[str, list] = {}
        for buf in list(self.buffers):
            n = len(buf.end)
            child = [0.0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    child[p] += buf.end[i] - buf.start[i]
            for i in range(n):
                s = buf.start[i]
                if t0 <= s < t1:
                    row = out.setdefault(self.names[buf.name[i]], [0, 0.0])
                    row[0] += 1
                    row[1] += buf.end[i] - s - child[i]
        return out

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "threads": [
                {"name": list(b.name), "start": list(b.start), "end": list(b.end),
                 "parent": list(b.parent), "counts": dict(b.counts)}
                for b in self.buffers
            ],
        }
