"""Spans around calls into gkspec's layers, for the benchmark's traced rounds.

A traced round replaces each function in LAYERS, wherever a gkspec module
binds it, with a wrapper that records one span: layer name, span id, the
id of the enclosing span, start and end.  The kernel modules themselves
(_fallback, _speedups) are left alone, so a kernel's calls to itself stay
inside its own span on either backend.  Spans are kept in memory and
written out once, when the round ends; a span's self time is its duration
minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array

# (module, function or Class.method): every public call a layer metric names
LAYERS = (
    ("gkspec._core", "gf_mul"),
    ("gkspec._core", "gf_pow"),
    ("gkspec._core", "gf_geom_sum"),
    ("gkspec._core", "psl2_order_counts"),
    ("gkspec.gf", "FiniteField.frobenius"),
    ("gkspec.gf", "make_field"),
    ("gkspec.gf", "element_order"),
    ("gkspec.gf", "subgroup_generator"),
    ("gkspec.linact", "action_order"),
    ("gkspec.linact", "semidirect_element_order"),
    ("gkspec.linact", "semidirect_spectrum"),
    ("gkspec.linact", "minimal_polynomial"),
    ("gkspec.linact", "fixed_space_dim"),
    ("gkspec.linact", "t_sum_map"),
    ("gkspec.linact", "LinearAction.compose"),
    ("gkspec.groups", "build_gamma_frobenius"),
    ("gkspec.groups", "psl2_spectrum"),
    ("gkspec.atlasdb", "crosscheck_record"),
    ("gkspec.atlasdb", "parse_records"),
    ("gkspec.atlasdb", "run_filter"),
    ("gkspec.orderset", "factorize"),
    ("gkspec.orderset", "OrderSet.members"),
    ("gkspec.orderset", "OrderSet.pi"),
    ("gkspec.orderset", "OrderSet.sigma"),
    ("gkspec.orderset", "product_spectrum"),
    ("gkspec.orderset", "wreath2_spectrum"),
    ("gkspec.primegraph", "build_gk"),
    ("gkspec.primegraph", "PrimeGraph.max_cocliques"),
)

# memoized functions whose hit ratio is reported: (module, function, metric prefix)
CACHES = (
    ("gkspec.gf", "make_field", "gf.make_field"),
    ("gkspec.gf", "element_order", "gf.element_order"),
    ("gkspec.linact", "_geom_sum", "linact.geom_sum"),
)

_KERNELS = ("gkspec._fallback", "gkspec._speedups")


def layer_name(module: str, path: str) -> str:
    """Metric prefix: gkspec._core.gf_mul -> core.gf_mul (names start alphanumeric)."""
    return module.removeprefix("gkspec.").lstrip("_") + "." + path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # name index, span id, parent id, start ns, end ns
        self.matrices = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._caches: dict = {}

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` around every call."""
        nid = len(self.names)
        self.names.append(name)
        stack, ids, extend = self._stack, self._ids, self.spans.extend
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                extend((nid, sid, parent, t0, t1))

        return traced

    def install(self):
        """Wrap every LAYERS entry present in the loaded gkspec modules."""
        mods = [
            m
            for name, m in list(sys.modules.items())
            if (name == "gkspec" or name.startswith("gkspec.")) and name not in _KERNELS
        ]
        for module, fn_name, prefix in CACHES:
            fn = getattr(sys.modules.get(module), fn_name, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[prefix] = (fn, fn.cache_info())
        for module, path in LAYERS:
            owner = sys.modules.get(module)
            *cls, attr = path.split(".")
            for part in cls:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            fn = orig
            if path == "psl2_order_counts":
                fn = self._counting_matrices(orig)
            wrapped = self.wrap(layer_name(module, path), fn)
            if cls:
                setattr(owner, attr, wrapped)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _counting_matrices(self, fn):
        def counted(q, *args):
            self.matrices += q * (q * q - 1)
            return fn(q, *args)

        return counted

    def report(self, spans_path: str) -> dict:
        """Per-layer calls and times; also writes the raw spans next to it."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        child: dict[int, int] = {}
        s = self.spans
        for i in range(0, len(s), 5):  # spans end children first
            nid, sid, parent, t0, t1 = s[i : i + 5]
            dur = t1 - t0
            calls[nid] += 1
            total_ns[nid] += dur
            self_ns[nid] += dur - child.pop(sid, 0)
            if parent >= 0:
                child[parent] = child.get(parent, 0) + dur
        layers = {
            name: (calls[nid], self_ns[nid] / 1e9, total_ns[nid] / 1e9)
            for nid, name in enumerate(self.names)
        }
        caches = {}
        for prefix, (fn, before) in self._caches.items():
            after = fn.cache_info()
            caches[prefix] = (after.hits - before.hits, after.misses - before.misses)
        with open(spans_path, "wb") as fh:
            s.tofile(fh)
        with open(spans_path + ".json", "w", encoding="utf-8") as fh:
            fields = ["name", "id", "parent", "start_ns", "end_ns"]
            json.dump({"names": self.names, "fields": fields}, fh)
        return {
            "layers": layers,
            "caches": caches,
            "matrices": self.matrices,
            "spans": len(s) // 5,
        }
