"""Span shims around the library's public functions, from outside the library.

``Tracer.install()`` wraps each function and method named in ``TRACED`` and
rebinds every alias of it across the loaded ``bcwitt.*`` modules (the
``from .x import f`` copies, the package namespace, and class aliases such
as ``__rmul__ = __mul__``), so a call made inside the library goes through
the shim too and nested calls nest as spans.  ``uninstall()`` puts the
originals back.  Spans are kept in memory as ``[name, parent, start, end]``
and written out with ``dump()``; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

TRACED = {
    "arith": ("cyclotomic", "cyclotomic_factor", "Polynomial.__divmod__",
              "Polynomial.__mul__", "poly_gcd"),
    "witt": ("ghost", "unghost", "witt_add", "witt_mul", "frobenius", "RationalWitt.expand"),
    "linalg": ("char_series", "det", "mat_mul"),
    "dynamical": ("lefschetz_numbers", "lefschetz_zeta_closed", "spectral_euler"),
    "endo": ("l_map", "phi_mu"),
    "zeta": ("f1_zeta", "hw_zeta"),
    "torified": ("f1m_points",),
    "qz": ("sigma", "rho", "QZElement.__mul__"),
    "equivariant": ("periodic_points", "euler_char"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
_FACTOR = "arith.cyclotomic_factor"
_DIVMOD = "arith.Polynomial.__divmod__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.factors = 0          # factors returned by cyclotomic_factor
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _shim(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_factors = name == _FACTOR

        def shim(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if counts_factors:
                    self.factors += len(result)
                return result
            finally:
                stack.pop()
                rec[3] = clock()

        functools.update_wrapper(shim, fn)
        if hasattr(fn, "cache_info"):     # keep lru_cache introspection working
            shim.cache_info, shim.cache_clear = fn.cache_info, fn.cache_clear
        return shim

    def _rebind(self, namespaces, orig, shim) -> None:
        for ns in namespaces:
            for attr in [a for a, v in vars(ns).items() if v is orig]:
                self._undo.append((ns, attr, orig))
                setattr(ns, attr, shim)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bcwitt" or n.startswith("bcwitt."))]
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"bcwitt.{mod_name}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = vars(cls)[meth]
                    self._rebind([cls], orig, self._shim(f"{mod_name}.{qual}", orig))
                else:
                    orig = getattr(mod, qual)
                    self._rebind(modules, orig, self._shim(f"{mod_name}.{qual}", orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._undo):
            setattr(ns, attr, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the divmod calls made
        under a cyclotomic_factor span at any depth."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child = [0.0] * len(self.spans)
        under_factor = [False] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                under_factor[i] = under_factor[parent] or self.spans[parent][0] == _FACTOR
        divmods = 0
        for i, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            divmods += name == _DIVMOD and under_factor[i]
        return {"calls": calls, "self_s": self_s, "factor_divmods": divmods,
                "factors": self.factors}

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, fh,
                      separators=(",", ":"))
