"""Spans around stormerkit's public functions, installed from outside ``src``.

:class:`Tracer` replaces each public function of each module by a wrapper
that records a span (name, parent, start, end) and a few counts, and puts
the wrapper under every name a caller looks up: ``gregory.is_stormer``,
``pidigits.verify_identity`` and ``stormer.arith.largest_prime_factor`` are
bindings of their own, and all of them are patched.  :meth:`Tracer.restore`
puts every original back.

Spans stay in memory, in flat arrays, until :meth:`Tracer.summary` turns
them into calls and self time per function.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array
from contextlib import contextmanager

MODULES = ("arith", "stormer", "twosquares", "density", "gregory", "pidigits")

# Functions outside ``__all__`` that the CLI calls, wrapped as well.
EXTRA = {"gregory": ("identity_certificate",), "pidigits": ("tail_correct_digits",)}
# Methods wrapped on their class: (module, class, method, span name).
METHODS = (("pidigits", "FixedPoint", "decimal_string", "pidigits.decimal_string"),)


def decimal_digits(n: int) -> int:
    """Decimal digits of |n|, without ``str`` (which refuses big ints)."""
    n = abs(n)
    return 1 if n < 10 else int(math.log10(n)) + 1


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._density_limits: list[int] | None = None

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn, hook):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- counts taken at layer boundaries ------------------------------------

    def _hooks(self) -> dict:
        def arg(args, kwargs, key):
            return args[0] if args else kwargs[key]

        def density_limit(args, kwargs, _result):
            if self._density_limits is not None:
                self._density_limits.append(arg(args, kwargs, "limit"))

        return {
            "arith.sieve_primes": lambda a, k, r: self.count("arith.sieve_primes.span", arg(a, k, "limit")),
            "stormer.enumerate_stormer": lambda a, k, r: self.count(
                "stormer.enumerate_stormer.candidates", max(arg(a, k, "limit"), 0)
            ),
            "gregory.identity_certificate": lambda a, k, r: self.count(
                "gregory.identity_certificate.digits", decimal_digits(max(abs(r.re), abs(r.im)))
            ),
            "pidigits.compute_pi": lambda a, k, r: self.count("pidigits.series_terms", sum(r.terms_used)),
            "density.count_stormer": density_limit,
            "density.count_large_factor": density_limit,
        }

    @contextmanager
    def density_job(self):
        """Collect the limits one ``density`` CLI job asks to test.

        Each limit L tests x = 1..L, so the job tests max(L) distinct x in
        sum(L) attempts."""
        self._density_limits = []
        try:
            yield
        finally:
            limits, self._density_limits = self._density_limits, None
            if limits:
                self.count("density.distinct_x", max(limits))
                self.count("density.tested_x", sum(limits))

    # --- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        holders = [package, *modules.values(), importlib.import_module(f"{package.__name__}.cli")]
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for mod_name, module in modules.items():
            public = [n for n in module.__all__ if inspect.isfunction(getattr(module, n, None))]
            for fn_name in public + list(EXTRA.get(mod_name, ())):
                fn = getattr(module, fn_name, None)
                if inspect.isfunction(fn) and id(fn) not in wrapped:
                    name = f"{mod_name}.{fn_name}"
                    wrapped[id(fn)] = self._wrap(name, fn, hooks.get(name))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped and getattr(wrapped[id(value)], "__wrapped__", None) is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapped[id(value)])
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(modules[mod_name], cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(original):
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, None))

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # --- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, and self time per module."""
        own = array("d", self.end)
        for i, (s, p) in enumerate(zip(self.start, self.parent)):
            own[i] -= s
            if p >= 0:
                own[p] -= self.end[i] - s
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, t in zip(self.name_of, own):
            calls[nid] += 1
            self_s[nid] += t
        per_name = {name: {"calls": calls[i], "self_s": self_s[i]} for i, name in enumerate(self.names)}
        per_module: dict[str, float] = {}
        for name, stats in per_name.items():
            module = name.split(".")[0]
            per_module[module] = per_module.get(module, 0.0) + stats["self_s"]
        return {"spans": len(own), "per_name": per_name, "per_module": per_module, "counts": dict(self.counts)}
