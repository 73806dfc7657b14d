"""Outside-in tracing of towerlim's layers, for the benchmark's traced run.

`Tracer.install` wraps public functions and methods of each layer at run
time.  A function is patched under every module-level name in the towerlim
package that is bound to it, so each caller picks the wrapper up where it
looks the name up; a method is patched on its class.  `Tracer.restore`
puts every original back.

Layer calls become in-memory spans (name, parent, start, end).  A span's
self time is its duration minus the time its child spans cover.  Leaf calls
(ring multiplies, matrix products and field codec batches) run tens of
thousands of times per command, so they only add to counters and busy time,
which keeps trace memory bounded; their time counts in the self time of the
span they run under.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# Multiply-class thresholds, copied from towerlim/cyclo.py as it stood when
# the benchmark was defined.  Classes depend only on ring parameters, so the
# counts keep their meaning when the kernel paths change.
NP_COEFF_LIMIT = 1 << 25
NP_MAX_CONV_TERMS = 1 << 13
NP_MIN_PHI = 16

def mul_class(phi: int, modulus: int | None) -> str:
    """Kernel class of a ring multiply from the ring's degree and modulus.

    exact: no modulus; small: phi < 16; wide: modulus above 2^25 or a
    convolution longer than 8192 terms; window: everything else.
    """
    if modulus is None:
        return "exact"
    if phi < NP_MIN_PHI:
        return "small"
    if modulus > NP_COEFF_LIMIT or 2 * phi - 1 > NP_MAX_CONV_TERMS:
        return "wide"
    return "window"


def finish(raw: dict, names) -> dict:
    """The per-layer metrics `names` from summed raw counters, zero-filled,
    with the ratios worked out."""
    out = {name: float(raw.get(name, 0.0)) for name in names}
    out["tower.charpoly.distinct_frac"] = _ratio(
        out["tower.charpoly.distinct"], out["tower.charpoly.calls"])
    out["cache.hit_frac"] = _ratio(out["cache.get.hits"],
                                   out["cache.get.calls"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dir_bytes(path) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except OSError:
        return 0


class Tracer:
    """Spans and counters for one traced command."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._charpolys: set = set()
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from towerlim import (cache, charsums, cli, cyclo, fields, matrices,
                              report, tower)

        span = self._span
        span(cli.main, "command")
        span(tower.orbit_params, "tower.orbit_params")
        span(tower.primitive_orbit_reps, "tower.orbit_scan",
             after=self._count_vectors)
        span(tower.r_poly, "tower.aggregate")
        span(tower.p_poly, "tower.charpoly", after=self._count_charpoly)
        span(tower.frobenius_product, "tower.twisted_product")
        span(matrices.det_one_minus_y, "matrices.berkowitz")
        span(tower.scalar_congruence_rows, "tower.congruence")
        span(tower.general_congruence_rows, "tower.congruence")
        span(cache.cached_r_poly, "cache.cached_r_poly")
        span(cache.cache_get, "cache.get", after=self._count_hit)
        span(cache.cache_put, "cache.put", before=self._cache_bytes,
             after=self._count_put_bytes)
        span(fields.field_build, "fields.build", after=self._count_field)
        span(charsums.fermat_enum_count, "charsums.enum",
             after=self._count_points)
        span(charsums.artin_schreier_enum_count, "charsums.enum",
             after=self._count_points)
        span(charsums.gauss_sum, "charsums.gauss_sum")
        span(charsums.jacobi_sum, "charsums.jacobi_sum")
        span(charsums.h_poly_tower, "charsums.h_poly")
        span(report.render, "report.render", after=self._count_report)

        self._leaf_function(matrices.mat_mul, lambda *a: "matrices.mat_mul")
        classes: dict[tuple, str] = {}
        cyclo_elem = cyclo.CycloElem

        def ring_mul(a, b, *_):
            if not isinstance(b, cyclo_elem):
                return None  # scaling by an integer, not a ring multiply
            r = a.ring
            key = (r.ell, r.phi, r.prec)
            cls = classes.get(key)
            if cls is None:
                modulus = None if r.prec is None else r.ell**r.prec
                cls = classes[key] = "cyclo.mul." + mul_class(r.phi, modulus)
            return cls

        self._leaf_method(cyclo.CycloElem, ("__mul__", "__rmul__"), ring_mul)
        self._leaf_method(
            cyclo.BiCycloElem, ("__mul__", "__rmul__"),
            lambda a, b, *_: None if isinstance(b, int) else "cyclo.bimul")
        for name in ("add_batch", "tr_abs_batch", "one_minus_batch",
                     "neg_batch"):
            self._leaf_method(fields.FqField, (name,),
                              lambda *a: "fields.codec",
                              elements=lambda self_, encs, *_: len(encs))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "towerlim" and not modname.startswith("towerlim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, cls, attrs, make) -> None:
        original = cls.__dict__[attrs[0]]
        wrapper = make(original)
        for attr in attrs:
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _span(self, fn, name, before=None, after=None) -> None:
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            state = None
            if before is not None or after is not None:
                bound = sig.bind(*args, **kwargs).arguments
            if before is not None:
                state = before(bound)
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(bound, result, state)
            return result

        self._patch_everywhere(fn, wrapper)

    def span_totals(self) -> dict[str, float]:
        """calls, total seconds and self seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, parent, start, end in spans:
            d = end - start
            out[name + ".calls"] += 1
            out[name + ".s"] += d
            out[name + ".self_s"] += d
            if parent >= 0:
                out[spans[parent][0] + ".self_s"] -= d
        return out

    # -- leaves -------------------------------------------------------------

    def _leaf(self, key_of, elements=None):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                key = key_of(*args)
                if key is None:
                    return fn(*args, **kwargs)
                if elements is not None:
                    counts[key + ".elements"] += elements(*args)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[key + ".s"] += perf_counter() - t0
                    counts[key + ".calls"] += 1
            return wrapper

        return make

    def _leaf_function(self, fn, key_of) -> None:
        self._patch_everywhere(fn, self._leaf(key_of)(fn))

    def _leaf_method(self, cls, attrs, key_of, elements=None) -> None:
        self._patch_class(cls, attrs, self._leaf(key_of, elements))

    # -- counters fed by span hooks -------------------------------------------

    def _count_vectors(self, bound, result, _state) -> None:
        spec = bound["spec"]
        self.counts["tower.orbit_scan.vectors"] += spec.ell ** (
            bound["n"] * spec.b)

    def _count_charpoly(self, bound, result, _state) -> None:
        key = (bound["n"], tuple(bound["v"]))
        if key not in self._charpolys:
            self._charpolys.add(key)
            self.counts["tower.charpoly.distinct"] += 1

    def _count_hit(self, bound, result, _state) -> None:
        if result is not None:
            self.counts["cache.get.hits"] += 1

    def _cache_bytes(self, bound) -> int:
        return _dir_bytes(bound["dirpath"]) if bound["dirpath"] else 0

    def _count_put_bytes(self, bound, result, before: int) -> None:
        if bound["dirpath"]:
            self.counts["cache.put.bytes"] += (
                _dir_bytes(bound["dirpath"]) - before)

    def _count_field(self, bound, result, _state) -> None:
        self.counts["fields.build.elements"] += result.q

    def _count_points(self, bound, result, _state) -> None:
        self.counts["charsums.enum.points"] += (
            result["q"] ** result.get("m", 1))

    def _count_report(self, bound, result, _state) -> None:
        self.counts["report.bytes"] += len(result.encode())

    def raw(self) -> dict[str, float]:
        """Span totals and counters, to be summed over a sample's commands."""
        out = self.span_totals()
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)
