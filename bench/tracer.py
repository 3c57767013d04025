"""Span tracer for the benchmark's traced run.

The program is not changed.  Each public function of a layer is
replaced, for the length of the traced run, by a wrapper that records a
span (name, start, end, parent span, point id) in memory.  Most callers
import these functions by name (``glasser`` and ``specfun`` bind
``integrate_semi_infinite``, ``mehler`` and ``green`` bind
``bilinear_hermite_sum``, ...), so patching the defining module alone
would miss their calls: every attribute of every loaded ``pcfprod``
module, and every closure cell of the functions they hold, that *is*
the original function gets the wrapper, and :meth:`Tracer.uninstall`
puts every original back.  A hook whose
function no longer exists is reported as absent, not as an error.

Self time.  A span's own time is its duration minus its child spans.
The integrand a quadrature engine evaluates is the caller's code, so
its time (measured by wrapping the integrand) is taken out of the
engine's span and credited to the span that called the engine.  A
function's ``self_s`` adds the self time of child spans of its own
layer (``scaled_hermite_products`` inside ``bilinear_hermite_sum``,
``solve_ivp`` inside ``green_ode_oracle``), so it is the time spent in
that layer's code below the call.  A layer's ``self_s`` sums its
outermost spans; the layers' self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

clock = time.perf_counter

LAYERS = ("cli", "report", "hermsum", "quadrature", "specfun", "glasser", "mehler",
          "green", "hyperbolic", "bench")

# (span name, defining module, attribute, kind); the layer is the name's
# first component.  "quad" wraps the integrand, the first argument.
HOOKS = (
    ("quadrature.semi_infinite", "pcfprod.quadrature", "integrate_semi_infinite", "quad"),
    ("quadrature.finite", "pcfprod.quadrature", "integrate_finite", "quad"),
    ("hermsum.bilinear_hermite_sum", "pcfprod.hermsum", "bilinear_hermite_sum", "call"),
    ("hermsum.scaled_hermite_products", "pcfprod.hermsum", "scaled_hermite_products", "call"),
    ("specfun.pcf_d", "pcfprod.specfun", "pcf_d", "call"),
    ("specfun.bessel_k_quarter", "pcfprod.specfun", "bessel_k_quarter", "call"),
    ("specfun.hermite", "pcfprod.specfun", "hermite", "call"),
    ("glasser.product_via_integral", "pcfprod.glasser", "product_via_integral", "call"),
    ("glasser.product_reference", "pcfprod.glasser", "product_reference", "call"),
    ("glasser.laplace_I", "pcfprod.glasser", "laplace_I", "call"),
    ("glasser.xy_from_params", "pcfprod.glasser", "xy_from_params", "call"),
    ("mehler.series_for_I", "pcfprod.mehler", "series_for_I", "call"),
    ("mehler.sum_rule_lhs", "pcfprod.mehler", "sum_rule_lhs", "call"),
    ("mehler.mehler_kernel_series", "pcfprod.mehler", "mehler_kernel_series", "call"),
    ("mehler.mehler_kernel_closed", "pcfprod.mehler", "mehler_kernel_closed", "call"),
    ("green.green_spectral", "pcfprod.green", "green_spectral", "call"),
    ("green.green_closed", "pcfprod.green", "green_closed", "call"),
    ("green.green_ode_oracle", "pcfprod.green", "green_ode_oracle", "call"),
    ("green.solve_ivp", "pcfprod.green", "solve_ivp", "call"),
    ("hyperbolic.erfc_identity_13a", "pcfprod.hyperbolic", "erfc_identity_13a", "call"),
    ("hyperbolic.erfc_identity_13b", "pcfprod.hyperbolic", "erfc_identity_13b", "call"),
    ("hyperbolic.k_identity_14", "pcfprod.hyperbolic", "k_identity_14", "call"),
    ("report.make_record", "pcfprod.report", "make_record", "call"),
)

# per-function metrics reported as <name>.calls and <name>.self_s
_FUNCTION_METRICS = tuple(
    name for name, *_ in HOOKS
    if not name.startswith(("quadrature.", "hermsum."))
)


def _work(obj, attr: str) -> int:
    """A cost counter of a result, or of the partial result of an error."""
    if obj is None:
        return 0
    value = getattr(obj, attr, None)
    if value is None:
        value = getattr(getattr(obj, "partial", None), attr, 0)
    return int(value or 0)


class Tracer:
    """In-memory spans plus counters, for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.points: list[int] = []
        self.integrand: dict[int, float] = {}
        self.counts: Counter = Counter()
        self.point_id = -1
        self.enabled = True  # False: wrappers call straight through
        self.absent: list[str] = []
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._current)
        self.points.append(self.point_id)
        self.ends.append(0.0)
        self._current = idx
        self.starts.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = clock()
        self._current = self.parents[idx]

    # ------------------------------------------------------------ hooks
    def _wrap(self, name: str, kind: str, orig):
        counts = self.counts

        if kind == "quad":
            @functools.wraps(orig)
            def wrapper(f, *args, **kwargs):
                if not self.enabled:
                    return orig(f, *args, **kwargs)
                spent = [0.0]

                def timed(x):
                    t0 = clock()
                    v = f(x)
                    spent[0] += clock() - t0
                    return v

                idx = self.open(name)
                result = err = None
                try:
                    result = orig(timed, *args, **kwargs)
                    return result
                except BaseException as exc:
                    err = exc
                    counts[name + ".failures"] += 1
                    raise
                finally:
                    self.close(idx)
                    self.integrand[idx] = spent[0]
                    counts[name + ".evaluations"] += _work(result or err, "evaluations")
            return wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            idx = self.open(name)
            result = err = None
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                counts[name + ".failures"] += 1
                raise
            finally:
                self.close(idx)
                if name == "hermsum.bilinear_hermite_sum":
                    counts["hermsum.terms_used"] += _work(result or err, "terms_used")
                elif name == "hermsum.scaled_hermite_products":
                    counts["hermsum.terms_computed"] += int(
                        args[2] if len(args) > 2 else kwargs.get("count", 0))
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every hooked function in pcfprod.

        A binding is a module attribute, or a closure cell of a function
        kept in a module attribute or in a (nested) dict of one, such as
        the ``fn`` that ``cli._verify_eq13`` captures in its registry."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pcfprod" or n.startswith("pcfprod."))]
        cells = []

        def collect(value, depth):
            if callable(value) and getattr(value, "__closure__", None):
                cells.extend(value.__closure__)
            elif isinstance(value, dict) and depth < 3:
                for item in value.values():
                    collect(item, depth + 1)

        for module in modules:
            collect(vars(module), 0)
        for name, module_name, attr, kind in HOOKS:
            orig = getattr(sys.modules.get(module_name), attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, kind, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patches.append((module, key, orig))
                        setattr(module, key, wrapper)
            for cell in cells:
                try:
                    bound = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if bound is orig:
                    self._patches.append((cell, None, orig))
                    cell.cell_contents = wrapper

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patches):
            if key is None:
                target.cell_contents = orig
            else:
                setattr(target, key, orig)
        self._patches.clear()

    # ---------------------------------------------------------- summary
    def self_times(self) -> list[float]:
        """Per-span self time, as defined in the module docstring."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        own = [dur[i] - child[i] for i in range(n)]
        for i, spent in self.integrand.items():
            # child spans of an engine can only run inside its integrand
            own[i] = dur[i] - spent
            if self.parents[i] >= 0:
                own[self.parents[i]] += spent - child[i]
        layer = [name.split(".", 1)[0] for name in self.names]
        fself = own
        for i in range(n - 1, -1, -1):
            p = self.parents[i]
            if p >= 0 and layer[p] == layer[i]:
                fself[p] += fself[i]
        return fself

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this trace (wall-time shares need the caller)."""
        fself = self.self_times()
        layer = [name.split(".", 1)[0] for name in self.names]
        m: dict[str, float] = {}
        calls = Counter(self.names)
        by_name: Counter = Counter()
        for i, name in enumerate(self.names):
            by_name[name] += fself[i]
        layer_self: Counter = Counter()
        for i, lay in enumerate(layer):
            p = self.parents[i]
            if p < 0 or layer[p] != lay:
                layer_self[lay] += fself[i]
        wall = sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.names)) if self.parents[i] < 0)

        for lay in LAYERS:
            m[f"{lay}.self_s"] = layer_self[lay]
            m[f"{lay}.self_share"] = layer_self[lay] / wall if wall > 0 else 0.0
        for name in _FUNCTION_METRICS:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = by_name[name]

        c = self.counts
        hs = "hermsum.bilinear_hermite_sum"
        m["hermsum.calls"] = calls[hs]
        m["hermsum.failures"] = c[hs + ".failures"]
        m["hermsum.terms_used"] = c["hermsum.terms_used"]
        m["hermsum.terms_computed"] = c["hermsum.terms_computed"]
        m["hermsum.useful_ratio"] = (c["hermsum.terms_used"] / c["hermsum.terms_computed"]
                                     if c["hermsum.terms_computed"] else 0.0)
        m["hermsum.products_s"] = by_name["hermsum.scaled_hermite_products"]
        m["hermsum.ns_per_term"] = (1e9 * layer_self["hermsum"] / c["hermsum.terms_computed"]
                                    if c["hermsum.terms_computed"] else 0.0)
        for q in ("quadrature.semi_infinite", "quadrature.finite"):
            evals = c[q + ".evaluations"]
            m[q + ".calls"] = calls[q]
            m[q + ".evaluations"] = evals
            m[q + ".self_s"] = by_name[q]
            m[q + ".ns_per_eval"] = 1e9 * by_name[q] / evals if evals else 0.0
            m[q + ".failures"] = c[q + ".failures"]
        m["quadrature.integrand_s"] = sum(self.integrand.values())
        m["trace.spans"] = len(self.names)
        m["trace.absent_hooks"] = len(self.absent)
        m["trace.wall_s"] = wall
        return m
