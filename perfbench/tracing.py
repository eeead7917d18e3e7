"""Span tracing of birat's public functions, for the per-layer metrics.

Tracer.install wraps every public function of every birat module, in each
module namespace that bound it at import so that internal calls are seen too
(birat.cremona.poly_gcd_list as well as birat.poly.poly_gcd_list), and the
public and arithmetic methods of birat's classes, on the class.  Each call
opens a span: name, start, end and parent span.  One thread runs the
workload, so spans nest as a stack and a span's self time is its duration
minus the time its direct children took, their tracing included, so that
self times hold no tracer bookkeeping.

Totals per span name are kept for every span.  The spans themselves are kept
in memory up to a limit (a traced run makes millions of scalar spans) and
written out when the run ends.
"""

import functools
import json
import sys
import types
from collections import Counter
from enum import Enum
from time import perf_counter

# Methods wrapped besides public ones: construction and arithmetic.
DUNDERS = frozenset(
    ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__truediv__", "__neg__", "__pow__", "__call__")
)
KERNELS = ("mul_terms", "add_terms", "scale_terms")
# Spans kept for the span file; totals count every span regardless.
SPAN_LIMIT = 50_000


def _coeff_bits(poly):
    best = 0
    for c in poly.terms.values():
        v = c.value
        for part in v if isinstance(v, tuple) else (v,):
            if isinstance(part, int):
                best = max(best, part.bit_length())
            else:
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        # Tracing costs that the timer reads cannot exclude, per span: what
        # a span of an empty function records as its self time, and what
        # calling through a wrapper leaves in the caller's self time.
        # install() measures them; an uninstalled tracer leaves them at 0.
        self.own_cost = 0.0
        self.child_cost = 0.0
        self.stack = []
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.edges = Counter()
        self.active = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self.next_id = 0

    def reset_stack(self):
        """Forget open spans, after an operation was interrupted mid-call."""
        self.stack.clear()
        self.active.clear()

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span; hook(args, result) records counts."""
        calls, total, self_time = self.calls, self.total, self.self_time
        edges, active, stack, spans = self.edges, self.active, self.stack, self.spans
        own_cost, child_cost = self.own_cost, self.child_cost
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The span's [start, end] holds the call alone; the tracer's own
            # bookkeeping and hook run outside it.  The parent is charged
            # with the whole interval from `entered` on, so the bookkeeping
            # is in no span's self time.
            entered = perf_counter()
            parent = stack[-1] if stack else None
            try:
                sid = tracer.next_id
                tracer.next_id = sid + 1
                span_name = name(args) if callable(name) else name
                frame = [0.0, span_name, sid]
                stack.append(frame)
                active[span_name] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    dur = end - start
                    if stack and stack[-1] is frame:
                        stack.pop()
                    active[span_name] -= 1
                    calls[span_name] += 1
                    self_time[span_name] += dur - frame[0] - own_cost
                    if not active[span_name]:
                        total[span_name] += dur
                    if parent is not None:
                        edges[parent[1], span_name] += 1
                    if len(spans) < SPAN_LIMIT:
                        spans.append((sid, parent[2] if parent else None, span_name, start, end))
                    else:
                        tracer.dropped += 1
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                if parent is not None:
                    parent[0] += perf_counter() - entered + child_cost

        return wrapper

    def _hooks(self):
        counts = self.counts

        def terms_out(args, result):
            counts["kernels.terms_out"] += len(result)

        def gcd(args, result):
            if not result.is_constant:
                counts["poly.gcd.nontrivial"] += 1

        def exact_div(args, result):
            bits = max(_coeff_bits(args[0]), _coeff_bits(args[1]))
            if bits > counts["poly.exact_div.max_coeff_bits"]:
                counts["poly.exact_div.max_coeff_bits"] = bits

        return {
            "kernels.mul_terms": terms_out,
            "kernels.add_terms": terms_out,
            "kernels.scale_terms": terms_out,
            "poly.poly_gcd": gcd,
            "poly.exact_div": exact_div,
        }

    @staticmethod
    def calibrate():
        """(own_cost, child_cost) in seconds, measured on an empty function.

        own_cost is the self time one span of it records.  child_cost is
        the self time a caller gains per call when the callee is wrapped,
        beyond what the same call costs untraced.  Each is the least of
        five measurements, the one least disturbed by the machine.
        """
        n = 20_000

        def empty():
            pass

        def loop(callee):
            for _ in range(n):
                callee()

        own, child = [], []
        for _ in range(5):
            t = perf_counter()
            loop(empty)
            plain = perf_counter() - t
            probe = Tracer()
            probe.wrap("loop", loop)(probe.wrap("empty", empty))
            own.append(probe.self_time["empty"] / n)
            child.append(max(0.0, (probe.self_time["loop"] - plain) / n))
        return min(own), min(child)

    def install(self):
        """Wrap birat in place; call after every birat module is imported."""
        self.own_cost, self.child_cost = self.calibrate()
        modules = [m for n, m in sorted(sys.modules.items()) if n == "birat" or n.startswith("birat.")]
        hooks = self._hooks()
        wrappers = {}

        def module_fn(fn):
            if id(fn) not in wrappers:
                if fn.__name__ in KERNELS and fn.__module__.startswith("birat._kernels"):
                    name = f"kernels.{fn.__name__}"
                else:
                    name = f"{fn.__module__.removeprefix('birat.')}.{fn.__name__}"
                label = (lambda args: f"suites.run_suite[{args[0]}]") if name == "suites.run_suite" else name
                wrappers[id(fn)] = (fn, self.wrap(label, fn, hooks.get(name)))
            return wrappers[id(fn)][1]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("birat")
                    and not obj.__name__.startswith("_")
                ):
                    setattr(mod, attr, module_fn(obj))
        for mod in modules:
            for obj in list(vars(mod).values()):
                if (
                    isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, (BaseException, Enum))
                ):
                    self._wrap_class(obj, mod.__name__.removeprefix("birat."), hooks)

    def _wrap_class(self, cls, modname, hooks):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{modname}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(name, obj, hooks.get(name)))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, obj.__func__, hooks.get(name))))

    def layer_metrics(self):
        """The per-layer metrics, keyed by the names in BENCHMARK.json."""
        calls, self_time, total = self.calls, self.self_time, self.total

        def module_self(prefix):
            return sum(v for k, v in self_time.items() if k.startswith(prefix))

        to_chart = calls["cremona.CremonaMap.to_chart"]
        misses = self.edges["cremona.CremonaMap.to_chart", "cremona.ChartDecomposition.from_fractions"]
        out = {
            "scalars.mul.calls": calls["scalars.Scalar.__mul__"] + calls["scalars.Scalar.__rmul__"],
            "scalars.add.calls": calls["scalars.Scalar.__add__"] + calls["scalars.Scalar.__radd__"],
            "scalars.inverse.calls": calls["scalars.Scalar.inverse"],
            "scalars.self_s": module_self("scalars."),
            "kernels.mul_terms.calls": calls["kernels.mul_terms"],
            "kernels.mul_terms.self_s": self_time["kernels.mul_terms"],
            "kernels.add_terms.self_s": self_time["kernels.add_terms"],
            "kernels.scale_terms.self_s": self_time["kernels.scale_terms"],
            "kernels.terms_out": self.counts["kernels.terms_out"],
            "poly.gcd.calls": calls["poly.poly_gcd"],
            "poly.gcd.total_s": total["poly.poly_gcd"],
            "poly.gcd.self_s": self_time["poly.poly_gcd"],
            "poly.gcd.nontrivial": self.counts["poly.gcd.nontrivial"],
            "poly.exact_div.calls": calls["poly.exact_div"],
            "poly.exact_div.self_s": self_time["poly.exact_div"],
            "poly.exact_div.max_coeff_bits": self.counts["poly.exact_div.max_coeff_bits"],
            "poly.mul.calls": calls["poly.Polynomial.__mul__"] + calls["poly.Polynomial.__rmul__"],
            "poly.mul.self_s": self_time["poly.Polynomial.__mul__"] + self_time["poly.Polynomial.__rmul__"],
            "poly.substitute.calls": calls["poly.Polynomial.substitute"],
            "poly.substitute.self_s": self_time["poly.Polynomial.substitute"],
            "poly.rational.calls": calls["poly.RationalFunction.__init__"],
            "poly.rational.self_s": self_time["poly.RationalFunction.__init__"],
            "poly.jacobian.self_s": self_time["poly.jacobian"],
            "poly.parse.self_s": self_time["poly.parse_poly"],
            "cremona.compose.calls": calls["cremona.CremonaMap.compose"],
            "cremona.compose.self_s": self_time["cremona.CremonaMap.compose"],
            "cremona.reduce.calls": calls["cremona.CremonaMap.__init__"],
            "cremona.reduce.self_s": self_time["cremona.CremonaMap.__init__"],
            "cremona.to_chart.calls": to_chart,
            "cremona.to_chart.hit_ratio": (to_chart - misses) / to_chart if to_chart else 0.0,
            "cremona.is_local_isomorphism.calls": calls["cremona.CremonaMap.is_local_isomorphism"],
            "cremona.is_local_isomorphism.self_s": self_time["cremona.CremonaMap.is_local_isomorphism"],
            "deformation.build_family.self_s": self_time["deformation.build_family"],
            "deformation.extendability.self_s": self_time["deformation.extendability"],
            "deformation.limit_vs_jacobian.self_s": self_time["deformation.limit_vs_jacobian"],
            "matrices.det.calls": calls["matrices.det"],
            "matrices.self_s": module_self("matrices."),
            "linear.self_s": module_self("linear."),
            "affine.self_s": module_self("affine."),
            "cocycles.self_s": module_self("cocycles."),
            "cli.main.self_s": self_time["cli.main"],
        }
        for suite in ("polynomials", "cremona", "deformation", "linear", "affineauto", "cocycles"):
            out[f"suites.{suite}.total_s"] = total[f"suites.run_suite[{suite}]"]
        return out

    def write(self, path):
        """Spans and per-name totals as one JSON document."""
        doc = {
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "totals": {
                k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_time[k]}
                for k in sorted(self.calls)
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
