"""Per-layer spans and counts for fockalg, taken from outside the package.

While a Tracer is installed it rebinds names in the fockalg modules (module
functions, class methods and the TruncOp.matrix property) to wrappers that
count calls and time them; ``uninstall`` puts every original back.  Nothing
under src/ is edited.  A name that no longer exists is skipped and its
metrics are reported as absent (None), so a rename does not stop the run.

Times are self times: a span's duration minus the time of wrapped calls it
made.  The hottest tiny calls (Word and FockVector construction, basis index
lookups) are counted but not timed, to keep the tracing overhead small.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

EXPERIMENT_NAMES = (
    "adjoint-decay", "codim-counts", "factor-generator", "thin-isometry",
    "ideal-counterexample", "membership-witness", "eigenvector", "cesaro",
    "flip-examples", "ball-search",
)

# exp_ball_search's default res_tol: a candidate this close is a near factorization
NEAR_RESIDUAL = 1e-6

LAYERS = ("words", "fock", "operators", "hardy", "calculus", "experiments")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("words.word_new", "count"),
    ("words.index_of.calls", "count"),
    ("words.word_at.calls", "count"),
    ("fock.vector_new", "count"),
    ("fock.inner.calls", "count"),
    ("fock.inner.s", "s"),
    ("operators.materialize.calls", "count"),
    ("operators.materialize.basis", "count"),
    ("operators.materialize.s", "s"),
    ("operators.op_norm.dense.calls", "count"),
    ("operators.op_norm.dense.s", "s"),
    ("operators.op_norm.sparse.calls", "count"),
    ("operators.op_norm.sparse.s", "s"),
    ("operators.commutant_residual.s", "s"),
    ("operators.series_mul.pairs", "count"),
    ("operators.series_mul.s", "s"),
    ("operators.apply.s", "s"),
    ("operators.apply_adjoint.s", "s"),
    ("hardy.reciprocal.s", "s"),
    ("hardy.partial_sum_sup.s", "s"),
    ("hardy.partial_sum_sup.terms", "count"),
    ("calculus.search.s", "s"),
    ("calculus.als_sweeps", "count"),
    ("calculus.restarts", "count"),
    ("calculus.near_ratio", "ratio"),
    ("calculus.sweep_ms", "ms"),
    ("calculus.apply_series.s", "s"),
    ("calculus.h2_times_isometry.s", "s"),
    ("calculus.verify_factorization.s", "s"),
    ("calculus.contraction_unchecked", "count"),
] + [(f"experiments.{name}.s", "s") for name in EXPERIMENT_NAMES] + [
    ("trace_overhead", "ratio"),
]


def _basis_size(n: int, N: int) -> int:
    return N + 1 if n == 1 else (n ** (N + 1) - 1) // (n - 1)


class Tracer:
    """Counts and self times of wrapped fockalg calls, one task list at a time."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack = [0.0]  # time spent in wrapped children, per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: Callable[[dict], str] | str, fn: Callable,
              after: Optional[Callable[[object, dict], None]] = None) -> Callable:
        """Time ``fn`` as a span.

        ``name`` is a metric name, or a function of the call's bound
        arguments that returns one; ``after(result, arguments)`` runs when
        the call returns.
        """
        values, stack = self.values, self._stack
        signature = inspect.signature(fn) if callable(name) or after is not None else None

        def wrapper(*args, **kwargs):
            params = signature.bind(*args, **kwargs).arguments if signature else None
            key = name(params) if callable(name) else name
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                values[key] += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(result, params)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        values = self.values

        def wrapper(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr: str, make: Callable, metrics: list[str]) -> None:
        orig = vars(cls).get(attr) if cls is not None else None
        if orig is None:
            self.absent.update(metrics)
            return
        self._set(cls, attr, make(orig))

    def _wrap_function(self, module_name: str, attr: str, make: Callable[[Callable, str], Callable],
                       metrics: list[str]) -> None:
        """Rebind every fockalg module name bound to the function ``module.attr``.

        ``make(orig, binder)`` builds the wrapper for the binding in module
        ``binder``, so a call can be attributed to the module it came from.
        """
        home = sys.modules.get(f"fockalg.{module_name}")
        orig = getattr(home, attr, None)
        if orig is None:
            self.absent.update(metrics)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fockalg" and not mod_name.startswith("fockalg."):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, make(orig, mod_name))

    def install(self) -> "Tracer":
        words = sys.modules["fockalg.words"]
        fock = sys.modules["fockalg.fock"]
        ops = sys.modules["fockalg.operators"]
        exps = sys.modules["fockalg.experiments"]
        span, count = self._span, self._counter

        # words
        word_cls = getattr(words, "Word", None)
        self._wrap_method(word_cls, "__post_init__", lambda f: count("words.word_new", f),
                          ["words.word_new"])
        indexer = getattr(words, "BasisIndexer", None)
        for attr in ("index_of", "word_at"):
            metric = f"words.{attr}.calls"
            self._wrap_method(indexer, attr, lambda f, m=metric: count(m, f), [metric])

        # fock
        self._wrap_method(getattr(fock, "FockVector", None), "__post_init__",
                          lambda f: count("fock.vector_new", f), ["fock.vector_new"])
        self._wrap_function("fock", "inner",
                            lambda f, _: count("fock.inner.calls", span("fock.inner.s", f)),
                            ["fock.inner.calls", "fock.inner.s"])

        # operators, matrix path
        truncop = getattr(ops, "TruncOp", None)
        prop = vars(truncop).get("matrix") if truncop is not None else None
        if isinstance(prop, property):
            def on_materialize(m, params):
                self._add("operators.materialize.calls", 1)
                self._add("operators.materialize.basis", m.shape[0])

            first = span("operators.materialize.s", prop.fget, on_materialize)
            fget = prop.fget

            def matrix(op):
                return first(op) if getattr(op, "_matrix", None) is None else fget(op)

            self._set(truncop, "matrix", property(matrix, doc=prop.__doc__))
        else:
            self.absent.update(["operators.materialize.calls", "operators.materialize.basis",
                                "operators.materialize.s"])

        cap = getattr(ops, "DENSE_CAP", None)
        norm_metrics = [f"operators.op_norm.{arm}.{k}" for arm in ("dense", "sparse")
                        for k in ("calls", "s")]
        if cap is None:
            self.absent.update(norm_metrics + ["calculus.contraction_unchecked"])
        else:
            def arm(params):
                X = next(iter(params.values()))
                return "dense" if _basis_size(X.n, X.N) <= cap else "sparse"

            def wrap_norm(f, binder):
                timed = span(lambda p: f"operators.op_norm.{arm(p)}.s", f,
                             lambda r, p: self._add(f"operators.op_norm.{arm(p)}.calls", 1))
                if binder != "fockalg.calculus":
                    return timed
                cap_error = getattr(words, "BasisCapExceeded", RuntimeError)

                def from_calculus(*args, **kwargs):
                    try:
                        return timed(*args, **kwargs)
                    except cap_error:
                        self._add("calculus.contraction_unchecked", 1)
                        raise

                return from_calculus

            self._wrap_function("operators", "op_norm", wrap_norm, norm_metrics)
        self._wrap_function("operators", "commutant_residual",
                            lambda f, _: span("operators.commutant_residual.s", f),
                            ["operators.commutant_residual.s"])

        # operators, symbol path
        def on_mul(r, params):
            a, b = list(params.values())[:2]
            self._add("operators.series_mul.pairs", len(a.coeffs) * len(b.coeffs))

        self._wrap_method(getattr(ops, "FreeSeries", None), "mul",
                          lambda f: span("operators.series_mul.s", f, on_mul),
                          ["operators.series_mul.pairs", "operators.series_mul.s"])
        for attr in ("apply", "apply_adjoint"):
            metric = f"operators.{attr}.s"
            self._wrap_method(truncop, attr, lambda f, m=metric: span(m, f), [metric])

        # hardy
        self._wrap_function("hardy", "reciprocal", lambda f, _: span("hardy.reciprocal.s", f),
                            ["hardy.reciprocal.s"])

        def on_sup(r, params):
            self._add("hardy.partial_sum_sup.terms", params["m"] * params["grid"])

        self._wrap_function("hardy", "partial_sum_sup",
                            lambda f, _: span("hardy.partial_sum_sup.s", f, on_sup),
                            ["hardy.partial_sum_sup.s", "hardy.partial_sum_sup.terms"])

        # calculus
        def on_search(cands, params):
            self._add("calculus.restarts", len(cands))
            self._add("calculus.als_sweeps", sum(c.iterations for c in cands))
            self._add("calculus.near", sum(c.residual <= NEAR_RESIDUAL for c in cands))

        self._wrap_function("calculus", "search_ball_factorizations",
                            lambda f, _: span("calculus.search.s", f, on_search),
                            ["calculus.search.s", "calculus.als_sweeps", "calculus.restarts",
                             "calculus.near_ratio", "calculus.sweep_ms"])
        for attr in ("apply_series", "h2_times_isometry", "verify_factorization"):
            metric = f"calculus.{attr}.s"
            self._wrap_function("calculus", attr, lambda f, _, m=metric: span(m, f), [metric])

        # experiments: run_all looks the exp_* functions up in the module globals
        for name in EXPERIMENT_NAMES:
            metric = f"experiments.{name}.s"
            attr = "exp_" + name.replace("-", "_")
            if getattr(exps, attr, None) is None:
                self.absent.add(metric)
            else:
                self._set(exps, attr, span(metric, getattr(exps, attr)))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, Optional[float]]:
        """Every per-layer metric except trace_overhead; None marks absent."""
        v = self.values
        out: dict[str, Optional[float]] = {}
        for name, _ in PER_LAYER:
            if name != "trace_overhead":
                out[name] = None if name in self.absent else float(v.get(name, 0.0))
        restarts, sweeps = v.get("calculus.restarts", 0), v.get("calculus.als_sweeps", 0)
        if "calculus.near_ratio" not in self.absent:
            out["calculus.near_ratio"] = v.get("calculus.near", 0) / restarts if restarts else 0.0
            out["calculus.sweep_ms"] = 1e3 * v["calculus.search.s"] / sweeps if sweeps else 0.0
        return out


def layer_self_times(metrics: dict[str, Optional[float]]) -> dict[str, float]:
    """Sum of the timed spans' self times, per layer."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, unit in PER_LAYER:
        layer = name.split(".", 1)[0]
        if unit == "s" and layer in shares and metrics.get(name) is not None:
            shares[layer] += metrics[name]
    return shares
