"""Span tracing of fastslow's layers, installed from outside the package.

``Tracer.install`` replaces each public function of interest with a
wrapper in every ``fastslow`` module that holds it by name (for example
``semantics.build_lts`` and ``equivalence.build_lts``), and wraps the
public ``WeakViews`` methods on the class itself.  ``uninstall`` puts the
originals back, so untraced jobs run the program unchanged.

Spans are aggregated in memory per name: calls and self time (span
time minus the time of child spans).  Counters are taken at the same
boundaries from arguments and results.  With ``memory=True`` the tracer
records only the ``tracemalloc`` peak of every top-level span, meaning a
direct child of the root span around ``cli.main``; that pass is separate
because ``tracemalloc`` slows allocation-heavy code unevenly, and it skips
the ``WeakViews`` and ``rational`` wrappers, which are never top-level.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# span name -> (module, public functions).  Every alias of these function
# objects in any fastslow module is wrapped.
FUNCTION_SPANS = {
    "parser": ("fastslow.parser", ("parse_model", "parse_config")),
    "model.compose": ("fastslow.model", ("compose",)),
    "semantics.build_lts": ("fastslow.semantics", ("build_lts",)),
    "semantics.export": ("fastslow.semantics", ("lts_to_dict", "lts_to_dot")),
    "equivalence.largest": ("fastslow.equivalence", ("largest_fast_slow", "largest_slow")),
    "equivalence.check": (
        "fastslow.equivalence",
        ("check_fast_slow_relation", "check_slow_relation"),
    ),
    "equivalence.congruence": ("fastslow.equivalence", ("congruence_probe",)),
    "classification.classify": ("fastslow.classification", ("classify",)),
    "classification.transform": ("fastslow.classification", ("transform_lts",)),
    "classification.shortcut": ("fastslow.classification", ("shortcut_check",)),
    "rational": (
        "fastslow.rational",
        (
            "rref",
            "rank",
            "in_span",
            "nullspace",
            "left_nullspace",
            "integer_scaled",
            "rref_int_basis",
            "dot",
            "minimal_semiflows",
        ),
    ),
}

WEAK_VIEW_SPAN = "semantics.weak_views"
WEAK_VIEW_QUERIES = (
    "fast_steps",
    "fast_step_actions",
    "fast_closure",
    "slow_strong",
    "weak_slow_moves",
    "weak_slow_targets",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.memory = False
        self._stack: list[list[float]] = []
        self._largest_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # installation -----------------------------------------------------------

    def install(self, memory: bool = False) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.memory = memory
        modules = [m for name, m in sys.modules.items() if name == "fastslow" or name.startswith("fastslow.")]
        for span, (module_name, names) in FUNCTION_SPANS.items():
            if memory and span == "rational":
                continue
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        if memory:
            return
        views = sys.modules["fastslow.semantics"].WeakViews
        self._patch(views, "__init__", self._wrap(WEAK_VIEW_SPAN, views.__init__))
        for name in WEAK_VIEW_QUERIES:
            self._patch(views, name, self._wrap_query(name, getattr(views, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # spans ------------------------------------------------------------------

    def root(self, name: str, fn, *args):
        """Run ``fn`` as the root span of one job."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        return self._span(name, fn, args, {})

    def _span(self, name: str, fn, args, kwargs):
        stack = self._stack
        top_level = self.memory and len(stack) == 1
        if top_level:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            if not self.memory:
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[0]
            elif top_level:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[name] = max(self.peak_mb[name], peak)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "equivalence.largest":
                self._largest_depth += 1
            try:
                result = self._span(name, fn, args, kwargs)
            finally:
                if name == "equivalence.largest":
                    self._largest_depth -= 1
            if observe is not None and not self.memory:
                observe(self.counts, args, result)
            return result

        return wrapper

    def _wrap_query(self, method: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            result = self._span(WEAK_VIEW_SPAN, fn, args, {})
            if self.memory:
                return result
            counts["semantics.weak_views.queries"] += 1
            if self._largest_depth:
                counts["equivalence.largest_queries"] += 1
            if method == "fast_closure":
                counts["semantics.weak_views.closure_states"] += len(result)
            return result

        return wrapper


def _observe_parser(counts, args, result) -> None:
    counts["parser.bytes"] += len(args[0].encode())


def _observe_build(counts, args, lts) -> None:
    counts["semantics.states"] += lts.n_states
    counts["semantics.transitions"] += lts.n_transitions


def _observe_largest(counts, args, result) -> None:
    a, b = args[0], args[1]
    counts["equivalence.cross_pairs"] += a.n_states * b.n_states
    counts["equivalence.relation_pairs"] += len(result[0])


def _observe_classify(counts, args, result) -> None:
    counts["classification.species"] += len(result.species)


_OBSERVERS = {
    "parser": _observe_parser,
    "semantics.build_lts": _observe_build,
    "equivalence.largest": _observe_largest,
    "classification.classify": _observe_classify,
}
