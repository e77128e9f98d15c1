"""Per-layer tracing from outside the program.

`Tracer` replaces each traced function by a wrapper at every kgraphs module
(or class) that binds it, since `checks` and `cli` import most names directly.
A wrapper counts calls and accumulates self time: its own duration minus the
time spent in traced functions it called.  Aggregates stay in memory until
the run ends; `restore` puts every original back.
"""

from __future__ import annotations

import sys
import time

#: (module, attribute path) of every function timed; the metric names are
#: `<module>.<path>.calls` and `<module>.<path>.self_s`.
TIMED = (
    ("core", "make_morphism"),
    ("core", "compose"),
    ("core", "factorize"),
    ("core", "subblock"),
    ("core", "count_morphisms"),
    ("core", "enumerate_morphisms"),
    ("core", "sample_morphism"),
    ("core", "validate_skeleton"),
    ("core", "opposite_morphism"),
    ("spectral", "vertex_matrix"),
    ("spectral", "classify_connectivity"),
    ("spectral", "perron_data"),
    ("spectral", "af_multiplicities"),
    ("spectral", "aperiodicity_probe"),
    ("measure", "parry_measure"),
    ("measure", "conditional_measure"),
    ("measure", "fiber_measure"),
    ("measure", "haar_weight"),
    ("measure", "trace_eval"),
    ("dynamics", "Window.extract"),
    ("dynamics", "shift"),
    ("dynamics", "restrict"),
    ("dynamics", "bracket"),
    ("dynamics", "distance"),
    ("dynamics", "all_windows"),
    ("dynamics", "sample_window"),
    ("dynamics", "mixing_lag"),
    ("dynamics", "local_product_enum"),
    ("relations", "stable_equiv"),
    ("relations", "unstable_equiv"),
    ("relations", "asymptotic_equiv"),
    ("relations", "window_op"),
    ("relations", "semidirect_compose"),
    ("cli", "parse_document"),
    ("cli", "Report.render"),
    ("cli", "run"),
)

#: Too small to time: only its calls are counted.
COUNTED = (("degrees", "as_degree"),)

#: Report names of the battery checks, in `checks.ALL_CHECKS` order.
CHECK_NAMES = (
    "factorization-uniqueness",
    "associativity",
    "normal-form-confluence",
    "opposite-involution",
    "semigroup-law",
    "generator-commutation",
    "eigen-equations",
    "perron-positivity",
    "af-consistency",
    "measure-total-mass",
    "measure-expansion",
    "measure-product-decomposition",
    "measure-haar-scaling",
    "measure-trace-scaling",
    "measure-disintegration",
    "window-consistency",
    "shift-semigroup",
    "expansiveness",
    "contraction-on-fibers",
    "bracket-axioms",
    "bracket-uniqueness",
    "mixing-lag",
    "stable-nesting",
    "relation-shift-conjugation",
    "relation-fibered-product",
    "asymptotic-meet",
    "relation-opposite-swap",
    "semidirect-laws",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, path in TIMED:
        out += [(f"{mod}.{path}.calls", "count"), (f"{mod}.{path}.self_s", "s")]
    out += [("core.memo_entries", "count")]
    out += [(f"{mod}.{path}.calls", "count") for mod, path in COUNTED]
    out += [(f"checks.{name}.s", "s") for name in CHECK_NAMES]
    return out


def memo_entries(sk, seen: set[int]) -> int:
    """Entries in a skeleton's memo tables, following skeletons stored there
    (the cached opposite graph).  0 when the skeleton keeps no memo."""
    if id(sk) in seen:
        return 0
    seen.add(id(sk))
    memo = vars(sk).get("_memo")  # read without creating it
    if not isinstance(memo, dict):
        return 0
    total = 0
    for table in memo.values():
        total += len(table)
        for value in table.values():
            if type(value) is type(sk):
                total += memo_entries(value, seen)
    return total


class Tracer:
    def __init__(self) -> None:
        import kgraphs.checks
        import kgraphs.cli  # noqa: F401  (loads every module that binds a name)

        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.check_s: dict[str, float] = {}
        self.memo = 0
        #: per-layer values of each finished round
        self.rounds: list[dict[str, float]] = []
        self._stack: list[float] = []
        self._skeletons: list = []
        self._saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "kgraphs"]
        for mod, path in TIMED:
            self._install(modules, f"kgraphs.{mod}", path, self._timed(f"{mod}.{path}"))
        for mod, path in COUNTED:
            self._install(modules, f"kgraphs.{mod}", path, self._counted(f"{mod}.{path}"))
        checks = kgraphs.checks
        self._saved.append((checks, "ALL_CHECKS", checks.ALL_CHECKS))
        checks.ALL_CHECKS = tuple(self._check(fn) for fn in checks.ALL_CHECKS)

    # -- installing and restoring ------------------------------------------

    def _install(self, modules, modname: str, path: str, make) -> None:
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(original)
        if outer:  # a method: the class is the only binding
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[key] = 0
        self_s[key] = 0.0
        clock = time.perf_counter
        # every skeleton a workload builds comes out of parse_document
        skeletons = self._skeletons if key == "cli.parse_document" else None

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    calls[key] += 1
                    self_s[key] += elapsed - child
                if skeletons is not None:
                    skeletons.append(out[0])
                return out

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _counted(self, key: str):
        calls = self.calls
        calls[key] = 0

        def make(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _check(self, fn):
        """Inclusive time of one battery check, under its report name."""
        check_s, stack, clock = self.check_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            name = fn.__name__
            try:
                result = fn(*args, **kwargs)
                name = result.name
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1] += elapsed
                check_s[name] = check_s.get(name, 0.0) + elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- reading -------------------------------------------------------------

    def end_round(self) -> None:
        """Count the memo entries left on the skeletons parsed in the round,
        then let the skeletons go.  Holding them until here keeps the
        session's skeletons countable after the session drops them."""
        seen: set[int] = set()
        self.memo += sum(memo_entries(sk, seen) for sk in self._skeletons)
        self._skeletons.clear()

    def take(self) -> dict[str, float]:
        """The per-layer values gathered since the last call, then reset."""
        out: dict[str, float] = {}
        for mod, path in TIMED:
            key = f"{mod}.{path}"
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
            self.calls[key], self.self_s[key] = 0, 0.0
        out["core.memo_entries"] = self.memo
        self.memo = 0
        for mod, path in COUNTED:
            key = f"{mod}.{path}"
            out[f"{key}.calls"] = self.calls[key]
            self.calls[key] = 0
        for name in CHECK_NAMES:
            out[f"checks.{name}.s"] = self.check_s.pop(name, 0.0)
        return out
