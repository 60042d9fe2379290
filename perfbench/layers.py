"""Per-layer tracing from outside the program.

Each traced function is replaced, in every ``strongstable`` module that
holds it by name, with a wrapper that counts calls and keeps the self time:
the wall time of the call minus the time spent in traced calls it made.
Generator functions are timed on every resume, so the work is charged to
whoever consumes the items. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

# <module>.<function>, in the package's own module names
TRACED = (
    "core.is_strong_stable_set",
    "core.iter_maximal_cliques",
    "core.induced",
    "core.delete_vertices",
    "core.induced_cycles",
    "core.complement",
    "recognizers.linear_interval_order",
    "recognizers.find_twins",
    "recognizers.simplicial_vertices",
    "recognizers.cobipartite_partition",
    "recognizers.peculiar_structure",
    "recognizers.is_safe_vertex",
    "recognizers.is_consistent_set",
    "recognizers.find_claw",
    "solver.validate_prescribed",
    "solver.brute_force",
    "solver.solve",
    "decompose.grow_square_connected_pair",
    "decompose.find_one_join",
    "linegraph.recover_root",
    "linegraph.suitable_matching",
    "linegraph.detect_smooth_augmentation",
    "forbidden.find_structure",
    "graphio.parse_graph",
    "graphio.certificate_json",
    "cli.main",
)

KINDS = ("odd-hole", "long-antihole", "odd-prism", "eye-mask", "handcuff")

BRANCHES = (
    "complete", "components", "twins", "simplicial", "cobipartite",
    "linear-interval", "w-join", "one-join", "line-graph", "augmentation",
    "peculiar", "brute-force",
)


def span_names() -> list[str]:
    """Every span the tracer reports, find_structure split by kind."""
    names = [t for t in TRACED if t != "forbidden.find_structure"]
    return names + [f"forbidden.find_structure.{k}" for k in KINDS]


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self._child_ns: list[int] = []  # one accumulator per open span
        self._patches: list[tuple[object, str, object, object]] = []

    def _enter(self, name: str) -> int:
        self.calls[name] += 1
        return self._resume()

    def _resume(self) -> int:
        self._child_ns.append(0)
        return perf_counter_ns()

    def _leave(self, name: str, t0: int) -> None:
        dt = perf_counter_ns() - t0
        self.self_ns[name] += dt - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += dt

    def wrap(self, fn, name_of):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                name = name_of(args, kwargs)
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = tracer._resume()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._leave(name, t0)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            t0 = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name, t0)

        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever the package binds it.

        The first call builds the wrappers; later calls put them back after
        ``uninstall``.
        """
        if self._patches:
            for m, attr, _, wrapper in self._patches:
                setattr(m, attr, wrapper)
            return
        import strongstable.cli  # noqa: F401  (loads every module)
        from strongstable.forbidden import ForbiddenKind

        def kind_of(args, kwargs):
            kind = args[1] if len(args) > 1 else kwargs["kind"]
            return f"forbidden.find_structure.{ForbiddenKind(kind).value}"

        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "strongstable" or name.startswith("strongstable."))
        ]
        for target in TRACED:
            mod_name, fn_name = target.rsplit(".", 1)
            # a function the program no longer has reports 0 calls
            original = getattr(sys.modules.get(f"strongstable.{mod_name}"), fn_name, None)
            if original is None:
                continue
            name_of = kind_of if target == "forbidden.find_structure" else (
                lambda args, kwargs, t=target: t
            )
            wrapper = self.wrap(original, name_of)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original function back."""
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)
