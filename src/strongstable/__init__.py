"""Strong stable sets in claw-free graphs.

A stable set is *strong* when it meets every maximal clique. This package
detects the five forbidden families whose absence characterizes the
claw-free graphs in which strong stable sets always exist (odd holes, long
antiholes, odd prisms, handcuffs, eye masks), finds the decompositions the
characterization routes through (clique cutsets, 1-joins, W-joins, line
graphs of bipartite multigraphs and their smooth augmentations), and
computes strong stable sets constructively, with a brute-force oracle for
verification.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a caller pays
only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys((
        "Budget", "BudgetExceededError", "DEFAULT_BUDGET", "Graph", "GraphError",
        "Multigraph", "anticomponents", "complement", "components", "from_edge_list",
        "induced", "induced_paths_between", "is_strong_stable_set", "line_graph",
        "maximal_cliques",
    ), "core"),
    **dict.fromkeys((
        "ForbiddenKind", "ForbiddenWitness", "Innocent", "find_structure",
        "innocence_certificate", "verify_witness",
    ), "forbidden"),
    **dict.fromkeys((
        "find_claw", "find_clowns", "is_consistent_set", "is_safe_vertex",
        "simplicial_vertices",
    ), "recognizers"),
    **dict.fromkeys(("SolveResult", "SolveStatus", "brute_force", "solve"), "solver"),
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
