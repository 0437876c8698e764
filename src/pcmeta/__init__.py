"""pcmeta: partial-conjunction p-values and replicability analysis.

Combine per-study p-values into valid tests of "at least r of n studies
are non-null", build confidence sets for the number of non-null
studies, and verify any combining rule with the shipped Monte Carlo
oracles.

Each module's ``__all__`` is the one list of its public names; the
package exports their concatenation.  Importing the package runs none
of its modules: the first read of a public name or of ``__all__``
imports the seven library modules and binds their names here; reading
a submodule (``pcmeta.io``, ``pcmeta.cli``, ...) imports only that one.
"""

import importlib
import os

# The modules whose public names the package exports, in ``__all__`` order.
_MODULES = ("combiners", "counterexample", "errors", "numerics", "oracle",
            "partial_conjunction", "simulation")

__version__ = "0.1.0"


def _listed(module: str) -> list[str]:
    """The names ``module`` lists in ``__all__``, read from its source, not run."""
    with open(os.path.join(os.path.dirname(__file__), f"{module}.py"), encoding="utf-8") as fh:
        return fh.read().partition("__all__ = [")[2].partition("]")[0].split('"')[1::2]


def __getattr__(name: str):
    if name in (*_MODULES, "io", "cli"):
        return importlib.import_module(f"{__name__}.{name}")
    if name != "__all__" and ("__all__" in globals() or name.startswith("_")
                              or not any(name in _listed(m) for m in _MODULES)):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    exported = {n: getattr(m, n) for m in modules for n in m.__all__}
    globals().update(exported, __all__=list(exported))
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *(globals().get("__all__") or __getattr__("__all__"))})
