"""Nonasymptotic risk bounds for least-squares regression.

Finite-sample confidence intervals for the excess risk of empirical risk
minimizers: empirical Rademacher-complexity intervals, covering-number and
entropy estimates, VC-type bounds with explicit optimized constants, and
corrections for beta-mixing data, together with simulation tooling that
checks the advertised coverage on synthetic models.

Each library module's ``__all__`` decides what it exports; the package
re-exports exactly those names, module by module, on first use (PEP 562):
the first lookup of any of them, ``__all__`` included, imports the modules.
"""

__version__ = "0.1.0"

_MODULES = ("hypothesis", "rademacher", "covering", "bounds_rademacher", "bounds_vc", "mixing",
            "simulate")


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):  # a submodule alone, as an import statement would
        __import__(f"{__name__}.{name}")  # sets the attribute
        return globals()[name]
    names = globals()
    if name == "__all__" or not name.startswith("_"):
        for module in map(__getattr__, _MODULES):
            names.update((export, getattr(module, export)) for export in module.__all__)
        names["__all__"] = [e for m in _MODULES for e in names[m].__all__] + ["__version__"]
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]


def __dir__():
    __getattr__("__all__")
    return sorted(name for name in globals() if name not in ("__getattr__", "__dir__")
                  and (name.endswith("__") or not name.startswith("_")))
