"""Import-on-use package namespaces (PEP 562).

A package whose ``__init__`` imports its whole public surface makes
every importer pay for every submodule.  :func:`lazy_names` builds the
module ``__getattr__`` and ``__dir__`` that import each public name
from its home module the first time it is read instead::

    __getattr__, __dir__, __all__ = lazy_names(globals(), {
        "repro.pipeline": ("PipelineConfig", "branch_cost"),
    })

A resolved name is stored in the package's globals, so later reads are
plain attribute lookups and never reach the hook again.
"""

from importlib import import_module


def lazy_names(namespace, homes):
    """The ``(__getattr__, __dir__, __all__)`` of a package namespace;
    ``__all__`` lists the public names in the order ``homes`` gives.

    Args:
        namespace: the package's ``globals()``.
        homes: home module -> the public names imported from it.
    """
    home_of = {name: module for module, names in homes.items()
               for name in names}

    def __getattr__(name):
        module = home_of.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (namespace["__name__"], name))
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__, list(home_of)
