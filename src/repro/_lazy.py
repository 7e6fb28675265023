"""Lazy re-exports for package facades (PEP 562 module ``__getattr__``).

A facade that re-exports its submodules' public names eagerly makes every
``import repro.<anything>`` pay for the whole package: the campaign
executor, the sqlite store and their stdlib dependencies load even when
the caller only needs a spec or an estimator.  A facade built with
:func:`lazy_exports` instead imports a name's defining module on the
first attribute access, then caches the object in the package namespace,
so later accesses are plain dictionary lookups.  ``__all__``, ``dir()``,
``from pkg import *`` and object identity behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Build a package's module-level ``__getattr__`` and ``__dir__``.

    Args:
        package: The facade's module name (its ``__name__``).
        exports: Defining module name -> the names the facade re-exports
            from it.

    Returns:
        The ``(__getattr__, __dir__)`` pair to bind at the facade's module
        level.
    """
    origin: Dict[str, str] = {name: module for module, names in exports.items()
                              for name in names}

    def __getattr__(name: str) -> object:
        """Import ``name``'s defining module and cache the object.

        Raises:
            AttributeError: If the facade does not export ``name``.
        """
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        """List the facade's loaded attributes and every lazy export."""
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
