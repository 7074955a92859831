"""Dynamic filter loading (the paper's ``dlopen``/``dlsym`` path).

MRNet loads user filter functions from shared-object files "using the
operating system's API for managing shared objects (e.g., dlopen and
dlsym on UNIX systems)" (§2.4).  The Python equivalent is importing a
module from an arbitrary file path with :mod:`importlib` and fetching
the named function from it.

Loaded modules are cached by absolute path so that repeated
``load_filter_func`` calls (front-end plus every internal process in
real MRNet) execute the module once, as ``dlopen`` would.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict

from .base import FilterError

__all__ = ["forget_modules", "load_module", "load_function"]

_module_cache: Dict[str, ModuleType] = {}


def _dotted_name_for(path: Path) -> str | None:
    """Dotted module name when *path* sits inside a package tree.

    Files that belong to an importable package (every ancestor up to
    the package root has ``__init__.py``) must be imported by name so
    their relative imports work — e.g. passing
    ``repro/paradyn/eqclass.py`` as a filter "shared object" resolves
    to ``repro.paradyn.eqclass``.
    """
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) == 1:
        return None
    return ".".join(reversed(parts))


def load_module(module_path: str | Path) -> ModuleType:
    """Import a Python file as a module, caching by absolute path."""
    path = Path(module_path).resolve()
    key = str(path)
    if key in _module_cache:
        return _module_cache[key]
    if not path.exists():
        raise FilterError(f"filter module not found: {path}")
    dotted = _dotted_name_for(path)
    if dotted is not None:
        try:
            module = importlib.import_module(dotted)
        except ImportError as exc:
            raise FilterError(
                f"error importing filter module {dotted!r} ({path}): {exc}"
            ) from exc
        _module_cache[key] = module
        return module
    spec = importlib.util.spec_from_file_location(
        f"repro_filter_{path.stem}_{abs(hash(key)) & 0xFFFFFF:x}", path
    )
    if spec is None or spec.loader is None:
        raise FilterError(f"cannot load filter module: {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        sys.modules.pop(spec.name, None)
        raise FilterError(f"error executing filter module {path}: {exc}") from exc
    _module_cache[key] = module
    return module


def forget_modules() -> None:
    """Drop every module loaded so far, so the next load executes it
    again — in a forked process, as in one started from scratch."""
    for module in _module_cache.values():
        sys.modules.pop(module.__name__, None)
    _module_cache.clear()


def load_function(module_path: str | Path, func_name: str) -> Callable:
    """Load ``func_name`` from the module at ``module_path``."""
    module = load_module(module_path)
    try:
        func = getattr(module, func_name)
    except AttributeError:
        raise FilterError(
            f"filter function {func_name!r} not found in {module_path}"
        ) from None
    if not callable(func):
        raise FilterError(f"{func_name!r} in {module_path} is not callable")
    return func
