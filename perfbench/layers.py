"""Per-layer self time and call counts, measured from outside the program.

The traced run installs a thin wrapper around every public method (plus
``__init__``) of each class a layer module defines, every public function
of that module, and ``builtins.__import__``.  Each wrapper counts its call
and charges its wall-clock *self* time -- its duration minus the time of
the wrapped calls nested inside it -- to its layer.  Time spent outside
every wrapper is the ``unattributed`` remainder, so the layers and the
remainder add up to the traced campaign time exactly.

Nothing under ``src/`` is edited: the wrappers are installed after import
and :meth:`LayerTracer.uninstall` puts every original object back.  What
the wrappers do not see is charged to the innermost wrapped caller:
private helpers, dunder methods other than ``__init__``, the body of a
generator (it runs when iterated, not when called), and callables the
program stored in a registry before the wrappers were installed.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import sys
import time
from enum import Enum
from typing import Callable, Dict, List, Tuple

#: Layer name -> the modules whose classes and functions it owns.  A name
#: ending in ``.`` owns every module below that package.  ``imports`` and
#: ``unattributed`` have no modules: the first wraps ``__import__`` (plus
#: interpreter start-up), the second is whatever no wrapper covered.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "imports": (),
    "cli": ("repro.cli",),
    "core.experiment": ("repro.core.experiment",),
    "core.parallel": ("repro.core.parallel",),
    "core.runner": ("repro.core.runner",),
    "core.stats": ("repro.core.stats",),
    "core.frame": ("repro.core.frame",),
    "workloads": ("repro.workloads.",),
    "fs.vfs": ("repro.fs.vfs",),
    "fs.base": (
        "repro.fs.base",
        "repro.fs.common",
        "repro.fs.ext2",
        "repro.fs.ext3",
        "repro.fs.ext4",
        "repro.fs.xfs",
    ),
    "fs.allocation": ("repro.fs.allocation",),
    "fs.journal": ("repro.fs.journal",),
    "storage.cache": ("repro.storage.cache",),
    "storage.readahead": ("repro.storage.readahead",),
    "storage.device": ("repro.storage.device",),
    "storage.disk": ("repro.storage.disk",),
    "storage.flash": ("repro.storage.flash",),
    "store": ("repro.store.",),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)
UNATTRIBUTED = "unattributed"

#: Modules the traced run imports before installing the wrappers, so that
#: every layer module is loaded (and wrapped) before the campaign starts.
EAGER_MODULES = (
    "repro.cli",
    "repro.workloads.registry",
    "repro.store.commands",
    "repro.store.reader",
    "repro.store.writer",
    "repro.storage.flash",
    "repro.storage.readahead",
)


def layer_of(module_name: str) -> str:
    """The layer owning ``module_name``, or ``""`` when no layer does."""
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if module_name == prefix or (
                prefix.endswith(".") and module_name.startswith(prefix)
            ):
                return layer
    return ""


class LayerTracer:
    """Counts calls and accumulates self time per layer while installed."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: One child-time accumulator per open span, innermost last.
        self._open: List[float] = []
        #: ``(owner, attribute, original)`` for every patched attribute.
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping
    def _wrap(self, function: Callable, layer: str) -> Callable:
        calls, self_s, open_spans, clock = self.calls, self.self_s, self._open, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            calls[layer] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attribute in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(attribute, staticmethod):
                wrapped = staticmethod(self._wrap(attribute.__func__, layer))
            elif isinstance(attribute, classmethod):
                wrapped = classmethod(self._wrap(attribute.__func__, layer))
            elif isinstance(attribute, property) and attribute.fget is not None:
                wrapped = property(
                    self._wrap(attribute.fget, layer),
                    attribute.fset,
                    attribute.fdel,
                    attribute.__doc__,
                )
            elif inspect.isfunction(attribute):
                wrapped = self._wrap(attribute, layer)
            else:
                continue
            self._patch(cls, name, wrapped)

    def install(self) -> None:
        """Wrap every layer's classes and functions, and ``__import__``."""
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        wrappers: Dict[int, Callable] = {}
        classes = set()
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of(module_name)
            if not layer or module is None:
                continue
            for name, value in sorted(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if inspect.isclass(value):
                    if id(value) not in classes and not issubclass(
                        value, (Enum, BaseException)
                    ):
                        classes.add(id(value))
                        self._wrap_class(value, layer)
                elif inspect.isfunction(value) and not name.startswith("_"):
                    wrappers[id(value)] = self._wrap(value, layer)
        # A function imported by name into another module is bound there
        # too; rebind it everywhere in the package so no caller bypasses it.
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, name, wrappers[id(value)])
        self._patch(builtins, "__import__", self._wrap(builtins.__import__, "imports"))

    def charge(self, layer: str, seconds: float) -> None:
        """Charge time no wrapper could see (interpreter start-up) to a layer."""
        self.self_s[layer] += seconds

    def uninstall(self) -> int:
        """Put back every original object; returns how many were patched.

        Raises ``RuntimeError`` if any attribute does not read back as its
        original afterwards, so a traced run can never leak a wrapper into
        whatever runs after it.
        """
        patches, self._patches = self._patches, []
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        leaked = [
            name
            for owner, name, original in patches
            if vars(owner).get(name) is not original
        ]
        if leaked:
            raise RuntimeError(f"layer wrappers not removed: {sorted(set(leaked))}")
        return len(patches)
