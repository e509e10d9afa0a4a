"""Pluggable scheme and method registries backing :mod:`repro.api`.

Two registries replace the hand-rolled dispatch that used to live in
``quant.schemes`` (the ``levels_for`` enum switch), ``quant.quantizers``
(the ``mode="paper"`` switch) and ``quant.baselines`` (a name-to-class
dict):

- **schemes** — weight number systems (``fixed``, ``p2``, ``sp2``, ``msq``).
  Each :class:`SchemeEntry` carries the unit-level-set function, the
  quantizer factory the pipeline builds projections with, and (optionally)
  the paper's closed-form projection. The pieces are registered from the
  modules that own them: level sets from :mod:`repro.quant.schemes`,
  factories and paper projections from :mod:`repro.quant.quantizers` /
  :mod:`repro.quant.msq`.
- **methods** — trainable quantization methods: the published baselines of
  Tables III-VI (DoReFa, PACT, ..., EQM), registered by their modules under
  :mod:`repro.quant.baselines` via ``@register_method``.

This module is a dependency leaf (stdlib + :mod:`repro.errors` only) so any
layer may import it without cycles; lookups lazily import the registering
modules, so ``list_schemes()`` works from a cold interpreter.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

# Modules that register entries as an import side effect. Lookups import
# them on first use so the registries are complete regardless of what the
# caller happened to import first.
_SCHEME_MODULES = (
    "repro.quant.schemes",
    "repro.quant.quantizers",
    "repro.quant.msq",
)
_METHOD_MODULES = ("repro.quant.baselines",)


def _autoload(modules: Tuple[str, ...]) -> None:
    for name in modules:
        importlib.import_module(name)


# ----------------------------------------------------------------------
# Schemes
# ----------------------------------------------------------------------
@dataclass
class SchemeEntry:
    """One registered weight number system and its pluggable pieces."""

    name: str
    levels: Callable            # (bits, m1=None, m2=None) -> np.ndarray
    mixed: bool = False         # True: per-row mix, no single level set
    description: str = ""
    factory: Optional[Callable] = None           # (bits, **kw) -> quantizer
    paper_projection: Optional[Callable] = None  # (spec, x) -> np.ndarray
    aliases: Tuple[str, ...] = ()

    def make(self, bits: int, **kwargs):
        """Build this scheme's quantizer (the pipeline's projection)."""
        if self.factory is None:
            raise ConfigurationError(
                f"scheme {self.name!r} has no registered quantizer factory")
        return self.factory(bits, **kwargs)


_SCHEMES: Dict[str, SchemeEntry] = {}
_SCHEME_ALIASES: Dict[str, str] = {}


def register_scheme(name: str, *, mixed: bool = False, description: str = "",
                    aliases: Tuple[str, ...] = ()) -> Callable:
    """Decorator registering a scheme's unit-level-set function.

    ``@register_scheme("sp2")`` on ``f(bits, m1=None, m2=None)`` makes the
    scheme resolvable via :func:`get_scheme`. Mixed schemes (``msq``)
    register a function that raises — they have no single level set.
    """

    def decorate(levels_fn: Callable) -> Callable:
        key = name.lower()
        if key in _SCHEMES or key in _SCHEME_ALIASES:
            raise ConfigurationError(f"scheme {name!r} already registered")
        _SCHEMES[key] = SchemeEntry(name=key, levels=levels_fn, mixed=mixed,
                                    description=description, aliases=aliases)
        for alias in aliases:
            _SCHEME_ALIASES[alias.lower()] = key
        return levels_fn

    return decorate


def register_scheme_factory(name: str) -> Callable:
    """Decorator attaching the quantizer factory to a registered scheme."""

    def decorate(factory: Callable) -> Callable:
        entry = _scheme_entry(name)
        if entry.factory is not None:
            raise ConfigurationError(
                f"scheme {name!r} already has a quantizer factory")
        entry.factory = factory
        return factory

    return decorate


def register_paper_projection(name: str) -> Callable:
    """Decorator attaching a paper closed-form projection to a scheme."""

    def decorate(projection: Callable) -> Callable:
        entry = _scheme_entry(name)
        if entry.paper_projection is not None:
            raise ConfigurationError(
                f"scheme {name!r} already has a paper projection")
        entry.paper_projection = projection
        return projection

    return decorate


def _scheme_entry(name: str) -> SchemeEntry:
    key = str(name).lower()
    key = _SCHEME_ALIASES.get(key, key)
    if key not in _SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {name!r}; registered: {sorted(_SCHEMES)}")
    return _SCHEMES[key]


def get_scheme(name: str) -> SchemeEntry:
    """Resolve a scheme by name (case-insensitive, aliases honoured)."""
    _autoload(_SCHEME_MODULES)
    return _scheme_entry(getattr(name, "value", name))


def list_schemes() -> Dict[str, str]:
    """All registered schemes: canonical name -> description."""
    _autoload(_SCHEME_MODULES)
    return {key: _SCHEMES[key].description for key in sorted(_SCHEMES)}


# ----------------------------------------------------------------------
# Methods
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MethodEntry:
    """One registered trainable quantization method."""

    name: str                   # canonical registry key, e.g. "lq-nets"
    cls: type                   # BaselineMethod subclass
    description: str = ""
    aliases: Tuple[str, ...] = ()

    @property
    def display(self) -> str:
        """The published name used in tables/logs (the class's ``name``)."""
        return getattr(self.cls, "name", self.name)

    def make(self, **kwargs):
        return self.cls(**kwargs)


_METHODS: Dict[str, MethodEntry] = {}
_METHOD_ALIASES: Dict[str, str] = {}


def _normalize_method(name: str) -> str:
    return name.lower().replace("µ", "u").replace("_", "-")


def register_method(name: str, *, aliases: Tuple[str, ...] = (),
                    description: str = "") -> Callable:
    """Class decorator registering a quantization method by published name.

    ``@register_method("lq-nets", aliases=("lqnets",))`` makes the class
    constructible via :func:`get_method` and reachable from
    ``PipelineConfig(method=...)``.
    """

    def decorate(cls: type) -> type:
        key = _normalize_method(name)
        if key in _METHODS or key in _METHOD_ALIASES:
            raise ConfigurationError(f"method {name!r} already registered")
        _METHODS[key] = MethodEntry(name=key, cls=cls,
                                    description=description, aliases=aliases)
        for alias in aliases:
            _METHOD_ALIASES[_normalize_method(alias)] = key
        return cls

    return decorate


def get_method(name: str) -> MethodEntry:
    """Resolve a method by any of its published spellings."""
    _autoload(_METHOD_MODULES)
    key = _normalize_method(str(name))
    key = _METHOD_ALIASES.get(key, key)
    if key not in _METHODS:
        raise ConfigurationError(
            f"unknown method {name!r}; registered: {sorted(_METHODS)}")
    return _METHODS[key]


def list_methods() -> Dict[str, str]:
    """All registered methods: canonical name -> published display name."""
    _autoload(_METHOD_MODULES)
    return {key: _METHODS[key].display for key in sorted(_METHODS)}
