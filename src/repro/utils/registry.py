"""Name → factory registries for pluggable components.

Every pluggable family of the library is resolved *by name* from a
:class:`PolicyRegistry`: the rescheduling and admission policies of the online
runtime (:mod:`repro.runtime.policies`, :mod:`repro.runtime.admission`), and —
since the declarative scenario redesign — the workload generators, platform
builders and schedulers of :mod:`repro.scenario.registries`.  The CLI builds
its ``choices`` from the registry keys, :class:`~repro.scenario.spec.
ScenarioSpec` validates against them, and the experiment sweeps iterate them.
Registering a new entry in one place therefore makes it reachable from every
layer (engine, CLI, scenario files, campaigns) without further wiring.

A registry is an immutable-feeling :class:`~collections.abc.Mapping` from
name to entry; :meth:`PolicyRegistry.resolve` coerces either a name or an
already-built instance into an instance (for zero-argument factories), while
:meth:`PolicyRegistry.lookup` returns the raw registered entry.  Unknown
names never die with a bare :class:`KeyError`: the error message lists the
registered names and suggests close matches
(:func:`difflib.get_close_matches`).

An entry may be registered *lazily* (:meth:`PolicyRegistry.register_lazy`)
as a ``"package.module:attribute"`` path: the name is known at once — for
validation, ``choices`` and iteration — while the module is imported on the
first lookup of the entry.  That keeps the spec layer from importing the
schedulers and the runtime just to check a name.
"""

from __future__ import annotations

import difflib
import importlib
from collections.abc import Mapping
from typing import Iterator, TypeVar

__all__ = ["PolicyRegistry", "close_matches_hint", "load_target"]

T = TypeVar("T")


def load_target(target: str) -> object:
    """The object a ``"package.module:attribute"`` path names (imported now)."""
    module, _, attribute = target.partition(":")
    return getattr(importlib.import_module(module), attribute)


class _Lazy:
    """A registered entry not imported yet: its ``module:attribute`` path."""

    __slots__ = ("target",)

    def __init__(self, target: str):
        self.target = target


def close_matches_hint(name: object, allowed) -> str:
    """``" — did you mean 'x' or 'y'?"`` for *name* against *allowed* names.

    The one place that owns the suggestion wording — the registries, the
    scenario serializer and the grid expander all append it to their own
    "unknown ..." prefixes.  Empty string when nothing is close.
    """
    matches = difflib.get_close_matches(str(name), list(allowed), n=3, cutoff=0.5)
    if not matches:
        return ""
    return f" — did you mean {' or '.join(repr(m) for m in matches)}?"


class PolicyRegistry(Mapping):
    """A mapping of name → factory (or arbitrary registered entry)."""

    def __init__(self, kind: str):
        self._kind = kind
        self._factories: dict[str, object] = {}

    # ---------------------------------------------------------------- mutation
    def register(self, factory: T, name: str | None = None) -> T:
        """Register *factory* under *name* (default: its ``name`` attribute).

        Returns the factory so the method doubles as a class decorator.
        """
        key = name if name is not None else getattr(factory, "name", None)
        if not key:
            raise ValueError(f"cannot register {factory!r} without a name")
        self._add(key, factory)
        return factory

    def register_lazy(self, name: str, target: str) -> None:
        """Register the object at *target* (``"package.module:attribute"``)
        under *name*; the module is imported on the entry's first lookup."""
        self._add(name, _Lazy(target))

    def _add(self, key: str, entry: object) -> None:
        if key in self._factories:
            raise ValueError(f"{self._kind} {key!r} is already registered")
        self._factories[key] = entry

    # ----------------------------------------------------------------- mapping
    def __getitem__(self, name: str) -> object:
        entry = self._factories[name]
        if isinstance(entry, _Lazy):
            entry = self._factories[name] = load_target(entry.target)
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    @property
    def names(self) -> tuple[str, ...]:
        """Registered names, sorted (used for CLI ``choices``)."""
        return tuple(sorted(self._factories))

    # --------------------------------------------------------------- resolution
    def describe_unknown(self, name: object) -> str:
        """Error message for an unknown *name*, with close-match suggestions."""
        return (
            f"unknown {self._kind} {name!r}, expected one of {sorted(self._factories)}"
            f"{close_matches_hint(name, self._factories)}"
        )

    def lookup(self, name: str) -> object:
        """The raw entry registered under *name*.

        Raises :class:`KeyError` with the registered names and close-match
        suggestions when *name* is unknown.
        """
        try:
            return self[name]
        except KeyError:
            raise KeyError(self.describe_unknown(name)) from None

    def resolve(self, policy, protocol: type | None = None):
        """Coerce a policy name or instance into a policy instance.

        Raises :class:`ValueError` for unknown names and :class:`TypeError`
        when *policy* is neither a string nor (when *protocol* is given) an
        instance of *protocol*.
        """
        if isinstance(policy, str):
            if policy not in self._factories:
                raise ValueError(self.describe_unknown(policy))
            return self[policy]()
        if protocol is None or isinstance(policy, protocol):
            return policy
        raise TypeError(
            f"{self._kind} must be a name or a "
            f"{getattr(protocol, '__name__', protocol)}, got {type(policy).__name__}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PolicyRegistry({self._kind!r}, {sorted(self._factories)})"
