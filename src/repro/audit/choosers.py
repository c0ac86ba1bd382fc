"""The named chooser registry: the audit plane's export policies.

A cross-check *chooser* (:mod:`repro.pvr.crosscheck`) is the prover's
per-recipient export policy — a callable.  The engine's own
:class:`~repro.pvr.engine.VerificationSession` takes the callable; an
audit policy takes only a registered **name**
(``chooser="discriminating:B1"``).  The name pickles, so every fresh
round of the policy runs on the round pool, and every worker resolves
it back to the same callable here; and the name is what the reuse
cache's fingerprint compares, so it means the same thing in every
process.  To audit with a chooser of your own, register it first.

Two kinds of entry:

* :func:`register` — a concrete chooser under an exact name;
* :func:`register_factory` — a parameterized family: the name
  ``"family:arg"`` resolves to ``factory("arg")``.

The built-ins mirror the scenario gallery: ``"honest"``, and the
``"discriminating:<favored>"`` / ``"withholding:<starved>"`` factories.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.pvr.crosscheck import (
    discriminating_chooser,
    honest_chooser,
    withholding_chooser,
)

__all__ = [
    "ChooserRef",
    "get",
    "names",
    "register",
    "register_factory",
    "resolve",
]

#: what an audit policy accepts: a registered name, or None (the honest
#: default)
ChooserRef = Optional[str]

_CHOOSERS: Dict[str, Callable] = {}
_FACTORIES: Dict[str, Callable[[str], Callable]] = {}


def register(name: str, chooser: Callable) -> Callable:
    """Register a concrete chooser under ``name``.  Returns ``chooser``
    so it can be used as a decorator."""
    if ":" in name:
        raise ValueError(
            f"chooser name {name!r} may not contain ':' "
            f"(reserved for factory arguments)"
        )
    if name in _CHOOSERS or name in _FACTORIES:
        raise ValueError(f"chooser {name!r} is already registered")
    _CHOOSERS[name] = chooser
    return chooser


def register_factory(name: str, factory: Callable[[str], Callable]) -> Callable:
    """Register a parameterized chooser family: ``"{name}:{arg}"``
    resolves to ``factory(arg)``."""
    if ":" in name:
        raise ValueError(f"factory name {name!r} may not contain ':'")
    if name in _CHOOSERS or name in _FACTORIES:
        raise ValueError(f"chooser {name!r} is already registered")
    _FACTORIES[name] = factory
    return factory


def get(name: str) -> Callable:
    """The chooser registered under ``name`` (``"family:arg"`` builds
    through the family's factory)."""
    if name in _CHOOSERS:
        return _CHOOSERS[name]
    head, sep, arg = name.partition(":")
    if sep and head in _FACTORIES:
        return _FACTORIES[head](arg)
    raise KeyError(
        f"unknown chooser {name!r}; known: {', '.join(names())}"
    )


def names() -> Tuple[str, ...]:
    """Registered names (factories shown as ``family:<arg>``)."""
    return tuple(
        sorted(_CHOOSERS)
        + sorted(f"{name}:<arg>" for name in _FACTORIES)
    )


def resolve(chooser: ChooserRef) -> Optional[Callable]:
    """The callable a chooser name stands for (None stays None).  An
    unknown name raises :class:`KeyError`; a callable raises
    :class:`TypeError` — register it and pass its name."""
    if chooser is None:
        return None
    if not isinstance(chooser, str):
        raise TypeError(
            f"an audit chooser is a registry name, not {chooser!r}; "
            f"register it with repro.audit.choosers.register() and pass "
            f"the name"
        )
    return get(chooser)


register("honest", honest_chooser)
register_factory("discriminating", discriminating_chooser)
register_factory("withholding", withholding_chooser)
