"""The one name registry behind every pluggable axis.

Topology generators, workload generators, mobility models, monitors and
scenarios are all looked up the same way: a name, the object registered
under it, a one-line description.  The duplicate-name check, the sorted
name list and the unknown-name error that lists what *is* registered
live here once; each axis keeps only its own vocabulary (what an entry
is and what it is called with).
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(dict, Generic[T]):
    """``name -> (entry, description)`` for one kind of registered thing.

    A plain ``dict`` underneath, so membership, iteration and removal
    (tests unregister what they registered) need no code of their own.
    ``kind`` names an entry in messages (``"topology generator"``);
    ``error`` is what an unknown name raises.
    """

    def __init__(self, kind: str, error: type[Exception] = KeyError) -> None:
        super().__init__()
        self.kind = kind
        self.error = error

    def register(self, name: str, *, description: str = "") -> Callable[[T], T]:
        """Decorator: register the decorated object under ``name``,
        described by ``description`` or else its docstring.  A name can
        be registered once: silently replacing an entry would change
        what every spec naming it means."""

        def decorator(entry: T) -> T:
            if name in self:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self[name] = (entry, description or (entry.__doc__ or "").strip())
            return entry

        return decorator

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        return sorted(self)

    def lookup(self, name: str) -> T:
        """The entry registered under ``name``."""
        return self._registered(name)[0]

    def description(self, name: str) -> str:
        """The one-line description ``name`` registered with."""
        return self._registered(name)[1]

    def _registered(self, name: str) -> tuple[T, str]:
        if name not in self:
            raise self.error(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            )
        return self[name]
