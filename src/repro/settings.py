"""One shape for the settings of an optional layer.

A settings class is a dataclass of JSON values deriving from
:class:`Settings`: its dict form is its fields, and reading one back refuses
a non-mapping and names every unknown key with the class's ``error``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Iterable, Mapping, Type, get_args, get_type_hints

from .errors import FluxionError, SchedulerError

__all__ = ["GuardSettings", "Settings"]


def _refuse_unknown(
    what: str,
    given: Iterable[str],
    known: Iterable[str],
    error: Type[FluxionError] = SchedulerError,
) -> None:
    """Raise ``error`` naming every key of ``given`` not in ``known``."""
    known = sorted(known)
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise error(f"{what}: unknown key(s) {unknown}; known: {known}")


class Settings:
    """The dict form of a settings dataclass, and what reading it refuses."""

    #: what a refused document or value raises
    error = SchedulerError
    #: keys of settings the class no longer has that older documents may
    #: carry: dropped on read, where any other unknown key is refused
    retired = frozenset()

    def to_dict(self) -> dict:
        """JSON-able form, one entry per field (snapshots, reproducers)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Settings":
        """Rebuild from :meth:`to_dict` output; a non-mapping or a key this
        class does not own raises :attr:`error` naming it."""
        if not isinstance(data, Mapping):
            raise cls.error(
                f"{cls.__name__} must be a mapping, got {type(data).__name__}"
            )
        given = {k: v for k, v in data.items() if k not in cls.retired}
        _refuse_unknown(
            cls.__name__, given, (f.name for f in fields(cls)), cls.error
        )
        return cls(**given)


class GuardSettings(Settings):
    """Settings of a guard layer, checked when built: an ``int`` field is
    an integer >= 1, an ``Optional`` one may also be None, and a ``bool``
    field is a bool."""

    def __post_init__(self) -> None:
        hints = get_type_hints(type(self))
        for f in fields(self):
            value, hint = getattr(self, f.name), hints[f.name]
            if value is None and type(None) in get_args(hint):
                continue
            if hint is bool:
                ok, want = type(value) is bool, "a bool"
            else:
                ok, want = type(value) is int and value >= 1, "an integer >= 1"
            if not ok:
                raise self.error(f"{f.name} must be {want}, got {value!r}")
