"""Generic name -> factory registries with declarative options.

The paper's central object of study is a *family* of interchangeable delay
generation architectures evaluated under one fixed system spec.  This module
provides the open-ended software counterpart: a :class:`Registry` maps a
public name to a factory plus (optionally) a frozen options dataclass and a
human-readable description, so that adding a new architecture, execution
backend or scan scenario is one ``@REGISTRY.register(...)`` away instead of
an edit to an enum and several if-chains.

Two registry instances form the public extension surface
(:data:`repro.architectures.ARCHITECTURES` and
:data:`repro.runtime.backends.BACKENDS`); a third
(:data:`repro.api.specs.SCENARIOS`) covers streaming scan scenarios.

Options dataclasses double as the serialisation schema: every registered
options type can be round-tripped through plain dicts (and therefore JSON)
with :func:`encode_options` / :func:`decode_options`, which understand
nested dataclasses (e.g. :class:`repro.fixedpoint.format.QFormat` inside
:class:`repro.core.tablefree.TableFreeConfig`), enums and optional fields.
The spec documents (:class:`SpecDocument`) use the same encoder.
"""

from __future__ import annotations

import json
import re
import types
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Any, Callable, Iterator, Mapping, TypeVar


class RegistryError(ValueError):
    """Unknown name, duplicate registration or malformed options."""


# ---------------------------------------------------------------- options
def _is_dataclass_instance(value: Any) -> bool:
    return is_dataclass(value) and not isinstance(value, type)


def _encode(value: Any) -> Any:
    if _is_dataclass_instance(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def encode_options(options: Any) -> dict | None:
    """Serialise an options dataclass instance into a plain (JSON-safe) dict."""
    if options is None:
        return None
    if not _is_dataclass_instance(options):
        raise RegistryError(
            f"options must be a dataclass instance, got {type(options).__name__}")
    return _encode(options)


def _decode(annotation: Any, value: Any) -> Any:
    if value is None:
        return None
    origin = typing.get_origin(annotation)
    if origin is typing.Union or origin is types.UnionType:
        for arg in typing.get_args(annotation):
            if arg is type(None):
                continue
            try:
                return _decode(arg, value)
            except (RegistryError, TypeError, ValueError):
                continue
        raise RegistryError(f"cannot decode {value!r} as {annotation}")
    if isinstance(annotation, type) and is_dataclass(annotation):
        if isinstance(annotation, type) and isinstance(value, annotation):
            return value
        if isinstance(value, dict):
            return decode_options(annotation, value)
        raise RegistryError(f"cannot decode {value!r} as {annotation.__name__}")
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return annotation(value)
    if isinstance(annotation, type) and annotation in (tuple,) or origin is tuple:
        return tuple(value)
    return value


def decode_options(options_type: type, data: dict) -> Any:
    """Rebuild an options dataclass instance from its :func:`encode_options` dict.

    Field values are decoded recursively using the dataclass type hints, so
    nested dataclasses, enums and ``X | None`` fields all round-trip.
    Unknown keys raise :class:`RegistryError` (they would be silently lost
    otherwise, masking typos in spec files).
    """
    if not (isinstance(options_type, type) and is_dataclass(options_type)):
        raise RegistryError(f"{options_type!r} is not an options dataclass")
    _check_fields(options_type, data,
                  f"options for {options_type.__name__}",
                  f"unknown option(s) for {options_type.__name__}")
    hints = typing.get_type_hints(options_type)
    kwargs = {name: _decode(hints.get(name, Any), value)
              for name, value in data.items()}
    return options_type(**kwargs)


def _check_fields(cls: type, data: Any, subject: str, unknown: str) -> None:
    """Refuse a non-dict ``data`` or one naming a field ``cls`` lacks."""
    if not isinstance(data, dict):
        raise RegistryError(
            f"{subject} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    extra = set(data) - known
    if extra:
        raise RegistryError(
            f"{unknown}: {', '.join(sorted(extra))}; "
            f"known: {', '.join(sorted(known))}")


def check_count(name: str, value: Any, optional: bool = False) -> None:
    """Refuse anything but a positive ``int`` (``True`` is not a count);
    ``optional`` also lets ``None`` through."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer"
                         + (" or null" if optional else ""))


# ------------------------------------------------------------ spec documents
_Spec = TypeVar("_Spec", bound="SpecDocument")


class SpecDocument:
    """The one document codec of the frozen spec dataclasses
    (``EngineSpec``, ``ScanSpec``, ``SweepSpec``, ``ServerSpec``,
    ``SweepRunSpec``).

    A document is the dataclass encoded field by field, as options are
    (:func:`encode_options`): nested dataclasses and specs become
    mappings, enums their values, tuples lists.  Decoding hands the
    mapping's fields to the constructor, whose validation coerces the
    plain forms back.  Unknown fields are refused, naming the spec's kind
    (``SweepRunSpec`` -> "sweep run spec").
    """

    @classmethod
    def _kind(cls) -> str:
        return re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()

    def to_dict(self) -> dict:
        """Plain-dict (JSON-safe) form; inverse of :meth:`from_dict`."""
        return _encode(self)

    @classmethod
    def from_dict(cls: type[_Spec], data: dict) -> _Spec:
        """Rebuild a spec from :meth:`to_dict` output (unknown keys raise)."""
        kind = cls._kind()
        _check_fields(cls, data, kind, f"unknown {kind} field(s)")
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        """Standard JSON form of :meth:`to_dict` (sorted keys; a NaN or
        infinite value raises instead of writing ``NaN``/``Infinity``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls: type[_Spec], text: str) -> _Spec:
        """Rebuild a spec from its :meth:`to_json` form."""
        return cls.from_dict(json.loads(text))

    def with_updates(self: _Spec, **changes: Any) -> _Spec:
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **changes)

    @classmethod
    def coerce(cls: type[_Spec], value: Any, name: str | None = None
               ) -> _Spec:
        """``value`` as a spec: an instance passes through, a mapping is
        decoded (:meth:`from_dict`); anything else raises, naming the
        field (``name``, default the spec's kind)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(dict(value))
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(
            f"{name or cls._kind()} must be {article} {cls.__name__} or its "
            f"dict form, got {type(value).__name__}")


# ---------------------------------------------------------------- registry
@dataclass(frozen=True)
class RegistryEntry:
    """One registered plugin: a factory, its options schema and a description."""

    name: str
    factory: Callable[..., Any]
    options: type | None
    description: str

    def make_options(self, value: Any = None) -> Any:
        """Coerce ``value`` (None / dict / instance) into an options instance.

        ``None`` yields the default-constructed options (or ``None`` when the
        entry declares no options type).
        """
        if value is None:
            return self.options() if self.options is not None else None
        if self.options is None:
            raise RegistryError(f"{self.name!r} takes no options")
        if isinstance(value, self.options):
            return value
        if isinstance(value, dict):
            return decode_options(self.options, value)
        raise RegistryError(
            f"options for {self.name!r} must be a {self.options.__name__} "
            f"or a mapping, got {type(value).__name__}")


class Registry:
    """An ordered mapping of public names to :class:`RegistryEntry` plugins.

    Usage::

        THINGS = Registry("thing")

        @THINGS.register("fast", options=FastOptions, description="...")
        def _build_fast(context, options):
            return FastThing(context, options)

        THINGS.create("fast", context, options={"knob": 3})

    Factories are called as ``factory(*args, options)`` by :meth:`create`,
    with ``options`` already coerced through
    :meth:`RegistryEntry.make_options`.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------ mutation
    def register(self, name: str, *, options: type | None = None,
                 description: str = "") -> Callable[[Callable], Callable]:
        """Decorator registering ``factory`` under ``name``.

        Duplicate names raise :class:`RegistryError`; call
        :meth:`unregister` first to replace an entry deliberately.
        """
        if options is not None and not (isinstance(options, type)
                                        and is_dataclass(options)):
            raise RegistryError(
                f"options for {self.kind} {name!r} must be a dataclass type")

        def decorator(factory: Callable) -> Callable:
            if name in self._entries:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered")
            self._entries[name] = RegistryEntry(
                name=name, factory=factory, options=options,
                description=description)
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        """Remove an entry (raises :class:`RegistryError` when absent)."""
        if name not in self._entries:
            raise RegistryError(f"{self.kind} {name!r} is not registered")
        del self._entries[name]

    # ------------------------------------------------------------- lookup
    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name``; unknown names list what *is* available."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}") from None

    def create(self, name: str, *args: Any, options: Any = None,
               **kwargs: Any) -> Any:
        """Instantiate ``name`` by calling its factory with coerced options
        (after ``args``; keyword arguments pass through)."""
        entry = self.get(name)
        return entry.factory(*args, entry.make_options(options), **kwargs)

    def names(self) -> tuple[str, ...]:
        """Registered names in registration order."""
        return tuple(self._entries)

    def items(self) -> tuple[tuple[str, RegistryEntry], ...]:
        """(name, entry) pairs in registration order."""
        return tuple(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, names={list(self._entries)})"
