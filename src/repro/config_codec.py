"""One field-driven codec for every configuration dataclass.

The run-time XML elements (``<control>``, ``<transport>``,
``<service>`` with its ``<pipeline>`` children) and the trace header's
config sections are two views of the same frozen dataclasses.  This
module reads and writes both from the dataclass fields alone, so each
setting is declared once — its type by the annotation, its default by
the dataclass default — and a new field reaches the trace header by
construction.

Converters follow the annotation (``X | None`` converts as ``X``):

- ``int``; ``str``;
- ``float`` — finite only: NaN passes every ``<=`` range check, so
  both readers reject NaN and infinities;
- ``bool`` — one vocabulary, ``1/0/true/false/yes/no/on/off``;
- a type with a ``parse`` classmethod (the governor switches) — the
  XML and the dict both carry its string ``value``.

Where the XML does not mirror the fields one-to-one, the field says so
once through ``dataclasses.field(metadata=xml(...))``:

- ``names`` — accepted attribute names, in preference order, each with
  a scale (``chunk_kib`` is ``chunk_bytes`` in KiB); at most one may
  be given;
- ``conv`` — an explicit string converter (``ranks="0,2"``);
- ``skip`` — no XML attribute (the field still reaches the dict);
- ``flatten`` — a nested config read from the same element;
- ``child`` — a nested config read from a child element of that tag
  (a ``tuple[...]`` field takes every such child, others at most one);
- ``rest`` — a nested config handed every attribute left over;
- ``shared`` — read the attribute but leave it for the ``rest`` field.

Every failure — a malformed value, an unknown attribute or child, a
value the constructor rejects — is a :class:`~repro.errors.ConfigError`
naming the element (XML) or the field path (dict).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from typing import Callable, Iterable, Mapping

from repro.errors import ConfigError, ReproError

__all__ = [
    "xml",
    "boolean",
    "finite",
    "int_list",
    "convert",
    "from_xml",
    "to_dict",
    "from_dict",
]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def xml(
    *,
    names: Mapping[str, float] | None = None,
    conv: Callable[[str], object] | None = None,
    skip: bool = False,
    flatten: bool = False,
    child: str | None = None,
    rest: bool = False,
    shared: bool = False,
) -> dict:
    """Field metadata for a field whose XML form is not its name and type."""
    return {"xml": {
        "names": names, "conv": conv, "skip": skip, "flatten": flatten,
        "child": child, "rest": rest, "shared": shared,
    }}


_PLAIN = xml()["xml"]


def boolean(raw: str) -> bool:
    """The one boolean vocabulary of the XML schema."""
    key = raw.strip().lower()
    if key in _TRUE:
        return True
    if key in _FALSE:
        return False
    raise ValueError(f"expected one of {'/'.join(_TRUE + _FALSE)}")


def finite(value) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def int_list(raw: str) -> tuple[int, ...]:
    """A comma-separated list of ints (empty items are skipped)."""
    return tuple(int(item) for item in raw.split(",") if item.strip())


def _call(where: str, fn, *args, **kwargs):
    """``fn(...)``, with any rejection a ConfigError naming ``where``."""
    try:
        return fn(*args, **kwargs)
    except (ReproError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}", details={"where": where}) from exc


def _fail(where: str, message: str) -> ConfigError:
    return ConfigError(f"{where}: {message}", details={"where": where})


def convert(element: str, key: str, raw: str, conv: Callable[[str], object]):
    """``conv(raw)``, with any failure a ConfigError naming the attribute."""
    return _call(f"<{element}>: attribute {key}={raw!r}", conv, raw)


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _optional(tp):
    """``(X, True)`` for ``X | None``, else ``(tp, False)``."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return inner, True
    return tp, False


def _tuple_item(tp):
    """The item type of ``tuple[X, ...]``, or None for any other type."""
    return typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else None


def _is_parsed(tp) -> bool:
    return isinstance(tp, type) and hasattr(tp, "parse")


def _converter(tp) -> Callable[[str], object]:
    tp, _ = _optional(tp)
    if _is_parsed(tp):
        return tp.parse
    if tp is bool:
        return boolean
    if tp is float:
        return finite
    if tp in (int, str):
        return tp
    raise TypeError(f"no XML converter for {tp!r}; declare xml(conv=...)")


def from_xml(
    cls,
    attrs: Mapping[str, str],
    element: str,
    children: Iterable = (),
):
    """Build ``cls`` from an element's attributes and child elements
    (``xml.etree`` elements); absent attributes keep the dataclass
    defaults."""
    attrs = dict(attrs)
    kwargs = _read(cls, attrs, element, list(children))
    if attrs:
        raise _fail(f"<{element}>", f"unknown attribute(s) {sorted(attrs)}")
    return _call(f"<{element}>", cls, **kwargs)


def _read(cls, attrs: dict, element: str, children: list) -> dict:
    """Consume ``cls``'s attributes (and children) into constructor kwargs."""
    where = f"<{element}>"
    hints = _hints(cls)
    kwargs: dict = {}
    by_tag: dict[str, dataclasses.Field] = {}
    rest = None
    for f in dataclasses.fields(cls):
        spec = f.metadata.get("xml") or _PLAIN
        tp = hints[f.name]
        if spec["skip"]:
            continue
        if spec["flatten"]:
            kwargs[f.name] = _call(where, tp, **_read(tp, attrs, element, []))
        elif spec["child"]:
            by_tag[spec["child"]] = f
        elif spec["rest"]:
            rest = f
        else:
            names = spec["names"] or {f.name: 1}
            given = [name for name in names if name in attrs]
            if len(given) > 1:
                raise _fail(where, f"give only one of {given}")
            if given:
                key = given[0]
                raw = attrs[key] if spec["shared"] else attrs.pop(key)
                scale = names[key]
                conv = spec["conv"] or _converter(tp)
                if scale != 1:
                    conv = lambda raw, scale=scale: int(finite(raw) * scale)
                kwargs[f.name] = convert(element, key, raw, conv)
            elif f.default is f.default_factory is dataclasses.MISSING:
                raise _fail(where, f"missing the {f.name!r} attribute")
    grouped: dict[str, list] = {tag: [] for tag in by_tag}
    for child in children:
        if child.tag not in grouped:
            allowed = ", ".join(f"<{t}>" for t in by_tag) or "no element"
            raise _fail(where, f"unexpected element <{child.tag}>; only "
                               f"{allowed} is allowed")
        grouped[child.tag].append(child)
    for tag, f in by_tag.items():
        item = _tuple_item(hints[f.name])
        found = [
            from_xml(item or hints[f.name], c.attrib, tag, c)
            for c in grouped[tag]
        ]
        if item is not None:
            kwargs[f.name] = tuple(found)
        elif len(found) > 1:
            raise _fail(where, f"at most one <{tag}> element is allowed")
        elif found:
            kwargs[f.name] = found[0]
    if rest is not None:
        kwargs[rest.name] = from_xml(hints[rest.name], attrs, element)
        attrs.clear()
    return kwargs


def to_dict(obj) -> dict:
    """A JSON-ready dict of a config: one key per field, recursively,
    each value cast by its annotation."""
    hints = _hints(type(obj))
    return {
        f.name: _encode(hints[f.name], getattr(obj, f.name))
        for f in dataclasses.fields(obj)
    }


def _encode(tp, value):
    tp, _ = _optional(tp)
    if value is None:
        return None
    item = _tuple_item(tp)
    if item is not None:
        return [_encode(item, v) for v in value]
    if _is_parsed(tp):
        return value.value
    if dataclasses.is_dataclass(tp):
        return to_dict(value)
    return tp(value)


def from_dict(cls, payload):
    """Inverse of :func:`to_dict`: every field present, typed exactly."""
    return _decode(cls, payload, cls.__name__)


def _decode(tp, value, where: str):
    tp, optional = _optional(tp)
    if value is None and optional:
        return None
    item = _tuple_item(tp)
    if item is not None:
        _expect(isinstance(value, (list, tuple)), "a list", value, where)
        return tuple(
            _decode(item, v, f"{where}[{i}]") for i, v in enumerate(value)
        )
    if _is_parsed(tp):
        _expect(isinstance(value, str), "a string", value, where)
        return _call(where, tp.parse, value)
    if dataclasses.is_dataclass(tp):
        _expect(isinstance(value, dict), "an object", value, where)
        names = [f.name for f in dataclasses.fields(tp)]
        missing = sorted(set(names) - set(value))
        unknown = sorted(set(value) - set(names))
        if missing or unknown:
            raise _fail(where, f"missing field(s) {missing}, unknown field(s) "
                               f"{unknown}")
        hints = _hints(tp)
        return _call(where, tp, **{
            n: _decode(hints[n], value[n], f"{where}.{n}") for n in names
        })
    if tp is float:
        _expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            "a number", value, where,
        )
        return _call(where, finite, value)
    _expect(
        isinstance(value, tp) and (tp is bool or not isinstance(value, bool)),
        tp.__name__, value, where,
    )
    return value


def _expect(ok: bool, what: str, value, where: str) -> None:
    if not ok:
        raise _fail(where, f"expected {what}, got {value!r}")
