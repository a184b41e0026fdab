"""Tunable fields declared once.

A *knob* is a dataclass field whose metadata holds its config section and
key, its text kind and its bounds. That one declaration drives the checks
a dataclass runs on construction (:func:`check`), the text conversions
both ways (:func:`parse`, :func:`dump`), and the config schema and CLI
flags built on them (:mod:`asymloc.config`, :mod:`asymloc.cli`).

Kinds: ``float``, ``int``, ``bool``, ``text`` (inferred from the default),
``name`` (one of ``choices``) and the comma lists ``floats`` and ``names``
(distinct names); a knob's value has the type its text parses to, so a
list is a tuple and only a ``bool`` knob takes a bool. A list of fixed
length ``n`` with a ``None`` default also accepts ``none``; no other knob
takes ``None``. Numbers must be finite. A *part* (:func:`part`) is a
field holding a sub-config, checked on construction for its class.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator

_LIMITS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le))
_KINDS = {bool: "bool", int: "int", float: "float", str: "text"}
_LIST_OF = {"floats": "float", "names": "name"}
_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
          **dict.fromkeys(("false", "no", "off", "0"), False)}
# kind -> the type its values must have (a bool is only a bool) and its name in errors
_TYPES = {"float": (numbers.Real, "a number"), "int": (numbers.Integral, "an integer"),
          "bool": (bool, "a boolean"), "text": (str, "a string"), "name": (str, "a string")}


def knob(default=dataclasses.MISSING, section=None, *, key=None, kind=None, **limits):
    """A dataclass field read from ``[section] key`` (``key`` defaults to the
    field's name; with no section the field has bounds but no config key).
    ``limits`` are ``ge``, ``gt``, ``le``, ``choices`` and ``n``."""
    return dataclasses.field(default=default, metadata={
        "section": section, "key": key, "kind": kind or _KINDS[type(default)], **limits})


def part(cls: type, **kwargs):
    """A dataclass field holding a ``cls`` instance (or ``None`` where that
    is the default); ``kwargs`` go to :func:`dataclasses.field`."""
    return dataclasses.field(metadata={"part": cls}, **kwargs)


def config_fields(cls_or_obj) -> list[dataclasses.Field]:
    """The knobs of a dataclass that have a config key."""
    return [f for f in dataclasses.fields(cls_or_obj) if f.metadata.get("section")]


def key(f: dataclasses.Field) -> str:
    return f.metadata["key"] or f.name


def _items(f: dataclasses.Field, value) -> tuple:
    return tuple(value) if f.metadata["kind"] in _LIST_OF else (value,)


def _check_value(f: dataclasses.Field, value) -> None:
    """Raise ``ValueError`` unless ``value`` has the knob's type, length and
    bounds, or is an instance of the part's class; ``None`` passes only where
    it is the default."""
    m = f.metadata
    if value is None and f.default is None:
        return
    if "part" in m:
        if not isinstance(value, m["part"]):
            raise ValueError(f"expected a {m['part'].__name__}, got {value!r}")
        return
    kind = _LIST_OF.get(m["kind"], m["kind"])
    if m["kind"] in _LIST_OF and not isinstance(value, tuple):
        raise ValueError(f"expected a tuple, got {value!r}")
    items = _items(f, value)
    if not items or len(items) != m.get("n", len(items)):
        raise ValueError(f"expected {m['n']} values, got {len(items)}" if "n" in m else "empty list")
    for v in items:
        if not isinstance(v, _TYPES[kind][0]) or isinstance(v, bool) != (kind == "bool"):
            raise ValueError(f"expected {_TYPES[kind][1]}, got {v!r}")
        if "choices" in m and v not in m["choices"]:
            raise ValueError(f"unknown entry {v!r}; expected one of {m['choices']}")
        if kind in ("float", "int") and not math.isfinite(v):
            raise ValueError(f"expected a finite number, got {v}")
        for limit, symbol, holds in _LIMITS:
            if limit in m and not holds(v, m[limit]):
                raise ValueError(f"{v} must be {symbol} {m[limit]}")
    if m["kind"] == "names" and len(set(items)) != len(items):
        raise ValueError(f"repeated entries in {','.join(items)}")


def check(obj) -> None:
    """Check every knob of a dataclass instance (for its ``__post_init__``)."""
    for f in dataclasses.fields(obj):
        if f.metadata:
            try:
                _check_value(f, getattr(obj, f.name))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{f.name}: {exc}") from None


def _scalar(kind: str, text: str):
    try:
        if kind == "bool":
            return _BOOLS[text.lower()]
        return int(text) if kind == "int" else float(text) if kind == "float" else text
    except (KeyError, ValueError):
        raise ValueError(f"expected {_TYPES[kind][1]}, got {text!r}") from None


def parse(f: dataclasses.Field, raw: str):
    """Convert config text to a checked knob value (``ValueError`` if it is not one)."""
    m, text = f.metadata, raw.strip()
    if m["kind"] not in _LIST_OF:
        value = _scalar(m["kind"], text)
    elif f.default is None and text.lower() == "none":
        return None
    else:
        parts = [s.strip() for s in text.split(",")]
        if "n" not in m:
            parts = [s for s in parts if s]
        elif len(parts) != m["n"]:
            raise ValueError(f"expected {m['n']} comma-separated values, got {raw!r}")
        value = tuple(_scalar(_LIST_OF[m["kind"]], s) for s in parts)
    _check_value(f, value)
    return value


def dump(f: dataclasses.Field, value) -> str:
    """Config text that :func:`parse` turns back into ``value``."""
    if value is None:
        return "none"
    kind = _LIST_OF.get(f.metadata["kind"], f.metadata["kind"])
    if kind == "bool":
        return "true" if value else "false"
    return ",".join(repr(float(v)) if kind == "float" else str(v) for v in _items(f, value))


def describe(f: dataclasses.Field) -> str:
    """One line of help: the key, its kind, choices, bounds and default."""
    m = f.metadata
    words = [m["kind"]] + [f"{symbol} {m[limit]}" for limit, symbol, _ in _LIMITS if limit in m]
    if "choices" in m:
        words.append("from " + ",".join(m["choices"]))
    if f.default is not dataclasses.MISSING:
        words.append(f"(default {dump(f, f.default)})")
    return f"{m['section']}.{key(f)}: " + " ".join(words)
