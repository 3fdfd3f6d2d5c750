"""One declarative schema for configs, triplet manifests and field-file headers.

A key table maps each key of a JSON object to a `Key`.  Leaves are
integers, numbers, floats, booleans, and strings; a "num" takes an
integer or a float and comes back a float, while a "float" takes only a
float, for a value that must read back as the bytes it was written as.
A "list" Key holds an item Key, and an "obj" Key holds a nested key
table, or, with `tag` set, one key table per value of its tag key (the
variants of `truth.c` by `kind`, of inclusions by `shape`).  `validate`
walks a table over a parsed document, fills defaults, coerces numbers to
float, rejects non-finite numbers, and raises the caller's error, an
`InputError`, whose `key` is the dotted path of the offending entry.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple


class InputError(ValueError):
    """A malformed input; `key` is the dotted path of the entry at fault, if one is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class Key(NamedTuple):
    type: str                  # "int", "num", "float", "bool", "str", "list", or "obj"
    default: object = None     # raw JSON value used when the key is absent
    range: str | None = None   # interval such as "(0, 1]"; bounds a list's length
    required: bool = False
    choices: tuple = ()        # the allowed values of a "str"
    spec: object = None        # item Key of a list; key table (or tag -> table) of an obj
    tag: str | None = None     # the key whose value picks an obj's variant


_TYPES = {"int": int, "num": (int, float), "float": float, "bool": bool, "str": str,
          "list": list, "obj": dict}
_NOUNS = {"int": "an integer", "num": "a number", "float": "a float", "bool": "true or false",
          "str": "a string", "list": "a list", "obj": "an object"}


def _within(value, interval: str) -> bool:
    """Whether value lies in an interval written like "[1, inf)" or "(0, 1]"."""
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    above = lo < value or (interval[0] == "[" and lo == value)
    below = value < hi or (interval[-1] == "]" and value == hi)
    return above and below


def validate(table: dict, doc, error, where: str = "config") -> dict:
    """The checked copy of `doc` under `table`; raises error(message, key=path) on the first
    fault, with `where` as the key of a fault at the root."""

    def fail(path, problem):
        raise error(f"{where} entry '{path or '<root>'}' {problem}", key=path or where)

    def walk(key: Key, value, path: str):
        if value is None:
            if key.required or key.default is not None:
                fail(path, f"must be {_NOUNS[key.type]}")
            return None
        if not isinstance(value, _TYPES[key.type]) or isinstance(value, bool) != (key.type == "bool"):
            fail(path, f"must be {_NOUNS[key.type]}")
        if key.type in ("num", "float"):
            try:
                value = float(value)
            except OverflowError:  # an integer literal beyond the float range
                value = math.inf
            if not math.isfinite(value):
                fail(path, "must be finite")
        if key.range is not None:
            size = len(value) if key.type == "list" else value
            if not _within(size, key.range):
                fail(path, f"must have a length in {key.range}" if key.type == "list"
                     else f"must lie in {key.range}")
        if key.choices and value not in key.choices:
            fail(path, f"must be one of {list(key.choices)}, not {value!r}")
        if key.type == "list":
            return [walk(key.spec, v, f"{path}[{i}]") for i, v in enumerate(value)]
        if key.type != "obj":
            return value
        table = key.spec
        prefix = f"{path}." if path else ""
        if key.tag is not None:
            variant = value.get(key.tag)
            if variant not in tuple(table):
                fail(prefix + key.tag, f"must be one of {list(table)}, not {variant!r}")
            table = {key.tag: Key("str"), **table[variant]}
        unknown = sorted(set(value) - set(table))
        if unknown:
            raise error(f"unknown {where} key '{prefix}{unknown[0]}'", key=prefix + unknown[0])
        out = {}
        for name, sub in table.items():
            if sub.required and name not in value:
                fail(prefix + name, "is required")
            out[name] = walk(sub, value.get(name, sub.default), prefix + name)
        return out

    return walk(Key("obj", spec=table, required=True), doc, "")


def read_json(path, error) -> dict:
    """The JSON object stored at path; raises error(message) naming the file otherwise."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object")
    return doc
