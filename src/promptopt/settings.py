"""Settings dataclasses built from JSON objects, with every value checked
against its field's type so a wrong value ends in ConfigError, not in a
traceback or a silently ignored key."""

from __future__ import annotations

import json
import typing
from dataclasses import is_dataclass
from typing import Union

from .errors import ConfigError

# how a config file writes a value of each field type
_KINDS = {int: "an integer", float: "a number", str: "a string", type(None): "null",
          tuple[str, ...]: "a list of strings"}


def _kind(hint) -> str:
    if typing.get_origin(hint) is Union:
        return " or ".join(_kind(h) for h in typing.get_args(hint))
    return _KINDS.get(hint, getattr(hint, "__name__", str(hint)))


def _fits(value, hint) -> bool:
    if typing.get_origin(hint) is Union:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple))
                and all(_fits(v, typing.get_args(hint)[0]) for v in value))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def from_fields(cls, doc):
    """The dataclass `cls` built from the object `doc`, whose keys must be
    fields of `cls` and whose values must have their field's type: a bool is
    not a number, an int is a float, a tuple field takes a list and a
    dataclass field takes an object. ConfigError otherwise."""
    if not isinstance(doc, dict):
        raise ConfigError("expected an object, not %s" % json.dumps(doc, default=repr))
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))
    values = {}
    for key, value in doc.items():
        hint = hints[key]
        if is_dataclass(hint):
            try:
                value = from_fields(hint, value)
            except ConfigError as e:
                raise ConfigError("%s: %s" % (key, e)) from None
        elif not _fits(value, hint):
            raise ConfigError("%s must be %s, not %s"
                              % (key, _kind(hint), json.dumps(value, default=repr)))
        values[key] = tuple(value) if typing.get_origin(hint) is tuple else value
    return cls(**values)
