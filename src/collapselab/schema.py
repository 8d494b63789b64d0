"""Configuration keys, each declared once with its default, help and check.

A config dataclass is the single source of its keys: each field made by
``setting`` carries its command-line key, help text and check in its
field metadata.  The command line derives its flags, ``--help``,
config-file parsing and the report's ``config`` block from those fields;
``__post_init__`` runs the checks through ``check_fields``, so library
callers get them too.  Keys that belong to no dataclass are ``Key``
literals whose checks run through the same ``check_value``.
"""
from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from numbers import Integral, Real
from typing import Any, Callable, NamedTuple

from .errors import ConfigError


class Check(NamedTuple):
    """A constraint: ``test`` passes a value, ``text`` says what it requires."""

    text: str
    test: Callable[[Any], bool]


# The type(v) tests below are fast paths past the slower abstract-class checks;
# the default cap keeps integers exact when they enter float arithmetic.
def integer(low: int, high: int = 2**53) -> Check:
    return Check(f"an integer from {low} to {high}",
                 lambda v: (type(v) is int or isinstance(v, Integral)) and low <= v <= high)


FINITE = Check("finite", lambda v: (type(v) is float or isinstance(v, Real))
               and -math.inf < v < math.inf)
POSITIVE = Check("finite and positive", lambda v: FINITE.test(v) and v > 0)
NON_NEGATIVE = Check("finite and non-negative", lambda v: FINITE.test(v) and v >= 0)
COUNT = integer(1)
SEED = integer(0, 2**128 - 1)  # a master seed is the 128-bit key of rng.philox


def check_value(key: str, value: Any, check: Check | None) -> None:
    """Raise ConfigError naming ``key`` unless each element of ``value`` passes."""
    for v in value if isinstance(value, tuple) else (value,):
        if check is not None and not check.test(v):
            raise ConfigError(f"key '{key}' must be {check.text}, got {v}")


class Key(NamedTuple):
    """One command-line key: value type, default, help text and check."""

    type: type
    default: Any
    help: str
    check: Check | None = None


def setting(default: Any, help: str, check: Check | None = None, *,
            key: str | None = None, report: str | None = None) -> Any:
    """A config field that is a command-line key and a report entry.

    ``key`` (the command-line name) and ``report`` (the name in the
    report's config block) default to the field name.  Fields that share
    a key are read from one ``a:b,a:b,...`` list, one tuple per field.
    """
    return dataclasses.field(default=default, metadata={
        "key": key, "help": help, "check": check, "report": report})


def checked(check: Check, **kwargs: Any) -> Any:
    """A config field with a check but no command-line key."""
    return dataclasses.field(metadata={"check": check}, **kwargs)


@lru_cache(maxsize=None)
def _checks(cls: type) -> tuple[tuple[str, str, Check], ...]:
    return tuple((f.name, f.metadata.get("key") or f.name, f.metadata["check"])
                 for f in dataclasses.fields(cls) if f.metadata.get("check"))


def check_fields(obj: Any) -> None:
    """Run the check of every field of a config dataclass instance."""
    for name, key, check in _checks(type(obj)):
        check_value(key, getattr(obj, name), check)


@lru_cache(maxsize=None)
def _key_fields(cls: type) -> dict[str, tuple[dataclasses.Field, ...]]:
    groups: dict[str, tuple[dataclasses.Field, ...]] = {}
    for f in dataclasses.fields(cls):
        if "help" in f.metadata:
            key = f.metadata["key"] or f.name
            groups[key] = groups.get(key, ()) + (f,)
    return groups


def keys_of(cls: type) -> dict[str, Key]:
    """The command-line keys of a config dataclass, in field order."""
    keys = {}
    for key, group in _key_fields(cls).items():
        default = group[0].default
        if len(group) > 1:
            rows = zip(*(f.default for f in group))
            default = ",".join(":".join(f"{v:g}" for v in row) for row in rows)
        keys[key] = Key(type(default), default, group[0].metadata["help"])
    return keys


def from_values(cls: type, values: dict[str, Any], **extra: Any) -> Any:
    """Build ``cls`` from command-line values; ``extra`` fills keyless fields."""
    kwargs = dict(extra)
    for key, group in _key_fields(cls).items():
        if len(group) == 1:
            kwargs[group[0].name] = values[key]
            continue
        try:
            rows = [map(float, part.split(":")) for part in values[key].split(",")]
            kwargs.update(zip([f.name for f in group], zip(*rows, strict=True), strict=True))
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse {values[key]!r} "
                              f"({group[0].metadata['help']})") from None
    return cls(**kwargs)


def report_config(obj: Any) -> dict:
    """The report's config block: every keyed field under its report name."""
    return {f.metadata["report"] or f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj) if "help" in f.metadata}
