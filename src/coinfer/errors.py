"""Exception types shared across the package."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping


class CoinferError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CoinferError):
    """Invalid configuration, manifest, or data file.

    Raised by every loader/validator; maps to CLI exit code 2.
    """


class ProtocolError(CoinferError):
    """Malformed or inconsistent wire-protocol data."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TransportError(CoinferError):
    """Network-level failure (connect, timeout, premature close)."""


def read_json(path: str | Path, what: str, parse):
    """Return ``parse`` applied to the JSON document in the file at ``path``.

    A file that cannot be read or parsed, and every ConfigError or
    ValueError that ``parse`` raises, becomes a ConfigError naming the
    file as ``what`` and its path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    try:
        return parse(doc)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}

_KIND_TESTS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def check_json(value, spec, path: str = ""):
    """Return the parsed JSON ``value`` if it matches ``spec``, else raise ConfigError.

    A spec is one of:

    * a kind: "object", "array", "string", "boolean", "integer" (not a
      boolean, nor a number written with a fraction or an exponent) or
      "number" (not a boolean);
    * ``[item]``: an array whose every element matches ``item``;
    * a dict: an object whose keys are those of the dict, each required
      unless it ends in "?", with no other key allowed; or ``{"*": item}``,
      an object with any keys whose every value matches ``item``.

    Errors name the value by its dotted path, as in
    ``profiles[0].points[2].latency_ms``; ``path`` is that of ``value``
    itself, empty for a whole document.
    """
    where = path or "document"
    kind = "array" if isinstance(spec, list) else "object" if isinstance(spec, dict) else spec
    if not _KIND_TESTS[kind](value):
        got = _JSON_KINDS.get(type(value), type(value).__name__)
        raise ConfigError(f"{where} must be a JSON {kind}, got {got}")
    if isinstance(spec, list):
        for i, item in enumerate(value):
            check_json(item, spec[0], f"{path}[{i}]")
    elif isinstance(spec, dict):
        if "*" in spec:
            fields = dict.fromkeys(value, spec["*"])
        else:
            fields = {key.removesuffix("?"): item for key, item in spec.items()}
            unknown = sorted(set(value) - set(fields))
            if unknown:
                raise ConfigError(f"{where} has unknown keys: {unknown}")
            missing = [key for key in spec if not key.endswith("?") and key not in value]
            if missing:
                raise ConfigError(f"{where} is missing keys: {missing}")
        for key, item in value.items():
            check_json(item, fields[key], f"{path}.{key}" if path else str(key))
    return value
