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


def read_json(path: str | Path, what: str):
    """Parse the JSON file at ``path``.

    A file that cannot be read or parsed raises ConfigError, naming the
    file as ``what`` and its path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def expect_object(value, what: str) -> Mapping:
    """Return ``value`` if it is a JSON object, else raise ConfigError naming ``what``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {_kind(value)}")
    return value


def expect_array(value, what: str) -> list:
    """Return ``value`` if it is a JSON array, else raise ConfigError naming ``what``."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON array, got {_kind(value)}")
    return value


_SCALAR_TYPES = {"integer": int, "boolean": bool, "string": str}


def expect_scalar(value, kind: str, what: str):
    """Return ``value`` if it is a JSON ``kind``, else raise ConfigError naming ``what``.

    ``kind`` is "integer", "boolean" or "string". A boolean is not an
    integer, nor is a number written with a fraction or an exponent.
    """
    if type(value) is not _SCALAR_TYPES[kind]:
        raise ConfigError(f"{what} must be a JSON {kind}, got {_kind(value)}")
    return value
