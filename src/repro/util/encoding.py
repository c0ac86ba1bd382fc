"""Canonical, deterministic serialization for hashing and signing.

Every commitment, signature and Merkle leaf in PVR covers *bytes*.  Two
honest parties must therefore serialize equal values to identical bytes, or
verification would fail spuriously.  ``canonical_encode`` implements a
small, self-describing, injective encoding for the value types that flow
through the system: ``None``, booleans, integers, byte strings, text
strings, tuples/lists (both encode as sequences), and string-keyed
dictionaries (encoded with sorted keys).

The format is a tag byte followed by a length-prefixed body:

========  ======================================================
tag       body
========  ======================================================
``N``     empty (None)
``T``     empty (True)
``F``     empty (False)
``I``     ASCII decimal, optionally with leading ``-``
``B``     raw bytes
``S``     UTF-8 bytes
``L``     concatenation of encoded items
``D``     concatenation of encoded (key, value) pairs, keys sorted
========  ======================================================

Lengths are ASCII decimals terminated by ``:`` (netstring style), which
keeps the encoding readable in test failures and makes it trivially
injective.
"""

from __future__ import annotations

from typing import Any


class CanonicalEncodeError(TypeError):
    """Raised when a value outside the supported universe is encoded."""


def canonical_encode(value: Any) -> bytes:
    """Serialize ``value`` into canonical bytes.

    The encoding is injective over the supported type universe, so equal
    outputs imply equal inputs, which is what makes hash commitments over
    these bytes binding on the *value* rather than on one of many possible
    serializations.
    """
    # Exact types first, commonest first: one bytes-format per value.
    kind = type(value)
    if kind is str:
        body = value.encode("utf-8")
        return b"S%d:%b" % (len(body), body)
    if kind is tuple or kind is list:
        body = b"".join(map(canonical_encode, value))
        return b"L%d:%b" % (len(body), body)
    if kind is int:
        body = b"%d" % value
        return b"I%d:%b" % (len(body), body)
    if kind is bytes:
        return b"B%d:%b" % (len(value), value)
    if value is None:
        return b"N0:"
    if value is True:
        return b"T0:"
    if value is False:
        return b"F0:"
    # Subclasses of the core types (an IntEnum, a str subclass) and dicts:
    # the isinstance chain is the definition; objects with a hook skip it.
    if isinstance(value, (int, bytes, str, list, tuple, dict)):
        if isinstance(value, int):
            body = str(value).encode("ascii")
            return b"I%d:%b" % (len(body), body)
        if isinstance(value, bytes):
            return b"B%d:%b" % (len(value), value)
        if isinstance(value, str):
            body = value.encode("utf-8")
            return b"S%d:%b" % (len(body), body)
        if isinstance(value, (list, tuple)):
            body = b"".join(map(canonical_encode, value))
            return b"L%d:%b" % (len(body), body)
        for key in value:
            if not isinstance(key, str):
                raise CanonicalEncodeError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
        body = b"".join(
            canonical_encode(key) + canonical_encode(value[key])
            for key in sorted(value)
        )
        return b"D%d:%b" % (len(body), body)
    if hasattr(value, "canonical"):
        encoded = value.canonical()
        if not isinstance(encoded, bytes):
            raise CanonicalEncodeError(
                f"{type(value).__name__}.canonical() must return bytes"
            )
        return encoded
    raise CanonicalEncodeError(
        f"cannot canonically encode values of type {type(value).__name__}"
    )


def canonical_decode(data: bytes) -> Any:
    """Invert :func:`canonical_encode`.

    Only the core universe round-trips (objects encoded via a
    ``canonical()`` hook decode to their underlying representation).
    Trailing bytes are rejected so the decoding is a bijection on valid
    encodings.
    """
    value, rest = _decode(data)
    if rest:
        raise ValueError(f"{len(rest)} trailing bytes after canonical value")
    return value


def _decode(data: bytes):
    if not data:
        raise ValueError("empty input")
    tag = data[:1]
    colon = data.find(b":", 1)
    if colon < 0:
        raise ValueError("missing length delimiter")
    try:
        length = int(data[1:colon].decode("ascii"))
    except ValueError as exc:
        raise ValueError("malformed length") from exc
    body = data[colon + 1 : colon + 1 + length]
    if len(body) != length:
        raise ValueError("truncated body")
    rest = data[colon + 1 + length :]
    if tag == b"N":
        return None, rest
    if tag == b"T":
        return True, rest
    if tag == b"F":
        return False, rest
    if tag == b"I":
        return int(body.decode("ascii")), rest
    if tag == b"B":
        return body, rest
    if tag == b"S":
        return body.decode("utf-8"), rest
    if tag == b"L":
        items = []
        remaining = body
        while remaining:
            item, remaining = _decode(remaining)
            items.append(item)
        return tuple(items), rest
    if tag == b"D":
        result = {}
        remaining = body
        while remaining:
            key, remaining = _decode(remaining)
            value, remaining = _decode(remaining)
            if not isinstance(key, str):
                raise ValueError("dict key is not a string")
            result[key] = value
        return result, rest
    raise ValueError(f"unknown tag {tag!r}")
