"""Canonical, deterministic serialization for content addressing.

Anything hashed into a CID must serialize identically across runs and
machines.  ``canonical_encode`` is a small, strict encoder: it supports the
types the protocol actually stores (ints, strings, bytes, bools, None,
floats, sequences, mappings with string-able keys) plus any object exposing
``to_canonical()`` returning one of those.  Unknown types are an error —
silently falling back to ``repr`` would hide nondeterminism.

The encoder dispatches on exact type through a handler table (the hot path:
every CID computation recurses through here), falling back to an
``isinstance`` chain for subclasses.  Types that reach the fallback's
``to_canonical`` arm are promoted into the table with a precomputed name
prefix, so each protocol object class pays the slow path once per process.
Both paths produce identical bytes.

The encoding is prefix-free TLV, so a parent's bytes are the concatenation
of its children's.  A parent's ``to_canonical`` embeds each child through
:func:`canonical_body`; a child class that declares ``_body = memo()``
then carries its bytes and is encoded once per lifetime.
"""

from __future__ import annotations

import struct
from dataclasses import field
from typing import Any, Callable, Dict


class EncodingError(TypeError):
    """Raised for values that have no canonical encoding."""


def canonical_encode(value: Any) -> bytes:
    """Encode *value* into canonical bytes (stable across runs)."""
    out = bytearray()
    encode_into(out, value)
    return bytes(out)


def encode_into(out: bytearray, value: Any) -> None:
    """Append the canonical encoding of *value* to *out*.

    The incremental entry point: a caller composing a container by hand
    (the state root's ``d<n>:`` + sorted key/value leaves) appends
    element encodings without an intermediate ``bytes`` per element.
    """
    handler = _HANDLERS.get(type(value))
    if handler is not None:
        handler(out, value)
    else:
        _encode_fallback(out, value)


def memo() -> Any:
    """Dataclass field for what an immutable value carries once computed.

    Not an ``__init__`` argument (``dataclasses.replace`` starts cold) and
    invisible to ``==``/``hash``/``repr``.  ``__init__`` fills it with
    ``None``, so every instance owns the slot from construction and the
    one later write never makes it grow an attribute dict.
    """
    return field(default_factory=lambda: None, init=False, repr=False, compare=False)


class _Fragment(bytes):
    """Canonical bytes the encoder appends verbatim.

    Private to this module and dispatched on exact type only — any other
    ``bytes`` subclass still gets its ``b<n>:`` header — so a fragment can
    only be what :func:`canonical_body` encoded.
    """

    __slots__ = ()


def canonical_body(value: Any) -> Any:
    """What a parent's ``to_canonical`` embeds for its child *value*.

    The child's ``to_canonical()`` tuple — or, when its class declares
    ``_body = memo()``, that tuple's encoding as a fragment, made on first
    use and carried by the (immutable) instance from then on.  The parent
    encodes to the same bytes either way.
    """
    body = getattr(value, "_body", False)
    if body is False:  # the class keeps no bytes
        return value.to_canonical()
    if body is None:
        out = bytearray()
        encode_into(out, value.to_canonical())
        body = _Fragment(out)
        object.__setattr__(value, "_body", body)
    return body


def _enc_fragment(out: bytearray, value: _Fragment) -> None:
    out += value


def _enc_none(out: bytearray, value: None) -> None:
    out += b"N"


def _enc_bool(out: bytearray, value: bool) -> None:
    out += b"T" if value else b"F"


def _enc_int(out: bytearray, value: int) -> None:
    body = str(value).encode("ascii")
    out += b"i%d:" % len(body)
    out += body


def _enc_float(out: bytearray, value: float) -> None:
    out += b"f"
    out += struct.pack(">d", value)


def _enc_str(out: bytearray, value: str) -> None:
    body = value.encode("utf-8")
    out += b"s%d:" % len(body)
    out += body


def _enc_bytes(out: bytearray, value) -> None:
    out += b"b%d:" % len(value)
    out += bytes(value)


def _enc_seq(out: bytearray, value) -> None:
    out += b"l%d:" % len(value)
    for item in value:
        encode_into(out, item)


def _enc_dict(out: bytearray, value: dict) -> None:
    items = sorted(value.items(), key=lambda kv: str(kv[0]))
    out += b"d%d:" % len(items)
    last = None
    for key, item in items:
        if type(key) is not str:
            text = str(key)
            # Equal key text would leave the order to insertion history.
            if text == last or (text != key and text in value):
                raise EncodingError(f"mapping keys collide once stringified: {text!r}")
            last = key = text
        encode_into(out, key)
        encode_into(out, item)


def _enc_set(out: bytearray, value) -> None:
    items = sorted(value, key=repr)
    out += b"e%d:" % len(items)
    for item in items:
        encode_into(out, item)


_HANDLERS: Dict[type, Callable[[bytearray, Any], None]] = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    float: _enc_float,
    str: _enc_str,
    bytes: _enc_bytes,
    bytearray: _enc_bytes,
    list: _enc_seq,
    tuple: _enc_seq,
    dict: _enc_dict,
    set: _enc_set,
    frozenset: _enc_set,
    _Fragment: _enc_fragment,
}


def _make_object_encoder(tp: type) -> Callable[[bytearray, Any], None]:
    """Handler for a ``to_canonical`` type, name prefix baked in."""
    name = tp.__name__.encode("utf-8")
    prefix = b"os%d:" % len(name) + name
    if "_body" in getattr(tp, "__dataclass_fields__", ()):  # carries its bytes: join them

        def encode(out: bytearray, value: Any) -> None:
            out += prefix
            out += canonical_body(value)

    else:

        def encode(out: bytearray, value: Any) -> None:
            out += prefix
            encode_into(out, value.to_canonical())

    return encode


def _encode_fallback(out: bytearray, value: Any) -> None:
    """Subclasses and first-seen protocol objects (identical bytes)."""
    if isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        _enc_int(out, value)
    elif isinstance(value, float):
        _enc_float(out, value)
    elif isinstance(value, str):
        _enc_str(out, value)
    elif isinstance(value, (bytes, bytearray)):
        _enc_bytes(out, value)
    elif isinstance(value, (list, tuple)):
        _enc_seq(out, value)
    elif isinstance(value, dict):
        _enc_dict(out, value)
    elif isinstance(value, (set, frozenset)):
        _enc_set(out, value)
    elif hasattr(type(value), "to_canonical"):
        handler = _make_object_encoder(type(value))
        _HANDLERS[type(value)] = handler
        handler(out, value)
    elif hasattr(value, "to_canonical"):
        # to_canonical set per instance, not on the class: don't cache.
        out += b"o"
        _enc_str(out, type(value).__name__)
        encode_into(out, value.to_canonical())
    else:
        raise EncodingError(f"no canonical encoding for {type(value).__name__}: {value!r}")
