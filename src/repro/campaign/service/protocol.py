"""Wire protocol of the campaign service: length-prefixed JSON frames.

Every message on the service socket is one *frame*: a 4-byte big-endian
payload length followed by a UTF-8 JSON object serialized with sorted
keys.  Requests carry ``{"v": PROTOCOL_VERSION, "op": <operation>, ...}``;
responses carry ``{"v": ..., "ok": true/false, ...}``.  The ``watch``
operation is the one streaming exception: after the initial ``ok``
response the server keeps sending event frames on the same connection
until the job finishes or the client disconnects.

The module also hosts the spec codec: a type-directed encoder/decoder
pair that round-trips a :class:`~repro.campaign.spec.CampaignSpec`
(nested frozen dataclasses all the way down) through plain JSON.  The
encoder is the *same* canonicalization the store's spec fingerprint uses,
so a spec submitted over the wire fingerprints identically to one built
in process — which is what lets the server key stores and job ids by
fingerprint.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import socket
import struct
import types
import typing
from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import canonical_spec

#: Version stamp carried by every frame; a server rejects requests from a
#: different major version loudly instead of misreading them.
PROTOCOL_VERSION = 1

#: Upper bound on a single frame's payload, guarding against a corrupt or
#: hostile length prefix allocating unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The operations a client may request.
OPERATIONS = ("submit", "status", "watch", "cancel", "drain", "shutdown")

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A frame violated the wire protocol (length, encoding, or schema)."""


# --------------------------------------------------------------------------
# Frames
# --------------------------------------------------------------------------

def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize one message and write it as a single frame.

    Args:
        sock: A connected stream socket.
        message: A JSON-ready dict (the caller adds ``v``/``op`` keys via
            the helpers below).

    Raises:
        ProtocolError: If the encoded payload exceeds
            :data:`MAX_FRAME_BYTES`.
    """
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one complete frame, or ``None`` on a clean end-of-stream.

    Args:
        sock: A connected stream socket.

    Returns:
        The decoded message dict, or ``None`` if the peer closed the
        connection before sending another frame.

    Raises:
        ProtocolError: On a truncated frame, an oversized length prefix,
            or a payload that is not a JSON object.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload is {type(message).__name__}, "
                            f"expected an object")
    return message


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on EOF before any byte.

    Args:
        sock: A connected stream socket.
        count: Number of bytes to read (0 returns ``b""``).

    Returns:
        The bytes read, or ``None`` if the stream ended cleanly before
        the first byte.

    Raises:
        ProtocolError: If the stream ends partway through.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# --------------------------------------------------------------------------
# Message helpers
# --------------------------------------------------------------------------

def request(op: str, **fields: object) -> dict:
    """Build a versioned request message.

    Args:
        op: One of :data:`OPERATIONS`.
        **fields: Operation-specific fields.

    Returns:
        The request dict.

    Raises:
        ProtocolError: For an unknown operation name.
    """
    if op not in OPERATIONS:
        raise ProtocolError(f"unknown operation {op!r}; "
                            f"expected one of {OPERATIONS}")
    message = {"v": PROTOCOL_VERSION, "op": op}
    message.update(fields)
    return message


def ok(**fields: object) -> dict:
    """Build a success response message."""
    message = {"v": PROTOCOL_VERSION, "ok": True}
    message.update(fields)
    return message


def error(message_text: str, **fields: object) -> dict:
    """Build an error response message carrying ``message_text``."""
    message = {"v": PROTOCOL_VERSION, "ok": False, "error": message_text}
    message.update(fields)
    return message


def check_version(message: dict) -> None:
    """Reject a message whose protocol version is not ours.

    Args:
        message: A decoded frame.

    Raises:
        ProtocolError: On a missing or mismatched version stamp.
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version {version!r} is not the "
                            f"supported version {PROTOCOL_VERSION}")


# --------------------------------------------------------------------------
# Spec codec
# --------------------------------------------------------------------------

def encode_spec(spec: CampaignSpec) -> dict:
    """Encode a campaign spec as canonical JSON-ready primitives.

    Delegates to the store's fingerprint canonicalization, so the wire
    encoding and the identity digest can never drift apart, and a spec
    object is canonicalized only once however often it is encoded or
    fingerprinted.

    Args:
        spec: The campaign description.

    Returns:
        A dict of JSON primitives (tuples as lists, dataclasses as
        field dicts), shared with other callers: do not mutate it.
    """
    return canonical_spec(spec)


def decode_spec(data: dict) -> CampaignSpec:
    """Reconstruct a campaign spec from its wire encoding.

    Args:
        data: The dict produced by :func:`encode_spec` (possibly after a
            JSON round trip).

    Returns:
        The reconstructed spec; ``decode_spec(encode_spec(s)) == s`` and
        the two fingerprint identically.

    Raises:
        ProtocolError: If the data does not match the spec schema.
    """
    try:
        return _decode(data, CampaignSpec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"undecodable campaign spec: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> tuple[tuple[str, object], ...]:
    """``(name, resolved type)`` of each field of dataclass ``cls``.

    ``typing.get_type_hints`` re-evaluates every annotation string, which
    costs more than decoding the field, so it runs once per class.
    """
    hints = typing.get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in dataclasses.fields(cls))


def _decode(value: object, target: object) -> object:
    """Rebuild ``value`` (JSON primitives) as an instance of ``target``.

    Type-directed: the JSON carries no tags; the expected dataclass field
    types (via ``typing.get_type_hints``) drive the reconstruction of
    nested dataclasses, fixed and variadic tuples, and optionals.

    Args:
        value: JSON-decoded data (dicts/lists/primitives).
        target: The expected type (a dataclass, a ``typing`` generic, a
            primitive type, or ``object`` for pass-through).

    Returns:
        The reconstructed value.

    Raises:
        TypeError: If the value cannot be shaped into the target type.
    """
    if target is object or target is typing.Any:
        return value
    origin = typing.get_origin(target)
    if origin is typing.Union or isinstance(target, types.UnionType):
        last_error: Exception = TypeError(f"no union arm matched {value!r}")
        for arm in typing.get_args(target):
            if arm is type(None):
                if value is None:
                    return None
                continue
            try:
                return _decode(value, arm)
            except (KeyError, TypeError, ValueError) as exc:
                last_error = exc
        raise last_error
    if dataclasses.is_dataclass(target) and isinstance(target, type):
        if not isinstance(value, dict):
            raise TypeError(f"expected an object for {target.__name__}, "
                            f"got {type(value).__name__}")
        kwargs = {name: _decode(value[name], hint)
                  for name, hint in _field_hints(target) if name in value}
        return target(**kwargs)
    if origin is tuple:
        args = typing.get_args(target)
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a sequence, got {type(value).__name__}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(item, args[0]) for item in value)
        if len(args) != len(value):
            raise TypeError(f"expected {len(args)} items, got {len(value)}")
        return tuple(_decode(item, arm) for item, arm in zip(value, args))
    if origin is list:
        (arm,) = typing.get_args(target) or (object,)
        return [_decode(item, arm) for item in value]
    if origin is dict:
        arms = typing.get_args(target) or (object, object)
        return {_decode(key, arms[0]): _decode(val, arms[1])
                for key, val in value.items()}
    if target is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"expected a number, got {type(value).__name__}")
        return float(value)
    if target in (int, bool, str):
        if not isinstance(value, target) or (target is int
                                             and isinstance(value, bool)):
            raise TypeError(f"expected {target.__name__}, "
                            f"got {type(value).__name__}")
        return value
    raise TypeError(f"no decoder for target type {target!r}")
