"""Wire codec for the protocol message dataclasses.

The TCP backend ships the same frozen dataclasses the simulator delivers
by reference.  Encoding is a tagged recursive transform to plain
JSON/msgpack-compatible values:

* a registered dataclass ``T(f1=..., f2=...)`` becomes
  ``{"__k": "T", "f": {encoded fields}}``;
* a tuple becomes ``{"__t": [...]}`` (tuple-ness must survive the trip —
  frozen dataclasses hash their tuple fields);
* an :class:`~repro.core.options.OptionStatus` becomes ``{"__e": value}``;
* a :class:`~repro.paxos.cstruct.CStruct` becomes ``{"__c": [commands]}``;
* ``None``/``bool``/``int``/``float``/``str`` pass through; lists map
  element-wise; dicts (string keys only) map value-wise.

**Registration is explicit.**  :data:`MESSAGE_TYPES` must list every
wire-reachable message dataclass — all of :mod:`repro.core.messages`
plus the protocol-local messages under :mod:`repro.protocols`.  The
WIRE-codec rule of :mod:`repro.analysis` statically fails the build when
a message lands without frozen/``__slots__``/codec entry, and the codec
round-trip tests require a worst-case sample per registered type.
Each registered type's field table is built once, at import, from its
type hints; the transform dispatches on the exact type, so a subclass
of a registered type has no codec entry.

Two byte codecs wrap the transform: JSON (always available) and msgpack
(the optional ``repro[transport]`` extra).  Frames on the wire are
``4-byte big-endian length | 1 codec tag byte | payload``.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Dict, FrozenSet, List, Optional, Protocol, Tuple, Type

from repro.core import messages as _messages
from repro.core.options import (
    CommutativeUpdate,
    Option,
    OptionStatus,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
)
from repro.paxos.ballot import Ballot, BallotRange
from repro.paxos.cstruct import CStruct
from repro.protocols.megastore import (
    MsCommitRequest,
    MsCommitResult,
    MsLogAck,
    MsLogAppend,
)
from repro.protocols.quorumwrites import QWAck, QWWrite
from repro.protocols.twopc import (
    DecisionAck,
    DecisionMessage,
    PrepareReply,
    PrepareRequest,
)
from repro.transport.base import TransportError

__all__ = [
    "ByteCodec",
    "CodecError",
    "MESSAGE_TYPES",
    "VALUE_TYPES",
    "decode",
    "decode_frame_payload",
    "encode",
    "encode_frame_payload",
    "resolve_codec",
]


class CodecError(TransportError):
    """An object cannot be encoded, or a payload cannot be decoded."""


#: every message class that may cross the wire (core + protocol-local);
#: the WIRE-codec analyzer rule enforces the pairing.
MESSAGE_TYPES: Tuple[type, ...] = (
    _messages.CatchUp,
    _messages.FastReply,
    _messages.MPhase1a,
    _messages.MPhase1b,
    _messages.MPhase2a,
    _messages.MPhase2b,
    _messages.MastershipTaken,
    _messages.OptionOutcome,
    _messages.ProposeClassic,
    _messages.ProposeFast,
    _messages.RcApply,
    _messages.RcCommitRequest,
    _messages.RcDecision,
    _messages.RcPrepare,
    _messages.RcPrepareReply,
    _messages.RcVote,
    _messages.ReadReply,
    _messages.ReadRequest,
    _messages.RepairProbe,
    _messages.RepairReply,
    _messages.SnapshotAck,
    _messages.SnapshotChunk,
    _messages.SnapshotRequest,
    _messages.StartRecovery,
    _messages.StatusReply,
    _messages.StatusRequest,
    _messages.Visibility,
    _messages.VisibilityBatch,
    # protocol-local messages (baseline protocols from §5.2)
    DecisionAck,
    DecisionMessage,
    MsCommitRequest,
    MsCommitResult,
    MsLogAck,
    MsLogAppend,
    PrepareReply,
    PrepareRequest,
    QWAck,
    QWWrite,
)

#: value dataclasses nested inside messages.
VALUE_TYPES: Tuple[type, ...] = (
    Ballot,
    BallotRange,
    CommutativeUpdate,
    Option,
    PhysicalUpdate,
    ReadValidation,
    RecordId,
)

_REGISTRY: Dict[str, Type[Any]] = {
    cls.__name__: cls for cls in (*MESSAGE_TYPES, *VALUE_TYPES)
}

#: types that pass through the transform unchanged.
_PLAIN_TYPES: Tuple[type, ...] = (type(None), bool, int, float, str)
_PLAIN = frozenset(_PLAIN_TYPES)


def _is_plain(hint: Any) -> bool:
    """A field annotated with a plain type (or ``Optional`` of one) holds
    a value the transform would pass through, so the table skips it."""
    if hint in _PLAIN:
        return True
    if typing.get_origin(hint) is typing.Union:
        return all(arg in _PLAIN for arg in typing.get_args(hint))
    return False


def _fields(cls: Type[Any]) -> Tuple[Tuple[str, bool], ...]:
    """``(init field name, plain-typed)`` pairs in declaration order;
    non-init fields are derived caches, not payload."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (field.name, _is_plain(hints[field.name]))
        for field in dataclasses.fields(cls)
        if field.init
    )


#: exact type -> (wire name, fields): built once, so encoding never
#: inspects a dataclass at run time.
_ENCODE_TABLE: Dict[type, Tuple[str, Tuple[Tuple[str, bool], ...]]] = {
    cls: (name, _fields(cls)) for name, cls in _REGISTRY.items()
}
#: wire name -> (class, names of plain-typed fields).
_DECODE_TABLE: Dict[str, Tuple[Type[Any], FrozenSet[str]]] = {
    name: (cls, frozenset(field for field, plain in fields if plain))
    for cls, (name, fields) in _ENCODE_TABLE.items()
}


def encode(obj: Any) -> Any:
    """Transform ``obj`` into JSON/msgpack-compatible values."""
    # Nested values recurse through _encode, so a wrapper installed on
    # this module attribute sees one call per message.
    return _encode(obj)


def _encode(obj: Any) -> Any:
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    entry = _ENCODE_TABLE.get(kind)
    if entry is not None:
        name, fields = entry
        out: Dict[str, Any] = {}
        for field, plain in fields:
            value = getattr(obj, field)
            out[field] = value if plain else _encode(value)
        return {"__k": name, "f": out}
    if kind is tuple:
        return {"__t": _encode_items(obj)}
    if kind is OptionStatus:
        return {"__e": obj.value}
    if kind is dict:
        return _encode_dict(obj)
    if kind is list:
        return _encode_items(obj)
    if kind is CStruct:
        return {"__c": _encode_items(obj.commands)}
    return _encode_subclass(obj)


def _encode_items(items: Any) -> List[Any]:
    return [item if type(item) in _PLAIN else _encode(item) for item in items]


def _encode_dict(obj: Dict[Any, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in obj.items():
        if not isinstance(key, str):
            raise CodecError(f"non-string dict key {key!r} is not encodable")
        out[key] = _encode(value)
    return out


def _encode_subclass(obj: Any) -> Any:
    """Subclasses of the builtin shapes encode as their base; anything
    else, a subclass of a registered type included, has no codec entry."""
    if isinstance(obj, _PLAIN_TYPES):
        return obj
    if isinstance(obj, CStruct):
        return {"__c": _encode_items(obj.commands)}
    if isinstance(obj, tuple):
        return {"__t": _encode_items(obj)}
    if isinstance(obj, list):
        return _encode_items(obj)
    if isinstance(obj, dict):
        return _encode_dict(obj)
    raise CodecError(
        f"{type(obj).__module__}.{type(obj).__name__} has no codec entry; add "
        "it to repro.transport.codec.MESSAGE_TYPES or VALUE_TYPES"
    )


def decode(data: Any) -> Any:
    """Inverse of :func:`encode`."""
    return _decode(data)


def _decode(data: Any) -> Any:
    kind = type(data)
    if kind is dict:
        if "__k" in data:
            entry = _DECODE_TABLE.get(data["__k"])
            if entry is None:
                raise CodecError(f"unknown wire type {data['__k']!r}")
            cls, plain = entry
            fields: Dict[str, Any] = {}
            for key, value in data["f"].items():
                fields[key] = value if key in plain else _decode(value)
            try:
                return cls(**fields)
            except TypeError as exc:
                raise CodecError(f"malformed {data['__k']}: {exc}") from exc
        if "__t" in data:
            return tuple(_decode_items(data["__t"]))
        if "__e" in data:
            return OptionStatus(data["__e"])
        if "__c" in data:
            return CStruct(_decode_items(data["__c"]))
        return {key: _decode(value) for key, value in data.items()}
    if kind is list:
        return _decode_items(data)
    if kind in _PLAIN or isinstance(data, _PLAIN_TYPES):
        return data
    raise CodecError(f"cannot decode {kind.__name__}: {data!r}")


def _decode_items(items: Any) -> List[Any]:
    return [item if type(item) in _PLAIN else _decode(item) for item in items]


# ----------------------------------------------------------------------
# Byte codecs
# ----------------------------------------------------------------------
class ByteCodec(Protocol):
    """The structural contract both byte codecs satisfy."""

    name: str
    tag: bytes

    def dumps(self, obj: Any) -> bytes: ...

    def loads(self, payload: bytes) -> Any: ...


#: one of each, reused: ``json.dumps`` with non-default separators
#: would build a fresh encoder per call.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))
_JSON_DECODER = json.JSONDecoder()


class JsonCodec:
    name = "json"
    tag = b"J"

    @staticmethod
    def dumps(obj: Any) -> bytes:
        return _JSON_ENCODER.encode(obj).encode("utf-8")

    @staticmethod
    def loads(payload: bytes) -> Any:
        return _JSON_DECODER.decode(payload.decode("utf-8"))


class MsgpackCodec:
    name = "msgpack"
    tag = b"M"

    def __init__(self) -> None:
        import msgpack  # deferred: the optional [transport] extra

        self._msgpack: Any = msgpack

    def dumps(self, obj: Any) -> bytes:
        return self._msgpack.packb(obj, use_bin_type=True)

    def loads(self, payload: bytes) -> Any:
        return self._msgpack.unpackb(payload, raw=False, strict_map_key=False)


def resolve_codec(preferred: str = "json") -> Tuple[ByteCodec, Optional[str]]:
    """Return ``(codec, warning_or_None)`` for the requested byte codec.

    ``msgpack`` degrades to JSON frames with an explanatory warning when
    the package is absent (install the ``repro[transport]`` extra for the
    binary codec).
    """
    if preferred == "json":
        return JsonCodec(), None
    if preferred == "msgpack":
        try:
            return MsgpackCodec(), None
        except ImportError:
            return JsonCodec(), (
                "msgpack is not installed; falling back to JSON frames. "
                "Install the optional dependency group for binary framing: "
                "pip install 'repro[transport]'"
            )
    raise CodecError(f"unknown codec {preferred!r}; choose json or msgpack")


_CODECS_BY_TAG: Dict[bytes, ByteCodec] = {b"J": JsonCodec()}


def encode_frame_payload(envelope: Dict[str, Any], codec: ByteCodec) -> bytes:
    """``codec tag byte + serialized envelope`` (length prefix added by
    the framing layer)."""
    return codec.tag + codec.dumps(envelope)


def decode_frame_payload(payload: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_frame_payload`; the tag byte selects the
    codec so mixed-codec peers fail loudly instead of garbling."""
    if not payload:
        raise CodecError("empty frame")
    tag = payload[:1]
    codec = _CODECS_BY_TAG.get(tag)
    if codec is None:
        if tag == b"M":
            try:
                codec = _CODECS_BY_TAG.setdefault(b"M", MsgpackCodec())
            except ImportError:
                raise CodecError(
                    "received a msgpack frame but msgpack is not installed; "
                    "install 'repro[transport]' or run the cluster with "
                    "--codec json"
                ) from None
        else:
            raise CodecError(f"unknown codec tag {tag!r}")
    try:
        return codec.loads(payload[1:])
    except ValueError as exc:  # JSON, UTF-8 and msgpack errors alike
        raise CodecError(f"undecodable {codec.name} payload: {exc}") from exc
