"""Framed byte codec for host <-> device observation/action exchange.

Frame layout (little-endian):

    0x7E | msg_type | seq (u8) | len (u16 LE) | payload | crc8

The CRC-8 (polynomial 0x07, init 0x00) covers msg_type through the end of the
payload. There is no byte stuffing; frames are length-delimited after the
sync byte and a receiver may resync by scanning for 0x7E.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ProtocolError

SYNC = 0x7E
OBS_DIM = 24
ACT_DIM = 8

MSG_OBS_FP32 = 0x01
MSG_ACT_FP32 = 0x02
MSG_OBS_INT8 = 0x11
MSG_ACT_INT8 = 0x12

# (direction, precision) -> message type, and each type's
# (direction, precision, dtype, count, payload size in bytes)
_MSG_TYPES = {("obs", "fp32"): MSG_OBS_FP32, ("act", "fp32"): MSG_ACT_FP32,
              ("obs", "int8"): MSG_OBS_INT8, ("act", "int8"): MSG_ACT_INT8}
_TYPES = {t: (d, p, dtype, count, count * dtype.itemsize)
          for (d, p), t in _MSG_TYPES.items()
          for dtype, count in [(np.dtype("<f4" if p == "fp32" else "<i1"),
                                OBS_DIM if d == "obs" else ACT_DIM)]}
_HEADER = struct.Struct("<BBBH")  # sync, msg_type, seq, payload length
_BODY_HEADER = struct.Struct("<BBH")  # the CRC'd part of the header: msg_type, seq, length
_SYNC_BYTE = bytes([SYNC])
_BYTES = tuple(bytes([b]) for b in range(256))  # one-byte objects for the CRC trailer


class SyncError(ProtocolError):
    pass


class LengthError(ProtocolError):
    pass


class CrcError(ProtocolError):
    pass


class UnknownTypeError(ProtocolError):
    pass


class SequenceError(ProtocolError):
    pass


# CRC bit j is the parity of the message bits under mask j, as the CRC is linear
# over GF(2). The masks span 127 bytes: x has order 127 mod P = (x + 1)(x^7 + x^6
# + x^5 + x^4 + x^3 + x^2 + 1), so 127 zero bytes return every CRC state to itself.
_SPAN_BITS = 8 * 127


def _crc8_masks() -> tuple[int, ...]:
    crcs, crc = bytearray(), 0x07  # the CRC of the one-bit message x^i is x^(i + 8) mod P
    for _ in range(_SPAN_BITS):
        crcs.append(crc)
        crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else crc << 1
    crcs.reverse()  # the top message bit first, as int(digits, 2) reads it
    return tuple(int(crcs.translate(bytes(b"01"[c >> j & 1] for c in range(256))), 2)
                 for j in range(8))


_CRC8_MASKS = _crc8_masks()
# (message, CRC) of the last immutable bytes message, of at most 127 bytes, that crc8
# computed: a frame decoded in the process that encoded it asks for its body's CRC
# twice. The bound keeps the compare cheap (a frame body is at most 100 bytes) and no
# large buffer alive; one tuple, rebound whole, keeps each message with its own CRC.
_crc8_last: tuple[bytes, int] = (b"", 0)


def crc8(data: bytes) -> int:
    """CRC-8, polynomial 0x07, init 0x00, MSB first, of any bytes-like data.

    Leading zero bytes drop out of int.from_bytes without changing the CRC, as init
    is 0; a message over 127 bytes XOR-folds its 127-byte chunks, aligned at its end, in halves.
    A `bytes` message equal to the last one computed returns its CRC without computing it.
    """
    global _crc8_last
    memo = type(data) is bytes and len(data) <= 127
    if memo:
        last, crc = _crc8_last
        if data == last:
            return crc
    d = int.from_bytes(data, "big")
    while d >> _SPAN_BITS:
        k = _SPAN_BITS * max(1, d.bit_length() // (2 * _SPAN_BITS))  # a whole number of chunks
        d = d >> k ^ d & ((1 << k) - 1)
    m0, m1, m2, m3, m4, m5, m6, m7 = _CRC8_MASKS
    crc = ((d & m0).bit_count() & 1 | ((d & m1).bit_count() & 1) << 1
           | ((d & m2).bit_count() & 1) << 2 | ((d & m3).bit_count() & 1) << 3
           | ((d & m4).bit_count() & 1) << 4 | ((d & m5).bit_count() & 1) << 5
           | ((d & m6).bit_count() & 1) << 6 | ((d & m7).bit_count() & 1) << 7)
    if memo:
        _crc8_last = (data, crc)
    return crc


@dataclass(frozen=True)
class Frame:
    msg_type: int
    seq: int
    payload: bytes


def _check_payload(msg_type: int, length: int) -> tuple:
    """The one frame rule, for encode and decode: a known type, carrying its payload size.
    Returns the type's entry."""
    entry = _TYPES.get(msg_type)
    if entry is None:
        raise UnknownTypeError(f"unknown message type 0x{msg_type:02X}")
    if length != entry[4]:
        raise LengthError(f"payload is {length} bytes, type 0x{msg_type:02X} needs {entry[4]}")
    return entry


def _frame(msg_type: int, seq: int, payload: bytes, entry: tuple | None) -> bytes:
    """The one frame builder: checks seq, then the payload against the type's entry
    (None for an unknown type), and appends the CRC of the body it packs."""
    if not (0 <= seq <= 0xFF):
        raise ProtocolError(f"seq {seq} outside u8 range")
    if entry is None or len(payload) != entry[4]:
        _check_payload(msg_type, len(payload))  # raises: an unknown type or a wrong size
    try:
        body = _BODY_HEADER.pack(msg_type, seq, entry[4]) + payload
    except struct.error:  # type and length are checked, so only a non-integer seq is left
        raise ProtocolError(f"seq {seq} is not an integer") from None
    return _SYNC_BYTE + body + _BYTES[crc8(body)]


def encode_frame(msg_type: int, seq: int, payload: bytes) -> bytes:
    return _frame(msg_type, seq, payload, _TYPES.get(msg_type))


def _check_frame(buf: bytes) -> tuple[int, int, tuple]:
    """(msg_type, seq, type entry) of one frame, checked for size, sync, length, CRC, type
    and payload size."""
    if len(buf) < 6:
        raise LengthError(f"frame too short ({len(buf)} bytes)")
    sync, msg_type, seq, length = _HEADER.unpack_from(buf)
    if sync != SYNC:
        raise SyncError(f"bad sync byte 0x{sync:02X}")
    if len(buf) != 6 + length:
        raise LengthError(f"frame is {len(buf)} bytes, header says {6 + length}")
    crc = crc8(buf[1:-1])
    if crc != buf[-1]:
        raise CrcError(f"crc mismatch: computed 0x{crc:02X}, got 0x{buf[-1]:02X}")
    return msg_type, seq, _check_payload(msg_type, length)


def decode_frame(buf: bytes) -> Frame:
    """Decode one exact frame of its type's payload size; raises a distinct error per failure."""
    msg_type, seq, _ = _check_frame(buf)
    return Frame(msg_type, seq, bytes(buf[5:-1]))


def iter_frames(stream: bytes):
    """Scan a byte stream, resyncing on 0x7E; yields decodable Frames."""
    i = stream.find(SYNC)
    while 0 <= i <= len(stream) - 6:
        _, msg_type, _, length = _HEADER.unpack_from(stream, i)
        end = i + 6 + length
        try:
            _check_payload(msg_type, length)  # a false sync fails here, before any CRC
            yield decode_frame(stream[i:end])
        except ProtocolError:  # a fake sync or a truncated tail fails a check
            end = i + 1
        i = stream.find(SYNC, end)


def _encode(direction: str, values, precision: str, seq: int) -> bytes:
    msg_type = _MSG_TYPES.get((direction, precision))
    if msg_type is None:
        raise ProtocolError(f"unknown precision {precision!r}")
    _, _, dtype, count, _ = entry = _TYPES[msg_type]
    # an array in the payload dtype needs no check; an int8 frame carries the values
    # that survive the cast, a fp32 frame all but the finite values that overflow float32
    if getattr(values, "dtype", None) is not dtype:
        x = np.asarray(values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(x if precision == "int8" else values, dtype=dtype)
        fits = values == x if precision == "int8" else np.isfinite(values) | ~np.isfinite(x)
        if x.size == count and not fits.all():  # a wrong length is _frame's LengthError
            i = int(np.argmin(fits.ravel()))
            raise DataError(f"a {precision} frame cannot carry {float(x.flat[i])} at index {i}")
    return _frame(msg_type, seq, values.tobytes(), entry)


def _decode(direction: str, buf: bytes) -> tuple[np.ndarray, str, int]:
    msg_type, seq, (frame_direction, precision, dtype, count, _) = _check_frame(buf)
    if frame_direction != direction:
        raise UnknownTypeError(f"unexpected message type 0x{msg_type:02X}")
    # the payload, count values from offset 5: numpy parses positional arguments faster
    return np.frombuffer(buf, dtype, count, 5).copy(), precision, seq


def encode_observation(obs, precision: str = "fp32", seq: int = 0) -> bytes:
    return _encode("obs", obs, precision, seq)


def decode_observation(buf: bytes) -> tuple[np.ndarray, str, int]:
    return _decode("obs", buf)


def encode_action(action, precision: str = "fp32", seq: int = 0) -> bytes:
    return _encode("act", action, precision, seq)


def decode_action(buf: bytes) -> tuple[np.ndarray, str, int]:
    return _decode("act", buf)


class Session:
    """Host-side half of the strict request/response loop.

    Each observation goes out with an incrementing sequence number and the
    session blocks (state-wise) until the matching action reply is consumed.
    """

    def __init__(self, precision: str):
        self.precision = precision
        self._awaiting_action = False
        self._seq = 0

    def send_observation(self, obs) -> bytes:
        if self._awaiting_action:
            raise SequenceError("observation sent before the previous action reply")
        frame = encode_observation(obs, self.precision, self._seq)
        self._awaiting_action = True
        return frame

    def receive_action(self, buf: bytes) -> np.ndarray:
        if not self._awaiting_action:
            raise SequenceError("action received without a pending observation")
        # a reply ends the exchange, even one that fails a check; seq advances on success only
        self._awaiting_action = False
        values, precision, seq = decode_action(buf)
        if precision != self.precision:
            raise UnknownTypeError(
                f"action precision {precision!r} != session precision {self.precision!r}")
        if seq != self._seq:
            raise SequenceError(f"action seq {seq} != expected {self._seq}")
        self._seq = (self._seq + 1) & 0xFF
        return values


class LoopbackDevice:
    """In-memory device endpoint: decodes an observation, answers with act_fn(obs, t)."""

    def __init__(self, act_fn, precision: str):
        self.act_fn = act_fn
        self.precision = precision

    def handle(self, buf: bytes, t: float) -> bytes:
        obs, precision, seq = decode_observation(buf)
        if precision != self.precision:
            raise UnknownTypeError(
                f"observation precision {precision!r} != device precision "
                f"{self.precision!r}")
        return encode_action(self.act_fn(obs, t), self.precision, seq)
