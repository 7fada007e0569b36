"""Framed byte codec for host <-> device observation/action exchange.

Frame layout (little-endian):

    0x7E | msg_type | seq (u8) | len (u16 LE) | payload | crc8

The CRC-8 (polynomial 0x07, init 0x00) covers msg_type through the end of the
payload. There is no byte stuffing; frames are length-delimited after the
sync byte and a receiver may resync by scanning for 0x7E.
"""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError

SYNC = 0x7E
OBS_DIM = 24
ACT_DIM = 8

MSG_OBS_FP32 = 0x01
MSG_ACT_FP32 = 0x02
MSG_OBS_INT8 = 0x11
MSG_ACT_INT8 = 0x12

# (direction, precision) -> message type, and each type's payload (dtype, count)
_MSG_TYPES = {("obs", "fp32"): MSG_OBS_FP32, ("act", "fp32"): MSG_ACT_FP32,
              ("obs", "int8"): MSG_OBS_INT8, ("act", "int8"): MSG_ACT_INT8}
_TYPE_KEYS = {msg_type: key for key, msg_type in _MSG_TYPES.items()}
_PAYLOADS = {MSG_OBS_FP32: ("<f4", OBS_DIM), MSG_ACT_FP32: ("<f4", ACT_DIM),
             MSG_OBS_INT8: ("<i1", OBS_DIM), MSG_ACT_INT8: ("<i1", ACT_DIM)}
_PAYLOAD_BYTES = {t: np.dtype(dtype).itemsize * count for t, (dtype, count) in _PAYLOADS.items()}
MAX_PAYLOAD = max(_PAYLOAD_BYTES.values())  # 96: a fp32 observation


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


def _crc8_table() -> bytes:
    """CRC-8 of each single byte, for the byte-at-a-time lookup (Sarwate 1988)."""
    table = bytearray(256)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[byte] = crc
    return bytes(table)


_CRC8_TABLE = _crc8_table()


def crc8(data: bytes) -> int:
    """CRC-8, polynomial 0x07, init 0x00, MSB first."""
    crc = 0x00
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


@dataclass(frozen=True)
class Frame:
    msg_type: int
    seq: int
    payload: bytes


def encode_frame(msg_type: int, seq: int, payload: bytes) -> bytes:
    if msg_type not in _PAYLOADS:
        raise UnknownTypeError(f"unknown message type 0x{msg_type:02X}")
    if not (0 <= seq <= 0xFF):
        raise ProtocolError(f"seq {seq} outside u8 range")
    body = struct.pack("<BBH", msg_type, seq, len(payload)) + payload
    return bytes([SYNC]) + body + bytes([crc8(body)])


def decode_frame(buf: bytes) -> Frame:
    """Decode one exact frame; raises a distinct error per failure mode."""
    if len(buf) < 6:
        raise LengthError(f"frame too short ({len(buf)} bytes)")
    if buf[0] != SYNC:
        raise SyncError(f"bad sync byte 0x{buf[0]:02X}")
    msg_type, seq, length = struct.unpack_from("<BBH", buf, 1)
    if len(buf) != 6 + length:
        raise LengthError(f"frame is {len(buf)} bytes, header says {6 + length}")
    body = buf[1:5 + length]
    if crc8(body) != buf[-1]:
        raise CrcError(f"crc mismatch: computed 0x{crc8(body):02X}, got 0x{buf[-1]:02X}")
    if msg_type not in _PAYLOADS:
        raise UnknownTypeError(f"unknown message type 0x{msg_type:02X}")
    return Frame(msg_type, seq, bytes(buf[5:5 + length]))


def iter_frames(stream: bytes):
    """Scan a byte stream, resyncing on 0x7E; yields decodable Frames."""
    i = 0
    while i + 6 <= len(stream):
        if stream[i] != SYNC:
            i += 1
            continue
        (length,) = struct.unpack_from("<H", stream, i + 3)
        end = i + 6 + length
        if length > MAX_PAYLOAD or end > len(stream):
            # a fake sync in garbage (no known type carries more than
            # MAX_PAYLOAD bytes) or a truncated tail; keep scanning
            i += 1
            continue
        try:
            yield decode_frame(stream[i:end])
            i = end
        except ProtocolError:
            i += 1


def _encode(direction: str, values, precision: str, seq: int) -> bytes:
    msg_type = _MSG_TYPES.get((direction, precision))
    if msg_type is None:
        raise ProtocolError(f"unknown precision {precision!r}")
    payload = np.asarray(values, dtype=_PAYLOADS[msg_type][0]).tobytes()
    if len(payload) != _PAYLOAD_BYTES[msg_type]:
        raise LengthError(f"payload is {len(payload)} bytes, type 0x{msg_type:02X} "
                          f"needs {_PAYLOAD_BYTES[msg_type]}")
    return encode_frame(msg_type, seq, payload)


def _decode(direction: str, buf: bytes) -> tuple[np.ndarray, str, int]:
    frame = decode_frame(buf)
    frame_direction, precision = _TYPE_KEYS[frame.msg_type]
    if frame_direction != direction:
        raise UnknownTypeError(f"unexpected message type 0x{frame.msg_type:02X}")
    if len(frame.payload) != _PAYLOAD_BYTES[frame.msg_type]:
        raise LengthError(f"payload is {len(frame.payload)} bytes, type "
                          f"0x{frame.msg_type:02X} needs {_PAYLOAD_BYTES[frame.msg_type]}")
    values = np.frombuffer(frame.payload, dtype=_PAYLOADS[frame.msg_type][0]).copy()
    return values, precision, frame.seq


def encode_observation(obs, precision: str = "fp32", seq: int = 0) -> bytes:
    return _encode("obs", obs, precision, seq)


def decode_observation(buf: bytes) -> tuple[np.ndarray, str, int]:
    return _decode("obs", buf)


def encode_action(action, precision: str = "fp32", seq: int = 0) -> bytes:
    return _encode("act", action, precision, seq)


def decode_action(buf: bytes) -> tuple[np.ndarray, str, int]:
    return _decode("act", buf)


class _State(enum.Enum):
    AWAIT_OBS = 0
    AWAIT_ACT = 1


class Session:
    """Host-side half of the strict request/response loop.

    Each observation goes out with an incrementing sequence number and the
    session blocks (state-wise) until the matching action reply is consumed.
    """

    def __init__(self, precision: str = "fp32"):
        self.precision = precision
        self._state = _State.AWAIT_OBS
        self._seq = 0

    def send_observation(self, obs) -> bytes:
        if self._state is not _State.AWAIT_OBS:
            raise SequenceError("observation sent before the previous action reply")
        frame = encode_observation(obs, self.precision, self._seq)
        self._state = _State.AWAIT_ACT
        return frame

    def receive_action(self, buf: bytes) -> np.ndarray:
        if self._state is not _State.AWAIT_ACT:
            raise SequenceError("action received without a pending observation")
        values, precision, seq = decode_action(buf)
        if precision != self.precision:
            raise UnknownTypeError(
                f"action precision {precision!r} != session precision {self.precision!r}")
        if seq != self._seq:
            raise SequenceError(f"action seq {seq} != expected {self._seq}")
        self._state = _State.AWAIT_OBS
        self._seq = (self._seq + 1) & 0xFF
        return values


class LoopbackDevice:
    """In-memory device endpoint: decodes an observation, answers with act_fn(obs, t)."""

    def __init__(self, act_fn, precision: str = "fp32"):
        self.act_fn = act_fn
        self.precision = precision

    def handle(self, buf: bytes, t: float) -> bytes:
        obs, precision, seq = decode_observation(buf)
        if precision != self.precision:
            raise UnknownTypeError(
                f"observation precision {precision!r} != device precision "
                f"{self.precision!r}")
        return encode_action(self.act_fn(obs, t), self.precision, seq)
