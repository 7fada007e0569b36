import numpy as np
import pytest
from hypothesis import given, strategies as st

from microgait import ProtocolError
from microgait import wire
from microgait.wire import (
    CrcError,
    Frame,
    LengthError,
    LoopbackDevice,
    SequenceError,
    Session,
    SyncError,
    UnknownTypeError,
    crc8,
    decode_action,
    decode_frame,
    decode_observation,
    encode_action,
    encode_frame,
    encode_observation,
    iter_frames,
)
from oracles import crc8_longdiv

GOLDEN_ZERO_OBS = bytes.fromhex(
    "7e110018000000000000000000000000000000000000000000000000009a")


@given(st.binary(max_size=64))
def test_crc_matches_long_division_oracle(data):
    assert crc8(data) == crc8_longdiv(data)


def test_crc_known_values():
    assert crc8(b"") == 0x00
    assert crc8(b"\x00") == 0x00
    assert crc8(b"123456789") == 0xF4  # CRC-8/SMBUS check value


def test_golden_zero_observation_frame():
    frame = encode_observation(np.zeros(24, dtype=np.int8), "int8", 0)
    assert frame == GOLDEN_ZERO_OBS
    values, precision, seq = decode_observation(frame)
    assert precision == "int8" and seq == 0
    assert np.all(values == 0)


def test_frame_layout():
    frame = encode_frame(wire.MSG_ACT_INT8, 7, bytes(range(8)))
    assert frame[0] == 0x7E
    assert frame[1] == 0x12
    assert frame[2] == 7
    assert frame[3:5] == (8).to_bytes(2, "little")
    assert frame[-1] == crc8_longdiv(frame[1:-1])
    decoded = decode_frame(frame)
    assert decoded == Frame(wire.MSG_ACT_INT8, 7, bytes(range(8)))


def test_distinct_decode_errors():
    good = bytearray(encode_observation(np.zeros(24, dtype=np.int8), "int8", 3))
    with pytest.raises(LengthError):
        decode_frame(bytes(good[:4]))
    bad = good.copy()
    bad[0] = 0x7D
    with pytest.raises(SyncError):
        decode_frame(bytes(bad))
    bad = good.copy()
    bad[-2] ^= 0x01  # flip a payload bit
    with pytest.raises(CrcError):
        decode_frame(bytes(bad))
    bad = good.copy()
    bad[3] ^= 0x04  # length field no longer matches the buffer
    with pytest.raises(LengthError):
        decode_frame(bytes(bad))
    # unknown type with a valid crc
    body = bytes([0x55, 0, 1, 0]) + b"\x00"
    with pytest.raises(UnknownTypeError):
        decode_frame(bytes([0x7E]) + body + bytes([crc8(body)]))


def test_encode_validation():
    with pytest.raises(UnknownTypeError):
        encode_frame(0x99, 0, b"")
    with pytest.raises(ProtocolError):
        encode_frame(wire.MSG_OBS_FP32, 300, b"")
    with pytest.raises(LengthError):
        encode_observation(np.zeros(23), "fp32")
    with pytest.raises(ProtocolError):
        encode_observation(np.zeros(24), "fp64")


@pytest.mark.parametrize("precision,dim,encode,decode", [
    ("fp32", 24, encode_observation, decode_observation),
    ("int8", 24, encode_observation, decode_observation),
    ("fp32", 8, encode_action, decode_action),
    ("int8", 8, encode_action, decode_action),
])
def test_round_trip_all_types(precision, dim, encode, decode):
    rng = np.random.default_rng(0)
    for seq in (0, 1, 255):
        if precision == "fp32":
            values = rng.normal(size=dim).astype(np.float32)
        else:
            values = rng.integers(-128, 128, size=dim).astype(np.int8)
        out, prec, got_seq = decode(encode(values, precision, seq))
        assert prec == precision and got_seq == seq
        assert np.array_equal(out, values)


def test_iter_frames_resyncs_through_garbage():
    f1 = encode_action(np.arange(8, dtype=np.int8), "int8", 1)
    f2 = encode_observation(np.zeros(24, dtype=np.float32), "fp32", 2)
    stream = b"\x00\x7e\x13" + f1 + b"garbage" + f2 + b"\x7e"
    frames = list(iter_frames(stream))
    assert [f.seq for f in frames] == [1, 2]


def test_iter_frames_skips_false_sync_longer_than_any_payload():
    # a false 0x7E whose u16 length spans the next two frames and whose CRC
    # happens to match the byte after them would swallow both
    f1 = encode_observation(np.ones(24, dtype=np.float32), "fp32", 1)
    f2 = encode_action(np.arange(8, dtype=np.int8), "int8", 2)
    body = bytes([wire.MSG_OBS_FP32, 0]) + (len(f1) + len(f2)).to_bytes(2, "little") + f1 + f2
    stream = bytes([wire.SYNC]) + body + bytes([crc8(body)])
    assert [f.seq for f in iter_frames(stream)] == [1, 2]
    assert len(f1) + len(f2) > wire.MAX_PAYLOAD == 96


def test_session_happy_path_and_wraparound():
    session = Session("int8")
    device = LoopbackDevice(lambda obs, t: obs[:8] + np.int8(t), "int8")
    for i in range(300):  # crosses the u8 wraparound
        obs = np.full(24, i % 100, dtype=np.int8)
        action = session.receive_action(device.handle(session.send_observation(obs), 2))
        assert np.all(action == i % 100 + 2)


def test_session_rejects_out_of_order():
    session = Session("fp32")
    obs = np.zeros(24, dtype=np.float32)
    session.send_observation(obs)
    with pytest.raises(SequenceError):
        session.send_observation(obs)  # second obs before the action reply
    reply = encode_action(np.zeros(8, dtype=np.float32), "fp32", 5)
    with pytest.raises(SequenceError):
        session.receive_action(reply)  # wrong seq


def test_session_rejects_action_without_observation():
    session = Session("fp32")
    reply = encode_action(np.zeros(8, dtype=np.float32), "fp32", 0)
    with pytest.raises(SequenceError):
        session.receive_action(reply)


def test_session_rejects_precision_mismatch():
    session = Session("fp32")
    session.send_observation(np.zeros(24, dtype=np.float32))
    reply = encode_action(np.zeros(8, dtype=np.int8), "int8", 0)
    with pytest.raises(UnknownTypeError):
        session.receive_action(reply)

