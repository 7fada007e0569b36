import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgait import wire
from microgait.errors import DataError, ProtocolError
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


@settings(max_examples=300)
@given(st.integers(0, 3 * 127 + 8).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
def test_crc_matches_long_division_oracle(data):
    # lengths drawn uniformly, so that folds of one, two and three 127-byte chunks all occur
    assert crc8(data) == crc8_longdiv(data)


@pytest.mark.parametrize("n", [0, 1, 126, 127, 128, 254, 255, 4096])
def test_crc_matches_oracle_across_the_127_byte_fold(n):
    rng = np.random.default_rng(n)
    for data in [b"\xff" * n] + [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
                                  for _ in range(5)]:
        want = crc8_longdiv(data)
        assert crc8(data) == want
        assert crc8(bytearray(data)) == want
        assert crc8(memoryview(b"\x7e" + data + b"\x00")[1:-1]) == want
        # init 0: leading zero bytes leave the CRC unchanged
        for zeros in (1, 127, 128):
            assert crc8(bytes(zeros) + data) == crc8_longdiv(bytes(zeros) + data) == want


def test_127_zero_bytes_return_every_crc_state_to_itself():
    # the fold in crc8 rests on this: x^(8 * 127) = 1 mod x^8 + x^2 + x + 1.
    # The CRCs of the 256 one-byte messages are all 256 states
    assert len({crc8_longdiv(bytes([b])) for b in range(256)}) == 256
    for b in range(256):
        assert crc8_longdiv(bytes([b]) + bytes(127)) == crc8_longdiv(bytes([b]))
    # and no shorter run of zero bytes does it
    assert all(any(crc8_longdiv(bytes([b]) + bytes(k)) != crc8_longdiv(bytes([b]))
                   for b in range(256)) for k in range(1, 127))


def test_crc_memo_serves_only_an_equal_bytes_message():
    data = np.random.default_rng(3).integers(0, 256, size=100, dtype=np.uint8).tobytes()
    want = crc8_longdiv(data)
    assert crc8(data) == want  # held
    for other in (bytearray(data), memoryview(data), np.frombuffer(data, dtype=np.uint8)):
        assert crc8(other) == want
    # a mutable buffer is never held: changed after its CRC, it gets the CRC of what it holds
    buf = bytearray(data)
    assert crc8(buf) == want
    buf[0] ^= 0x80
    assert crc8(buf) == crc8(bytes(buf)) == crc8_longdiv(bytes(buf)) != want
    # the memo now holds the changed bytes, of the same length: it is matched by value
    assert crc8(data) == want
    # by the whole message: one that differs from the held one in its last byte is computed
    changed = data[:-1] + bytes([data[-1] ^ 1])
    assert crc8(changed) == crc8_longdiv(changed) != want


def test_crc_memo_never_holds_a_message_over_127_bytes():
    rng = np.random.default_rng(4)
    held = rng.integers(0, 256, size=127, dtype=np.uint8).tobytes()
    crc8(held)
    assert wire._crc8_last == (held, crc8_longdiv(held))
    for n in (128, 255, 4096):
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        assert crc8(data) == crc8_longdiv(data)
        assert wire._crc8_last[0] is held


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


ONE_FRAME_PER_TYPE = [
    encode_observation(np.linspace(-3, 3, 24, dtype=np.float32), "fp32", 17),
    encode_action(np.linspace(-1, 1, 8, dtype=np.float32), "fp32", 17),
    encode_observation(np.arange(-12, 12, dtype=np.int8), "int8", 200),
    encode_action(np.arange(-128, 128, 32, dtype=np.int8), "int8", 200),
]


@pytest.mark.parametrize("frame", ONE_FRAME_PER_TYPE, ids=["obs-fp32", "act-fp32", "obs-int8",
                                                            "act-int8"])
def test_every_single_bit_flip_is_detected(frame):
    # CRC-8 with polynomial 0x07 detects every single-bit error in the body and
    # its trailer; a flip in the sync byte or the length field fails earlier
    decode = decode_observation if frame[1] in (wire.MSG_OBS_FP32, wire.MSG_OBS_INT8) \
        else decode_action
    decode(frame)
    for bit in range(8 * len(frame)):
        bad = bytearray(frame)
        bad[bit // 8] ^= 1 << (bit % 8)
        for fn in (decode_frame, decode):
            with pytest.raises(ProtocolError):
                fn(bytes(bad))
            # the same flip straight after the frame was encoded, while crc8 holds its good body
            assert encode_frame(frame[1], frame[2], frame[5:-1]) == frame
            with pytest.raises(ProtocolError):
                fn(bytes(bad))


def test_decode_checks_run_in_order():
    good = encode_action(np.zeros(8, dtype=np.int8), "int8", 1)
    # too short, and a bad sync byte: the length check comes first
    with pytest.raises(LengthError, match="too short"):
        decode_frame(b"\x00" * 5)
    # bad sync byte and a length field that disagrees with the buffer
    bad = bytearray(good)
    bad[0], bad[3] = 0x00, 0xFF
    with pytest.raises(SyncError):
        decode_frame(bytes(bad))
    # length field and CRC both wrong: the length check comes first
    bad = bytearray(good)
    bad[3] ^= 0x01
    bad[-1] ^= 0xFF
    with pytest.raises(LengthError, match="header says"):
        decode_frame(bytes(bad))
    # unknown type and a CRC that does not match: the CRC check comes first
    body = bytes([0x55, 0, 1, 0, 0])
    with pytest.raises(CrcError, match=f"computed 0x{crc8(body):02X}"):
        decode_frame(bytes([0x7E]) + body + bytes([crc8(body) ^ 1]))
    # a known type carrying the wrong payload length for it
    body = bytes([wire.MSG_ACT_INT8, 0, 3, 0, 1, 2, 3])
    with pytest.raises(LengthError, match="needs 8"):
        decode_action(bytes([0x7E]) + body + bytes([crc8(body)]))
    # an observation handed to the action decoder
    with pytest.raises(UnknownTypeError, match="unexpected"):
        decode_action(encode_observation(np.zeros(24, dtype=np.int8), "int8", 1))


def test_decode_accepts_bytearray_and_memoryview():
    for frame in ONE_FRAME_PER_TYPE:
        want = decode_frame(frame)
        for buf in (bytearray(frame), memoryview(frame)):
            assert decode_frame(buf) == want
    values, precision, seq = decode_observation(memoryview(ONE_FRAME_PER_TYPE[0]))
    assert values.flags.writeable and (precision, seq) == ("fp32", 17)


@pytest.fixture
def crc_lengths(monkeypatch):
    """The length of each message `wire` computes a CRC over, from here on."""
    calls = []
    real = wire.crc8

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(wire, "crc8", counting)
    return calls


def test_session_round_trip_computes_four_crcs(crc_lengths):
    # encode and decode each read crc8 as a module global, once per frame, so
    # a rebound crc8 (as a tracer rebinds it) sees every CRC of the round trip
    for precision, dtype in (("fp32", np.float32), ("int8", np.int8)):
        crc_lengths.clear()
        session = Session(precision)
        device = LoopbackDevice(lambda obs, t: obs[:8], precision)
        action = session.receive_action(
            device.handle(session.send_observation(np.ones(24, dtype=dtype)), 0.0))
        assert np.array_equal(action, np.ones(8, dtype=dtype))
        body = 4 + (4 if precision == "fp32" else 1) * np.array([24, 24, 8, 8])
        assert crc_lengths == body.tolist()


@pytest.mark.parametrize("encode,dim", [(encode_observation, 24), (encode_action, 8)])
@pytest.mark.parametrize("value,index", [(300.0, 0), (-129.0, 0), (1.5, 0), (np.nan, 0),
                                         (np.inf, 0), (-np.inf, 0), (128, 3), (0.5, 5)])
def test_int8_encoders_reject_values_the_frame_cannot_carry(encode, dim, value, index):
    values = np.zeros(dim)
    values[index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"at index {index}$"):
            encode(values, "int8")
        with pytest.raises(DataError, match=f"at index {index}$"):
            encode(values.tolist(), "int8")
        # a wrong length is still a LengthError first
        with pytest.raises(LengthError):
            encode(np.append(values, value), "int8")


@pytest.mark.parametrize("encode, shape", [
    *(pytest.param(encode_observation, shape, id=f"obs-{'x'.join(map(str, shape)) or '0d'}")
      for shape in [(2, 12), (24, 1), (1, 24), ()]),
    pytest.param(encode_action, (2, 4), id="act-2x4"),
])
@pytest.mark.parametrize("precision", ["fp32", "int8"])
def test_encoders_reject_values_of_another_shape(encode, shape, precision):
    # the right count of values in another shape would decode as one flat row
    dtype = np.float32 if precision == "fp32" else np.int8
    for values in (np.ones(shape, dtype=dtype), np.ones(shape), np.ones(shape).tolist()):
        with pytest.raises(LengthError, match=re.escape(f"values of shape {shape}, a frame")):
            encode(values, precision)


@pytest.mark.parametrize("encode,dim", [(encode_observation, 24), (encode_action, 8)])
def test_fp32_encoders_reject_only_finite_float32_overflow(encode, dim):
    big = float(np.finfo(np.float32).max)
    for value in (1e40, -1e40, 2 * big):
        values = np.zeros(dim)
        values[dim - 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"at index {dim - 1}$"):
                encode(values, "fp32")
    # non-finite values and the largest finite float32 go through as they are
    values = np.zeros(dim)
    values[:4] = (np.nan, np.inf, -np.inf, big)
    out, _, _ = (decode_observation if dim == 24 else decode_action)(encode(values, "fp32"))
    assert out.tobytes() == values.astype(np.float32).tobytes()


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.integers(-300, 300),
                min_size=8, max_size=8),
       st.sampled_from(["fp32", "int8"]))
def test_encoded_action_decodes_to_its_values_or_is_rejected(values, precision):
    x = np.array(values, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            frame = encode_action(values, precision)
        except DataError:
            if precision == "int8":
                assert not np.all((x == np.rint(x)) & (np.abs(x + 0.5) <= 127.5))
            else:
                assert np.any(np.isfinite(x) & (np.abs(x) > np.finfo(np.float32).max))
            return
        out, _, _ = decode_action(frame)
    if precision == "int8":
        assert np.array_equal(out, x)
    else:
        with np.errstate(over="ignore"):
            assert out.tobytes() == x.astype(np.float32).tobytes()


def test_wire_dtype_arrays_encode_as_before():
    # the check is skipped for arrays already in the payload dtype, and a
    # converted array gives the same bytes as the payload-dtype array
    rng = np.random.default_rng(7)
    obs = rng.normal(size=24).astype(np.float32)
    assert encode_observation(obs, "fp32") == encode_observation(obs.astype(np.float64), "fp32")
    q = rng.integers(-128, 128, size=8).astype(np.int8)
    for other in (q.astype(np.int64), q.astype(np.float32), q.tolist()):
        assert encode_action(q, "int8", 9) == encode_action(other, "int8", 9)


def test_encode_validation():
    with pytest.raises(UnknownTypeError):
        encode_frame(0x99, 0, b"")
    with pytest.raises(ProtocolError, match="^seq 300 outside u8 range$"):
        encode_frame(wire.MSG_OBS_FP32, 300, b"")
    with pytest.raises(LengthError):
        encode_observation(np.zeros(23), "fp32")
    with pytest.raises(ProtocolError):
        encode_observation(np.zeros(24), "fp64")


SEQ_ENCODERS = [
    lambda seq: encode_frame(wire.MSG_ACT_INT8, seq, bytes(8)),
    lambda seq: encode_observation(np.zeros(24, dtype=np.float32), "fp32", seq),
    lambda seq: encode_action(np.zeros(8, dtype=np.int8), "int8", seq),
]


@pytest.mark.parametrize("encode", SEQ_ENCODERS, ids=["frame", "observation", "action"])
@pytest.mark.parametrize("seq", [1.5, 255.0, -0.0, np.float64(3.0)])
def test_non_integer_seq_is_a_protocol_error(encode, seq):
    with pytest.raises(ProtocolError, match=f"^seq {re.escape(str(seq))} is not an integer$"):
        encode(seq)


@pytest.mark.parametrize("encode", SEQ_ENCODERS, ids=["frame", "observation", "action"])
def test_numpy_integer_seq_encodes_as_the_int(encode):
    for seq in (0, 3, 255):
        assert encode(np.int64(seq)) == encode(np.uint8(seq)) == encode(seq)
        assert encode(seq)[2] == seq


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
    assert len(f1) + len(f2) > 96


def test_iter_frames_skips_false_syncs_without_a_crc(crc_lengths):
    # a false sync whose header names no type's payload size fails before the
    # slice and the CRC over the length it claims; only the real frame is checked
    frame = encode_action(np.arange(8, dtype=np.int8), "int8", 3)
    crc_lengths.clear()
    stream = b"\x7e\x01\x00\xff\xff" * 200 + bytes(70_000) + frame
    assert [f.seq for f in iter_frames(stream)] == [3]
    assert crc_lengths == [len(frame) - 2]


@pytest.mark.parametrize("good", ONE_FRAME_PER_TYPE, ids=["obs-fp32", "act-fp32", "obs-int8",
                                                           "act-int8"])
def test_decode_frame_rejects_a_payload_size_its_type_never_has(good):
    msg_type, size = good[1], len(good) - 6
    assert decode_frame(good).payload == good[5:-1]
    for n in (0, 3, size - 1, size + 1):
        body = bytes([msg_type, 4]) + n.to_bytes(2, "little") + bytes(range(n))
        bad = bytes([wire.SYNC]) + body + bytes([crc8(body)])  # a valid CRC over the wrong size
        with pytest.raises(LengthError, match=f"payload is {n} bytes, type 0x{msg_type:02X} "
                                              f"needs {size}"):
            decode_frame(bad)
        # the scanner skips it and keeps the frames around it
        stream = ONE_FRAME_PER_TYPE[1] + bad + ONE_FRAME_PER_TYPE[3]
        assert [f.seq for f in iter_frames(stream)] == [17, 200]


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


ACT_FP32_3_BODY = bytes([wire.MSG_ACT_FP32, 0, 3, 0, 1, 2, 3])


@pytest.mark.parametrize("bad_reply,error", [
    (lambda good: good[:-1] + bytes([good[-1] ^ 1]), CrcError),
    (lambda good: bytes([wire.SYNC]) + ACT_FP32_3_BODY + bytes([crc8(ACT_FP32_3_BODY)]),
     LengthError),
    (lambda good: encode_action(np.zeros(8, dtype=np.int8), "int8", 0), UnknownTypeError),
    (lambda good: encode_action(np.zeros(8, dtype=np.float32), "fp32", 5), SequenceError),
], ids=["crc", "length", "type", "seq"])
def test_session_recovers_after_a_bad_reply(bad_reply, error):
    session = Session("fp32")
    device = LoopbackDevice(lambda obs, t: obs[:8] * np.float32(t), "fp32")
    obs = np.arange(24, dtype=np.float32)
    frame = session.send_observation(obs)
    with pytest.raises(error):
        session.receive_action(bad_reply(device.handle(frame, 1.0)))
    # the reply ended the exchange, and the next observation reuses its seq
    with pytest.raises(SequenceError, match="without a pending observation"):
        session.receive_action(device.handle(frame, 1.0))
    again = session.send_observation(obs)
    assert again == frame
    assert np.array_equal(session.receive_action(device.handle(again, 2.0)), obs[:8] * 2)
    assert session.send_observation(obs)[2] == 1  # a good reply advances the seq


def test_loopback_device_rejects_an_observation_of_another_precision():
    device = LoopbackDevice(lambda obs, t: obs[:8], "int8")
    with pytest.raises(UnknownTypeError, match="observation precision 'fp32' != device "
                                               "precision 'int8'"):
        device.handle(encode_observation(np.zeros(24, dtype=np.float32), "fp32"), 0.0)


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

