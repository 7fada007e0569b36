"""Fuzzing of the file loaders: the two binary policy loaders and the three
text loaders (budget, leg geometry, gait curves); and of the wire codec's
decoders.

A truncated, corrupted or padded file either loads or raises DataError or
DomainError; a quantized policy that loads gives finite actions. A buffer of
arbitrary, corrupted or forged bytes either decodes or raises ProtocolError,
and a frame that the encoder writes decodes back to what it was given.
"""
import importlib.resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microgait import wire
from microgait.cost import load_budget
from microgait.errors import DataError, DomainError, ProtocolError
from microgait.gait import load_gait_table
from microgait.kernel import fused_infer_dequant
from microgait.kinematics import load_geometry
from microgait.policy import PolicySpec, elu, leaky_relu, load_policy, random_policy, save_policy
from microgait.quant import QuantScheme, load_quantized, quantize_policy, save_quantized

DIMS = (6, 5, 3)
# one valid file per text loader, UTF-8 with a comment and a non-ASCII character
TEXT_FILES = {
    "budget": (load_budget, "# budget, \u00b5C class\ncycles_per_update = 104998\n"
               "f_clk_hz = 5e6\nv_volts = 1.8\ni_per_mhz_amps = 0.0001\np_max_watts = 0.0018\n"),
    "geometry": (load_geometry, "# leg \u00b5-geometry, m\nl_x = 0.02\nl_y = 0.015\n"
                 "x_motor_ref = 0.001\ny_motor_ref = -0.002\n"),
    "gait_curves": (load_gait_table, importlib.resources.files("microgait.data")
                    .joinpath("gait_curves.csv").read_text(encoding="utf-8")),
}


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """One truncation, byte flip or insertion of `data`, drawn from the strategy."""
    kind = draw(st.sampled_from(("truncate", "flip", "insert")))
    pos = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:pos]
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]
    return data[:pos] + draw(st.binary(min_size=1, max_size=8)) + data[pos:]


def _saved(tmp_path_factory, name, save, obj) -> bytes:
    path = tmp_path_factory.mktemp("good") / name
    save(obj, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def policy_bytes(tmp_path_factory):
    return _saved(tmp_path_factory, "p.bin", save_policy,
                  random_policy(PolicySpec(DIMS, elu()), 3))


@pytest.fixture(scope="module", params=list(QuantScheme), ids=lambda s: s.name.lower())
def quantized_bytes(request, tmp_path_factory):
    p = random_policy(PolicySpec(DIMS, leaky_relu()), 3)
    calib = np.random.default_rng(4).normal(size=(32, DIMS[0]))
    return _saved(tmp_path_factory, "q.bin", save_quantized,
                  quantize_policy(p, request.param, calib))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_policy_fuzz(tmp_path_factory, policy_bytes, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_p.bin"
    path.write_bytes(data.draw(mutations(policy_bytes)))
    try:
        load_policy(path)
    except (DataError, DomainError):
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_quantized_fuzz(tmp_path_factory, quantized_bytes, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_q.bin"
    path.write_bytes(data.draw(mutations(quantized_bytes)))
    try:
        qp = load_quantized(path)
    except (DataError, DomainError):
        return
    assert np.isfinite(fused_infer_dequant(qp, np.zeros(qp.spec.input_dim))).all()


@pytest.mark.parametrize("name", list(TEXT_FILES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_text_loader_fuzz(tmp_path_factory, name, data):
    load, text = TEXT_FILES[name]
    path = tmp_path_factory.getbasetemp() / f"fuzz_{name}.txt"
    good = text.encode("utf-8")
    path.write_bytes(good)
    load(path)  # the unmutated file loads
    path.write_bytes(data.draw(mutations(good)))
    try:
        load(path)
    except (DataError, DomainError):
        pass


# one valid frame of each message type
FRAMES = (wire.encode_observation(np.linspace(-2, 2, 24, dtype=np.float32), "fp32", 1),
          wire.encode_action(np.linspace(-1, 1, 8, dtype=np.float32), "fp32", 2),
          wire.encode_observation(np.arange(-12, 12, dtype=np.int8), "int8", 3),
          wire.encode_action(np.arange(-4, 4, dtype=np.int8), "int8", 255))


@st.composite
def wire_buffers(draw) -> bytes:
    """Arbitrary bytes, a valid frame mutated one to three times, or a forged
    frame with a valid CRC over an arbitrary type, seq and payload."""
    kind = draw(st.sampled_from(("random", "mutated", "forged")))
    if kind == "random":
        return draw(st.binary(max_size=2 * max(map(len, FRAMES))))
    if kind == "mutated":
        buf = draw(st.sampled_from(FRAMES))
        for _ in range(draw(st.integers(1, 3))):
            buf = draw(mutations(buf)) if buf else buf
        return buf
    body = (bytes([draw(st.integers(0, 255)), draw(st.integers(0, 255))])
            + len(payload := draw(st.binary(max_size=100))).to_bytes(2, "little") + payload)
    return bytes([wire.SYNC]) + body + bytes([wire.crc8(body)])


@settings(max_examples=1000, deadline=None)
@given(buf=wire_buffers())
def test_codec_decoders_fuzz(buf):
    for decode in (wire.decode_frame, wire.decode_observation, wire.decode_action):
        try:
            decode(buf)
        except ProtocolError:
            pass
    # the scanner skips what it cannot decode and never raises
    for frame in wire.iter_frames(buf + FRAMES[0]):
        assert isinstance(frame, wire.Frame)


# each message type's payload size, read from its frame above
PAYLOAD_SIZES = {frame[1]: len(frame) - 6 for frame in FRAMES}


@settings(max_examples=1000, deadline=None)
@given(msg_type=st.sampled_from(sorted(PAYLOAD_SIZES)) | st.integers(0, 255),
       seq=st.integers(-1, 256),
       payload=(st.sampled_from(sorted(PAYLOAD_SIZES.values())) | st.integers(0, 120)).flatmap(
           lambda n: st.binary(min_size=n, max_size=n)))
@example(msg_type=wire.MSG_ACT_INT8, seq=0, payload=b"abc")
@example(msg_type=wire.MSG_ACT_INT8, seq=0, payload=bytes(65536))  # over the u16 length field
def test_encode_frame_writes_only_frames_decode_frame_reads(msg_type, seq, payload):
    try:
        frame = wire.encode_frame(msg_type, seq, payload)
    except ProtocolError:
        assert not (0 <= seq <= 255 and PAYLOAD_SIZES.get(msg_type) == len(payload))
        return
    assert wire.decode_frame(frame) == wire.Frame(msg_type, seq, payload)
