import dataclasses
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from microgait.errors import DataError
from microgait.policy import (
    BLOCK_ROWS,
    ActivationKind,
    ActivationSpec,
    Fp32Policy,
    PolicySpec,
    _activate_array,
    activate,
    activation_count,
    elu,
    infer_fp32,
    leaky_relu,
    load_policy,
    mac_count,
    neuron_count,
    param_count,
    random_policy,
    save_policy,
)
from oracles import elu_where, fp32_forward_naive, leaky_relu_where

dims_strategy = st.lists(st.integers(1, 64), min_size=2, max_size=6)


def test_reference_architecture_counts():
    spec = PolicySpec((24, 128, 64, 8))
    assert mac_count(spec) == 11776
    assert param_count(spec) == 11976
    assert activation_count(spec) == 192
    assert neuron_count(spec) == 200


def test_small_architecture_counts():
    assert mac_count(PolicySpec((24, 8))) == 192
    assert mac_count(PolicySpec((2, 2))) == 4
    assert param_count(PolicySpec((24, 8))) == 200
    assert param_count(PolicySpec((1, 1))) == 2


@given(dims_strategy)
def test_param_minus_mac_identity(dims):
    spec = PolicySpec(tuple(dims))
    assert param_count(spec) - mac_count(spec) == sum(dims[1:])
    assert neuron_count(spec) == sum(dims[1:])
    assert activation_count(spec) == sum(dims[1:-1])


def test_spec_validation():
    with pytest.raises(DataError):
        PolicySpec((24,))
    with pytest.raises(DataError):
        PolicySpec((24, 0, 8))
    # widths are integers: no truncation of 24.5 and no parse of "24"
    for dims in ((24.5, 8), ("24", 8), (24, 8.0), (np.float64(24), 8), 24):
        with pytest.raises(DataError, match="layer widths must be integers"):
            PolicySpec(dims)
    # numpy integers are indexes, held as Python ints
    spec = PolicySpec((np.int64(24), np.uint16(128), 8))
    assert spec.layer_dims == (24, 128, 8) and all(type(d) is int for d in spec.layer_dims)


def test_activation_values():
    assert activate(elu(), 0.0) == 0.0
    assert activate(leaky_relu(0.01), -2.0) == pytest.approx(-0.02, abs=1e-15)
    assert activate(elu(), -1.0) == pytest.approx(math.exp(-1) - 1, abs=1e-12)
    assert activate(leaky_relu(0.5), 3.0) == 3.0


@given(st.floats(-20, 20, allow_nan=False),
       st.floats(0.01, 1.0),
       st.sampled_from(list(ActivationKind)))
def test_activation_monotone_and_continuous(x, alpha, kind):
    a = ActivationSpec(kind, alpha)
    eps = 1e-7
    assert activate(a, x + eps) >= activate(a, x) - 1e-12
    assert abs(activate(a, 0.0)) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_activation_alpha_validation():
    with pytest.raises(DataError):
        ActivationSpec(ActivationKind.ELU, 0.0)
    with pytest.raises(DataError):
        ActivationSpec(ActivationKind.LEAKY_RELU, 1.5)
    with pytest.raises(DataError, match="finite"):
        ActivationSpec(ActivationKind.ELU, math.inf)
    # a model file and the FP32 pass hold alpha as float32, where these are 0 and inf
    for kind, alpha in ((ActivationKind.ELU, 1e-50), (ActivationKind.LEAKY_RELU, 1e-50),
                        (ActivationKind.ELU, 1e39)):
        with pytest.raises(DataError, match="does not fit float32"):
            ActivationSpec(kind, alpha)


def test_alpha_0d_is_read_only_float32_outside_eq_hash_repr():
    a = leaky_relu(0.1)
    assert a.alpha_0d.shape == () and a.alpha_0d.dtype == np.float32
    assert a.alpha_0d == np.float32(0.1) and not a.alpha_0d.flags.writeable
    with pytest.raises(ValueError):
        a.alpha_0d[...] = 0.5
    b = leaky_relu(0.1)
    object.__setattr__(b, "alpha_0d", np.array(0.5, dtype=np.float32))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "alpha_0d" not in repr(a)
    assert PolicySpec((4, 3), a) == PolicySpec((4, 3), b)
    f = next(f for f in dataclasses.fields(ActivationSpec) if f.name == "alpha_0d")
    assert not (f.init or f.compare or f.repr)


def test_infer_all_zero_weights_returns_bias():
    spec = PolicySpec((3, 4, 2), leaky_relu())
    p = Fp32Policy(spec,
                   [np.zeros((4, 3)), np.zeros((2, 4))],
                   [np.ones(4), np.array([0.5, -1.5])])
    out = infer_fp32(p, np.array([9.0, -3.0, 2.0]))
    np.testing.assert_array_equal(out, np.array([0.5, -1.5], dtype=np.float32))


def test_infer_identity_weights_leaky():
    spec = PolicySpec((2, 2, 2), leaky_relu(0.5))
    p = Fp32Policy(spec, [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    out = infer_fp32(p, np.array([-1.0, 3.0]))
    np.testing.assert_allclose(out, [-0.5, 3.0], rtol=0, atol=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_infer_matches_naive_oracle(seed):
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), seed)
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        obs = rng.normal(size=24)
        got = infer_fp32(p, obs)
        want = fp32_forward_naive(p.weights, p.biases, 0.01, obs)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


def test_infer_deterministic():
    p = random_policy(PolicySpec((24, 128, 64, 8)), 7)
    obs = np.random.default_rng(0).normal(size=24)
    a = infer_fp32(p, obs)
    b = infer_fp32(p, obs)
    assert a.tobytes() == b.tobytes()


def test_infer_shape_error():
    p = random_policy(PolicySpec((24, 8)), 0)
    for bad in (np.zeros(23), np.zeros((4, 23)), np.zeros((2, 4, 24)), np.float32(0)):
        with pytest.raises(DataError):
            infer_fp32(p, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@settings(max_examples=25, deadline=None)
@given(slot=st.integers(0, (BLOCK_ROWS + 5) * 24 - 1))
@example(slot=(BLOCK_ROWS + 2) * 24 + 3)
def test_infer_rejects_non_finite(bad, slot):
    p = random_policy(PolicySpec((24, 16, 8)), 0)
    obs = np.zeros(24)
    obs[slot % 24] = bad
    with pytest.raises(DataError, match="non-finite"):
        infer_fp32(p, obs)
    batch = np.zeros((BLOCK_ROWS + 5, 24))
    batch.flat[slot] = bad
    with pytest.raises(DataError, match="non-finite"):
        infer_fp32(p, batch)


@settings(max_examples=25, deadline=None)
@given(act=st.sampled_from([elu(), leaky_relu(), leaky_relu(0.3)]),
       widths=st.lists(st.integers(1, 70), min_size=2, max_size=4),
       batch=st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_bit_identical_to_single_rows(act, widths, batch, seed):
    p = random_policy(PolicySpec(tuple(widths), act), seed % 10_000)
    obs = np.random.default_rng(seed).normal(0.0, 2.0, size=(batch, widths[0])).astype(np.float32)

    got = infer_fp32(p, obs)

    assert got.dtype == np.float32 and got.shape == (batch, widths[-1])
    strided = obs[:, ::-1].copy()[:, ::-1]  # the same values in a negative-stride view
    np.testing.assert_array_equal(infer_fp32(p, strided).view(np.uint32), got.view(np.uint32))
    for rows in (obs, strided):
        singles = np.stack([infer_fp32(p, row) for row in rows])
        np.testing.assert_array_equal(got.view(np.uint32), singles.view(np.uint32))
    one = infer_fp32(p, obs[:1])
    assert one.shape == (1, widths[-1])
    np.testing.assert_array_equal(one[0].view(np.uint32), infer_fp32(p, obs[0]).view(np.uint32))


# Single rows against the stacked block, in a process of its own: OpenBLAS
# picks its kernel once, when numpy loads. 48 policies x 8 rows, widths 1-139.
_KERNEL_CHECK = """
import ctypes, sys, numpy as np
from microgait.policy import PolicySpec, infer_fp32, random_policy
rng = np.random.default_rng(0)
bad = 0
for seed in range(48):
    widths = tuple(int(w) for w in rng.integers(1, 140, size=rng.integers(2, 5)))
    p = random_policy(PolicySpec(widths), seed)
    obs = rng.normal(0.0, 2.0, size=(8, widths[0])).astype(np.float32)
    singles = np.stack([infer_fp32(p, row) for row in obs])
    bad += int((infer_fp32(p, obs).view(np.uint32) != singles.view(np.uint32)).any(axis=1).sum())
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype, corename.argtypes = ctypes.c_char_p, []
print(corename().decode(), bad)
"""


def test_batch_bit_identical_to_single_rows_on_other_blas_kernels(run_python, openblas_lib,
                                                                  blas_coretype):
    run = run_python(_KERNEL_CHECK, openblas_lib, timeout=120,
                     OPENBLAS_CORETYPE=blas_coretype, OPENBLAS_NUM_THREADS="1")
    assert run.returncode == 0, run.stderr
    corename, bad = run.stdout.split()
    assert bad == "0", f"{bad} of 384 rows differ from the block under {corename}"


def test_batch_much_faster_than_single_calls():
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), 5)
    obs = np.random.default_rng(3).normal(size=(2048, 24)).astype(np.float32)

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    batched_times, single_times = [], []
    for _ in range(4):  # interleaved, so a change in host speed hits both alike
        batched_times.append(timed(lambda: infer_fp32(p, obs)))
        single_times.append(timed(lambda: [infer_fp32(p, row) for row in obs]))
    batched, single = min(batched_times), min(single_times)
    assert single >= 3 * batched, f"2048 single calls {single:.4f} s, one batch {batched:.4f} s"


F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
# signed zeros, infinities, the smallest and largest subnormals, the smallest normal
F32_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, F32_TINY, -F32_TINY,
                         1.1754942e-38, -1.1754942e-38, 1.1754944e-38, -1.1754944e-38],
                        dtype=np.float32)


@settings(max_examples=200, deadline=None)
@given(alpha=st.one_of(st.sampled_from([1.0, 0.01, F32_TINY]),
                       st.floats(F32_TINY, 1.0, width=32)),
       x=hnp.arrays(np.float32, st.sampled_from([(10,), (3, 24), (BLOCK_ROWS + 1, 10)]),
                    elements=st.floats(width=32, allow_nan=False)))
def test_leaky_relu_array_bits_match_branch_reference(alpha, x):
    """max(x, alpha * x) gives the bits of where(x >= 0, x, alpha * x) for
    every float32 but NaN, on single rows and (B, n) blocks."""
    x.ravel()[:F32_SPECIALS.size] = F32_SPECIALS
    _assert_activates_in_place(leaky_relu(alpha), x, leaky_relu_where(alpha, x))


def _assert_activates_in_place(act, x, want):
    """_activate_array puts want's bits into the array passed in: a copy of x,
    and a view of x in a larger array, as quant's range pass passes its row
    blocks, whose other rows stay as they were."""
    got = x.copy()
    assert _activate_array(act, got) is None
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    outer = np.stack([x, x])
    _activate_array(act, outer[1])
    np.testing.assert_array_equal(outer[0].view(np.uint32), x.view(np.uint32))
    np.testing.assert_array_equal(outer[1].view(np.uint32), want.view(np.uint32))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(alpha=st.one_of(st.just(1.0), st.floats(F32_TINY, 10.0, width=32)),
       x=hnp.arrays(np.float32, st.sampled_from([(10,), (3, 24)]),
                    elements=st.floats(width=32, allow_nan=False)))
def test_elu_array_bits_match_where_reference_without_warning(alpha, x):
    """expm1 of min(x, 0) gives the bits of where(x >= 0, x, alpha * expm1(x))
    with the branch rounded once from float64, for every float32 but NaN, and
    for the NaN that arithmetic gives, and warns of no overflow in the branch
    it discards, so a default ELU policy runs on large finite input."""
    x.ravel()[:F32_SPECIALS.size] = F32_SPECIALS
    x.ravel()[-1] = 500.0
    act = ActivationSpec(ActivationKind.ELU, alpha)
    with np.errstate(over="ignore"):
        want = elu_where(alpha, x)
    _assert_activates_in_place(act, x, want)
    # the NaN that inf - inf gives on x86: expm1 passes it on, and so does the
    # branch of where(x >= 0, ...) that a NaN takes
    nan = np.array([0xFFC00000], dtype=np.uint32).view(np.float32)
    _assert_activates_in_place(act, nan, elu_where(alpha, nan))
    out = infer_fp32(random_policy(PolicySpec(), 0), np.full(24, 500.0, dtype=np.float32))
    assert np.isfinite(out).all()


def test_policy_shape_validation():
    spec = PolicySpec((3, 2))
    with pytest.raises(DataError):
        Fp32Policy(spec, [np.zeros((3, 2))], [np.zeros(2)])
    with pytest.raises(DataError):
        Fp32Policy(spec, [np.full((2, 3), np.nan)], [np.zeros(2)])
    with pytest.raises(DataError, match="^layer count does not match spec$"):
        Fp32Policy(spec, [np.zeros((2, 3))] * 2, [np.zeros(2)] * 2)
    with pytest.raises(DataError, match=r"^layer 0 bias shape \(3,\) != \(2,\)$"):
        Fp32Policy(spec, [np.zeros((2, 3))], [np.zeros(3)])


def test_save_load_round_trip(tmp_path):
    p = random_policy(PolicySpec((24, 128, 64, 8), elu()), 42)
    path = tmp_path / "policy.bin"
    save_policy(p, path)
    q = load_policy(path)
    assert q.spec == p.spec
    for a, b in zip(p.weights + p.biases, q.weights + q.biases):
        assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(list(ActivationKind)),
       alpha=st.one_of(st.floats(0.0, 1e300, exclude_min=True),
                       st.sampled_from([F32_TINY, F32_TINY / 2, F32_TINY * 0.51,
                                        float(np.finfo(np.float32).max), 3.4028235677973366e38,
                                        3.4028235677973367e38])))
def test_every_spec_that_constructs_survives_a_model_file(tmp_path_factory, kind, alpha):
    try:
        spec = PolicySpec((2, 3, 1), ActivationSpec(kind, alpha))
    except DataError:
        return
    path = tmp_path_factory.getbasetemp() / "alpha.bin"
    save_policy(random_policy(spec, 0), path)
    act = load_policy(path).spec.hidden_activation
    assert act.kind is kind
    assert act.alpha == float(np.float32(alpha))
    assert act.alpha_0d.tobytes() == spec.hidden_activation.alpha_0d.tobytes()


@pytest.mark.parametrize("dims, message", [((70000, 1), "layer width 70000 "),
                                            ((1,) * 256, "256 layer widths ")])
def test_save_rejects_a_model_a_file_cannot_hold(tmp_path, dims, message):
    # PolicySpec takes the model; the file's u16 widths and u8 count cannot
    path = tmp_path / "policy.bin"
    with pytest.raises(DataError, match=message):
        save_policy(random_policy(PolicySpec(dims), 0), path)
    assert not path.exists()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(DataError):
        load_policy(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    p = random_policy(PolicySpec((4, 3), leaky_relu()), 0)
    path = tmp_path / "p.bin"
    save_policy(p, path)
    data = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(data[:-5])
    with pytest.raises(DataError):
        load_policy(tmp_path / "trunc.bin")
    (tmp_path / "trail.bin").write_bytes(data + b"\x00")
    with pytest.raises(DataError):
        load_policy(tmp_path / "trail.bin")


def test_load_rejects_non_finite_alpha(tmp_path):
    path = tmp_path / "p.bin"
    save_policy(random_policy(PolicySpec((4, 3, 2), elu()), 0), path)
    data = bytearray(path.read_bytes())
    # TGP1 header: magic, u8 dim count, u16 dims, u8 activation kind, f32 alpha
    struct.pack_into("<f", data, 4 + 1 + 2 * 3 + 1, math.inf)
    path.write_bytes(data)
    with pytest.raises(DataError, match="finite"):
        load_policy(path)
