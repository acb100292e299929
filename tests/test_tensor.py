import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tofu import tensor


def test_layernorm_constant_row():
    x = np.ones((1, 1, 3), dtype=np.float32)
    out = tensor.layernorm(x, np.ones(3), np.zeros(3))
    assert np.allclose(out, 0.0, atol=1e-3)


def test_layernorm_hand_case():
    x = np.array([[[0.0, 2.0]]], dtype=np.float32)
    out = tensor.layernorm(x, np.ones(2), np.zeros(2), eps=1e-12)
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-5)


def test_layernorm_zero_gamma_gives_beta():
    x = np.random.default_rng(0).standard_normal((2, 3, 2)).astype(np.float32)
    out = tensor.layernorm(x, np.zeros(2), np.full(2, 5.0))
    assert np.array_equal(out, np.full_like(x, 5.0))


def test_layernorm_dim_error():
    with pytest.raises(tensor.ShapeError):
        tensor.layernorm(np.zeros((1, 2, 4)), np.ones(3), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(arrays(np.float32, (4, 7), elements=st.floats(-100, 100, width=32)))
def test_layernorm_row_statistics(x):
    # ramp keeps rows non-constant so the unit-variance target is defined
    x = x + np.arange(7, dtype=np.float32) * 10.0
    assume(np.all(x.astype(np.float64).var(axis=-1) > 1e-3))
    out = tensor.layernorm(x[None], np.ones(7), np.zeros(7), eps=1e-10).astype(np.float64)
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-5)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)


def test_softmax_symmetry():
    out = tensor.softmax_rows(np.array([[0.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[0.5, 0.5]])


def test_softmax_large_entries_no_overflow():
    out = tensor.softmax_rows(np.array([[1000.0, 1000.0]], dtype=np.float32))
    assert np.all(np.isfinite(out))
    assert np.allclose(out, [[0.5, 0.5]])


def test_softmax_closed_form():
    out = tensor.softmax_rows(np.array([[0.0, math.log(3.0)]], dtype=np.float32))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float32, (5, 6), elements=st.floats(-1e4, 1e4, width=32)))
def test_softmax_rows_sum_to_one(x):
    out = tensor.softmax_rows(x).astype(np.float64)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_gelu_zero():
    assert tensor.gelu(np.zeros(3, dtype=np.float32)).tolist() == [0.0, 0.0, 0.0]


def test_gelu_asymptote():
    out = tensor.gelu(np.array([10.0], dtype=np.float32))
    assert abs(float(out[0]) - 10.0) < 1e-4


def test_gelu_odd_decomposition_identity():
    # gelu(x) - gelu(-x) == x for the whole GELU family; holds for the
    # tanh approximation too
    x = np.array([1.0], dtype=np.float32)
    val = float(tensor.gelu(x)[0] - tensor.gelu(-x)[0])
    assert abs(val - 1.0) < 1e-3


@settings(max_examples=50, deadline=None)
@given(arrays(np.float32, (2, 3, 4), elements=st.floats(-50, 50, width=32)))
def test_public_ops_stay_finite(x):
    for out in (
        tensor.gelu(x),
        tensor.layernorm(x, np.ones(4), np.zeros(4)),
        tensor.softmax_rows(x.reshape(6, 4)),
    ):
        assert np.all(np.isfinite(out))


def _layernorm64(x, gamma, beta, eps=1e-6):
    x = x.astype(np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _softmax64(x):
    x = x.astype(np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# the float32 kernels against the float64 formulas at a ViT-B/16 and a
# vit-tiny batch shape, with rows centred at 0 and at 30
_KERNEL_CASES = [(shape, offset) for shape in ((1, 197, 768), (32, 50, 192))
                 for offset in (0.0, 30.0)]


@pytest.mark.parametrize("shape,offset", _KERNEL_CASES)
def test_layernorm_matches_float64(shape, offset):
    rng = np.random.default_rng(11)
    x = (rng.standard_normal(shape) * 2 + offset).astype(np.float32)
    c = shape[-1]
    gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
    beta = rng.standard_normal(c).astype(np.float32)
    out = tensor.layernorm(x, gamma, beta)
    assert out.dtype == np.float32
    # outputs reach about 7 in magnitude, where a float32 step is 4.8e-7;
    # allow four such steps
    assert np.abs(out - _layernorm64(x, gamma, beta)).max() <= 2e-6


@pytest.mark.parametrize("shape,offset", _KERNEL_CASES)
def test_softmax_matches_float64(shape, offset):
    rng = np.random.default_rng(12)
    x = (rng.standard_normal(shape) * 3 + offset).astype(np.float32)
    x = x.reshape(-1, shape[-1])
    out = tensor.softmax_rows(x)
    ref = _softmax64(x)
    assert out.dtype == np.float32
    # the float32 shift and exp cost a few float32 steps of each probability
    assert np.abs(out - ref).max() <= 1e-7
    assert (np.abs(out - ref) / ref).max() <= 1e-5


def test_gelu_bitwise_closed_form():
    x = np.random.default_rng(13).standard_normal((4, 50, 768)).astype(np.float32) * 4
    f = np.float32
    expected = f(0.5) * x * (f(1.0) + np.tanh(
        f(math.sqrt(2.0 / math.pi)) * (x + f(0.044715) * x * x * x)))
    assert np.array_equal(tensor.gelu(x), expected)
    assert tensor.gelu(x[0, 0, 0]) == expected[0, 0, 0]  # a scalar works too


def test_extreme_rows_stay_finite_without_warnings():
    rng = np.random.default_rng(14)
    scores = rng.standard_normal((4, 197)).astype(np.float32)
    scores[0, :2] = 3e38, -3e38     # spans more than the float32 range
    scores[1, 5] = 3e38
    scores[2, :] = -3e38
    rows = rng.standard_normal((4, 768)).astype(np.float32)
    base = np.float32(1e30)
    step = np.spacing(base)
    rows[0] = base + step * rng.integers(0, 4, 768)  # spread of a few float32 steps
    rows[1, 7] = 1e30                                # squares past the float32 range
    rows[2] = base
    rows[3, :2] = 3e38, -3e38                        # spans more than the float32 range
    gamma, beta = np.ones(768, np.float32), np.zeros(768, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sm = tensor.softmax_rows(scores)
        ln = tensor.layernorm(rows, gamma, beta)
    assert np.all(np.isfinite(sm)) and np.all(np.isfinite(ln))
    # same tolerances as the float64 comparisons above
    assert np.abs(sm - _softmax64(scores)).max() <= 1e-7
    assert np.abs(ln - _layernorm64(rows, gamma, beta)).max() <= 2e-6


def test_kernels_leave_inputs_unchanged():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 9, 8)).astype(np.float32)
    gamma = rng.standard_normal(8).astype(np.float32)
    beta = rng.standard_normal(8).astype(np.float32)
    before = [a.copy() for a in (x, gamma, beta)]
    tensor.layernorm(x, gamma, beta)
    tensor.softmax_rows(x.reshape(18, 8))
    tensor.gelu(x)
    for a, b in zip((x, gamma, beta), before):
        assert np.array_equal(a, b)


class TestTtfFormat:
    def test_round_trip(self, tmp_path):
        x = np.random.default_rng(3).standard_normal((2, 5, 4)).astype(np.float32)
        path = tmp_path / "t.ttf"
        tensor.write_ttf(str(path), x)
        back = tensor.read_ttf(str(path))
        assert back.shape == x.shape
        assert np.array_equal(back, x)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "t.ttf"
        tensor.write_ttf(str(path), np.zeros((2, 2), dtype=np.float32))
        assert path.read_bytes()[:4] == b"TTF1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(tensor.FormatError, match="magic"):
            tensor.read_ttf(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ttf"
        tensor.write_ttf(str(path), np.zeros((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(tensor.FormatError, match="trailing"):
            tensor.read_ttf(str(path))

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "t.ttf"
        tensor.write_ttf(str(path), np.zeros((2, 2), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(tensor.TruncatedError, match=str(len(blob) - 3)):
            tensor.read_ttf(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.ttf"
        with pytest.raises(ValueError, match="finite"):
            tensor.write_ttf(str(path), np.array([np.nan], dtype=np.float32))
