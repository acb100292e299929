import math
import os
import pathlib
import re
import signal
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from model_fixtures import identity_mlp_model
from tofu import fusion, highway, linearity, matching, tensor, vit
from tofu.fusion import MergeMethod, ReduceSpec
from tofu.matching import bipartite_soft_match


@pytest.mark.parametrize("value", [0, 7, np.int64(7), np.int32(0), np.uint8(3)])
def test_check_count_returns_an_int(value):
    got = tensor.check_count(value, "n")
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, "4", None])
def test_check_count_refuses_a_non_integer(value):
    with pytest.raises(TypeError, match="n must be an integer"):
        tensor.check_count(value, "n")


@pytest.mark.parametrize("least", [0, 1, 3])
def test_check_count_refuses_below_least(least):
    assert tensor.check_count(least, "n_steps", least) == least
    with pytest.raises(ValueError, match=f"^n_steps must be >= {least}, got {least - 1}$"):
        tensor.check_count(least - 1, "n_steps", least)


_CFG = dict(depth=2, channels=8, heads=2, mlp_ratio=4, patch=16, image=64)
_X = np.random.default_rng(0).standard_normal((1, 6, 4)).astype(np.float32)
_MODEL = identity_mlp_model(depth=1)

# every library entry point that takes a count: (field, least, call), where
# call(v) passes v as that count and a valid value for everything else
COUNT_ENTRY_POINTS = {
    "ReduceSpec.r": ("r", 0, lambda v: ReduceSpec(r=v)),
    "ReduceSpec.d": ("d", 0, lambda v: ReduceSpec(r=4, d=v)),
    **{f"VitConfig.{f}": (f, 1, lambda v, f=f: vit.VitConfig(**{**_CFG, f: v}))
       for f in ("depth", "channels", "heads", "mlp_ratio", "patch")},
    "VitConfig.image": ("image", 16, lambda v: vit.VitConfig(**{**_CFG, "image": v})),
    "token_schedule.r": ("r", 0, lambda v: vit.token_schedule(197, v, 12)),
    **{f"block_forward.r.{pl.value}": ("r", 0, lambda v, pl=pl: vit.block_forward(
        _X, _MODEL.blocks[0], 2, MergeMethod.AVERAGE, v, pl)) for pl in vit.ReducePlacement},
    "highway_block.r": ("r", 0, lambda v: highway.highway_block(
        *highway.init_state(_X), _MODEL.blocks[0], 2, MergeMethod.AVERAGE, v)),
    "bipartite_soft_match.r": ("r", 0, lambda v: bipartite_soft_match(_X[0], v)),
    "functional_linearity.n_steps": ("n_steps", 3, lambda v: linearity.functional_linearity(
        lambda y: y, _X[0, 0], _X[0, 1], v)),
    "profile_model.n_steps": ("n_steps", 3, lambda v: linearity.profile_model(_MODEL, _X, v, 1)),
    "profile_model.pair_r": ("pair_r", 0, lambda v: linearity.profile_model(_MODEL, _X, 21, v)),
    "random_model.seed": ("seed", 0, lambda v: vit.random_model(vit.VitConfig(**_CFG), v)),
    "random_model.n_classes": ("n_classes", 0, lambda v: vit.random_model(
        vit.VitConfig(**_CFG), 0, n_classes=v)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_takes_the_one_rule(entry):
    field, least, call = COUNT_ENTRY_POINTS[entry]
    for value in (True, 2.5):
        with pytest.raises(TypeError, match=f"^{field}.* must be an integer"):
            call(value)
    with pytest.raises(ValueError, match=f"^{field}.* must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("n_classes", [None, 0])
def test_random_model_without_classes_has_no_head(n_classes):
    assert vit.random_model(vit.VitConfig(**_CFG), 0, n_classes=n_classes).head is None


_W = _MODEL.blocks[0]
_TRACE = fusion.apply_reduce(_X[0], _X[0], MergeMethod.PRUNED, 1)[1]
# an x that apply_reduce rejects, reduced against itself: wrong ranks, one
# row, an empty batch, no channels
_BAD_REDUCE_INPUTS = {"0d": (), "1d": (4,), "4d": (1, 2, 6, 4), "one_row": (1, 4),
                      "one_row_batch": (2, 1, 4), "empty_batch": (0, 6, 4),
                      "no_channels": (8, 0), "no_channels_batch": (2, 8, 0)}

# every shape check in the library: (call, bad), where call() passes one
# input of shape bad and valid values for everything else
SHAPE_CHECKS = {
    **{f"apply_reduce.{name}": (lambda shape=shape: fusion.apply_reduce(
        np.zeros(shape), np.zeros(shape), MergeMethod.PRUNED, 1), shape)
       for name, shape in _BAD_REDUCE_INPUTS.items()},
    # a merge, which pruned skips, would fail inside numpy's reshape
    "apply_reduce.no_channels.mlerp": (lambda: fusion.apply_reduce(
        np.zeros((2, 8, 0)), np.zeros((2, 8, 0)), MergeMethod.MLERP, 1), (2, 8, 0)),
    "apply_reduce.metric_rows": (
        lambda: fusion.apply_reduce(_X, _X[0], MergeMethod.PRUNED, 1), (6, 4)),
    "bipartite_soft_match": (lambda: bipartite_soft_match(np.zeros((2, 1, 3)), 1), (2, 1, 3)),
    "similarity_matrix": (lambda: matching.similarity_matrix(np.zeros(5)), (5,)),
    "unmerge": (lambda: fusion.unmerge(_X[0, :4], _TRACE), (4, 4)),
    "distribute": (lambda: highway.distribute(_X[0], np.zeros((1, 6), int)), (6, 4)),
    "mbm_mask.rank": (lambda: highway.mbm_mask(_X[0], np.zeros((1, 6), bool), 1.0), (6, 4)),
    "mbm_mask.affected": (lambda: highway.mbm_mask(
        _X, np.zeros((1, 5), bool), 1.0), (1, 5)),
    "update_index.rank": (lambda: highway.update_index(
        np.zeros((2, 5), int), np.zeros(2, int)), (2,)),
    "update_index.batch": (lambda: highway.update_index(
        np.zeros((2, 5), int), np.zeros((3, 5), int)), (3, 5)),
    "interpolate": (lambda: linearity.interpolate(np.zeros(2), np.zeros(3), 0.5), (3,)),
    "path_length": (lambda: linearity.path_length(np.zeros(5)), (5,)),
    "functional_linearity": (lambda: linearity.functional_linearity(
        lambda y: y[:, 0], np.zeros(2), np.ones(2), 5), (5,)),
    "layernorm": (lambda: tensor.layernorm(_X, np.ones(3), np.zeros(3)), (3,)),
    "softmax_rows": (lambda: tensor.softmax_rows(np.float32(1)), ()),
    "attention.rank": (lambda: vit.attention(_X[0], _W, 2), (6, 4)),
    "attention.heads": (lambda: vit.attention(_X, _W, 3), (1, 6, 4)),
    "attention.qkv": (lambda: vit.attention(_X[..., :2], _W, 2), (1, 6, 2)),
    "mlp_map": (lambda: vit.mlp_map(_X[..., :3], _W), (1, 6, 3)),
    "mlp_map.0d": (lambda: vit.mlp_map(np.float32(1), _W), ()),
    "check_batch": (lambda: vit.forward(_X[0], _MODEL, ReduceSpec(r=1)), (6, 4)),
}


@pytest.mark.parametrize("entry", SHAPE_CHECKS)
def test_every_shape_check_raises_shape_error(entry):
    call, bad = SHAPE_CHECKS[entry]
    with pytest.raises(tensor.ShapeError, match=re.escape(str(bad))):
        call()


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


def test_softmax_rows_of_a_transposed_view_equals_the_row_form():
    rng = np.random.default_rng(16)
    x = (rng.standard_normal((6, 46, 46)) * 3).astype(np.float32)
    x[2, :2, 5] = 3e38, -3e38  # row 5 of item 2's transpose spans past float32
    t = x.swapaxes(1, 2)  # the last axis strided
    rows = np.ascontiguousarray(t).reshape(-1, 46)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tensor.softmax_rows(t)
        want = tensor.softmax_rows(rows).reshape(t.shape)
    assert got.shape == t.shape and got.dtype == np.float32
    # the strided rows add their float64 sums in another order; cast to
    # float32, this data's sums agree bit for bit
    assert got.tobytes(order="C") == want.tobytes()
    assert tensor.softmax_rows(x[0, 0]).tobytes() == tensor.softmax_rows(x[0, :1])[0].tobytes()


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


# Rewrites the file argv[1] with a (4, 16) TTF1 of ones, and is killed once
# its record has reached the file, before the cut and the magic.
_KILLED_REWRITE = """
import os, signal, sys
import numpy as np
from tofu import tensor
write_record = tensor.write_record
def write_and_die(fh, x):
    write_record(fh, x)
    fh.flush()  # as a record larger than the buffer would be
    os.kill(os.getpid(), signal.SIGKILL)
tensor.write_record = write_and_die
tensor.write_ttf(sys.argv[1], np.ones((4, 16), dtype=np.float32))
"""


class TestRewrite:
    def test_shorter_and_longer_rewrites_equal_a_fresh_write(self, tmp_path):
        rng = np.random.default_rng(4)
        long_x = rng.standard_normal((3, 50, 8)).astype(np.float32)
        short_x = rng.standard_normal((2, 7)).astype(np.float32)
        path, fresh = tmp_path / "t.ttf", tmp_path / "fresh.ttf"
        for x in (long_x, short_x, long_x):
            tensor.write_ttf(str(path), x)
            fresh.unlink(missing_ok=True)
            tensor.write_ttf(str(fresh), x)
            assert path.read_bytes() == fresh.read_bytes()
            assert np.array_equal(tensor.read_ttf(str(path)), x)

    def test_inode_links_and_mode_kept(self, tmp_path):
        path, link = tmp_path / "t.ttf", tmp_path / "link.ttf"
        tensor.write_ttf(str(path), np.zeros((4, 4), dtype=np.float32))
        path.chmod(0o640)
        os.link(path, link)
        inode = path.stat().st_ino
        x = np.ones((2, 3), dtype=np.float32)
        tensor.write_ttf(str(path), x)
        after = path.stat()
        assert (after.st_ino, after.st_nlink, stat.S_IMODE(after.st_mode)) == (inode, 2, 0o640)
        assert np.array_equal(tensor.read_ttf(str(link)), x)

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain", "wb"):
            pass
        tensor.write_ttf(str(tmp_path / "t.ttf"), np.zeros(3, dtype=np.float32))
        assert (tmp_path / "t.ttf").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_failed_write_leaves_an_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ttf"
        tensor.write_ttf(str(path), np.zeros((64, 64), dtype=np.float32))

        def write_then_fail(fh, x):
            fh.write(b"\x01" * 100_000)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tensor, "write_record", write_then_fail)
        with pytest.raises(OSError, match="No space"):
            tensor.write_ttf(str(path), np.ones((2, 2), dtype=np.float32))
        assert path.stat().st_size == 0

    def test_killed_rewrite_fails_the_magic_check(self, tmp_path):
        # the old file has the new one's shape, so the new record over it
        # would read as a well-formed file if the magic were already there
        path, fresh = tmp_path / "t.ttf", tmp_path / "fresh.ttf"
        tensor.write_ttf(str(path), np.zeros((4, 16), dtype=np.float32))
        tensor.write_ttf(str(fresh), np.ones((4, 16), dtype=np.float32))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tensor.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _KILLED_REWRITE, str(path)],
                              env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        blob = path.read_bytes()
        assert blob[:4] == bytes(4) and blob[4:] == fresh.read_bytes()[4:]
        with pytest.raises(tensor.FormatError, match="magic"):
            tensor.read_ttf(str(path))

    def test_pipe_and_device_targets_are_written_uncut(self, tmp_path):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        fresh = tmp_path / "fresh.ttf"
        tensor.write_ttf(str(fresh), x)
        tensor.write_ttf("/dev/null", x)
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            with os.fdopen(w, "wb"):
                # the record fits in the pipe's buffer, so nothing blocks
                tensor.write_ttf(f"/dev/fd/{w}", x)
            assert reader.read() == fresh.read_bytes()
