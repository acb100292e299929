import dataclasses
import hashlib
import json
import os
import pathlib
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from model_fixtures import overflowing_model, replace_tfw_config_blob, rewrite_tfw_config
from oracles import reference_attention, token_decay, uniform_draws
from tofu import highway, linearity, tensor, vit
from tofu.fusion import MergeMethod, ReduceSpec, apply_reduce, layer_methods, unmerge
from tofu.tensor import FormatError, ShapeError, layernorm
from tofu.vit import ReducePlacement, VitConfig

TINY = VitConfig(depth=2, channels=8, heads=2, patch=16, image=64)


def tiny_model(depth=2, channels=8, heads=2, seed=0, image=64):
    cfg = VitConfig(depth=depth, channels=channels, heads=heads,
                    patch=16, image=image)
    return vit.random_model(cfg, seed)


def rand_tokens(b, n, c, seed=0):
    return np.random.default_rng(seed).standard_normal((b, n, c)).astype(np.float32)


class TestAttention:
    def test_zero_weights_zero_output(self):
        model = tiny_model()
        w = model.blocks[0]
        for attr in ("qkv_weight", "qkv_bias", "proj_weight", "proj_bias"):
            setattr(w, attr, np.zeros_like(getattr(w, attr)))
        out, keys = vit.attention(rand_tokens(2, 5, 8), w, 2)
        assert np.array_equal(out, np.zeros_like(out))
        assert np.array_equal(keys, np.zeros_like(keys))

    def test_single_token_sequence(self):
        model = tiny_model()
        w = model.blocks[0]
        x = rand_tokens(1, 1, 8, seed=3)
        out, _ = vit.attention(x, w, 2)
        # softmax over one token is 1, so output is the plain v -> proj chain
        qkv = x @ w.qkv_weight + w.qkv_bias
        v = qkv[..., 16:]
        expected = v @ w.proj_weight + w.proj_bias
        assert np.allclose(out, expected, atol=1e-6)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(42)
        cfg = VitConfig(depth=1, channels=4, heads=2, patch=16, image=32)
        model = vit.random_model(cfg, 42)
        x = rng.standard_normal((1, 3, 4)).astype(np.float32)
        out, keys = vit.attention(x, model.blocks[0], 2)
        ref_out, ref_keys = reference_attention(x, model.blocks[0], 2)
        assert np.allclose(out, ref_out, atol=1e-5)
        assert np.allclose(vit.head_mean(keys), ref_keys, atol=1e-5)

    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("b,n", [(1, 1), (2, 2), (3, 5), (1, 8), (2, 17), (3, 46)])
    def test_bitwise_equals_query_major_formulation(self, b, n, heads):
        w = tiny_model(channels=12, heads=heads, seed=heads).blocks[0]
        x = rand_tokens(b, n, 12, seed=10 * b + n)
        out, keys = vit.attention(x, w, heads)
        ref_out, ref_keys = query_major_attention(x, w, heads)
        assert out.tobytes() == ref_out.tobytes()
        assert keys.shape == (b, heads, n, 12 // heads)
        assert np.array_equal(keys, ref_keys)

    def test_score_row_beyond_float32_range(self):
        heads, c = 4, 12
        w = tiny_model(channels=c, heads=heads, seed=6).blocks[0]
        x = rand_tokens(2, 7, c, seed=16)
        # head 0's query 0 and its keys each take one channel of x:
        # q[0] = a * x[0, 1] and k[j] = a * x[j, 0], so query 0 scores
        # +-a^2 / sqrt(3) against tokens 0 and 1, a span of 3.8e38
        a = np.float32(np.sqrt(3.3e38))
        w.qkv_weight[:, 0] = w.qkv_weight[:, c] = 0.0
        w.qkv_bias[0] = w.qkv_bias[c] = 0.0
        w.qkv_weight[1, 0] = w.qkv_weight[0, c] = a
        x[:, :, 0] = np.clip(x[:, :, 0], -1.0, 1.0)
        x[:, :2, 0] = 1.0, -1.0
        x[:, :, 1] = 0.0
        x[:, 0, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, keys = vit.attention(x, w, heads)
            ref_out, ref_keys = query_major_attention(x, w, heads)
        assert np.all(np.isfinite(out))
        assert out.tobytes() == ref_out.tobytes()
        assert np.array_equal(keys, ref_keys)

    def test_shape_errors(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            vit.attention(np.zeros((2, 3), dtype=np.float32), model.blocks[0], 2)
        with pytest.raises(ShapeError):
            vit.attention(rand_tokens(1, 3, 6), model.blocks[0], 2)


def query_major_attention(x, w, heads):
    """Attention in float32 steps with query-major scores: softmax rows with
    float64 sums, each head's weighted sum, the heads laid side by side,
    then the projection. Returns the output and the (B, H, N, dh) keys."""
    b, n, c = x.shape
    dh = c // heads
    qkv = (x.reshape(b * n, c) @ w.qkv_weight + w.qkv_bias).reshape(b, n, 3, heads, dh)
    q, k, v = (qkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
    scores = (q @ k.transpose(0, 1, 3, 2)) * np.float32(1.0 / np.sqrt(dh))
    with np.errstate(over="ignore"):
        e = scores - scores.max(axis=3, keepdims=True)
    e = np.exp(e)
    e /= e.sum(axis=3, keepdims=True, dtype=np.float64).astype(np.float32)
    merged = (e @ v).transpose(0, 2, 1, 3).reshape(b * n, c)
    return (merged @ w.proj_weight + w.proj_bias).reshape(b, n, c), k


def mlp_float64(v, w):
    """fc1 -> tanh-gelu -> fc2 in float64."""
    v = np.asarray(v, dtype=np.float64)
    h = v @ w.fc1_weight.astype(np.float64) + w.fc1_bias
    h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h ** 3)))
    return h @ w.fc2_weight.astype(np.float64) + w.fc2_bias


class TestDensePath:
    # float32 GEMMs over C=16 and hidden=64 against float64, relative to the
    # largest output entry
    MLP_RTOL = 1e-5
    # rows GEMM'd together or alone may round differently in float32
    BATCH_RTOL = 1e-6

    # (3, 100, 16) is 300 rows, more than one MLP block
    @pytest.mark.parametrize("shape", [(3, 100, 16), (300, 16), (16,), (1, 1, 16)])
    def test_mlp_map_matches_float64(self, shape):
        w = tiny_model(channels=16, seed=4).blocks[0]
        v = np.random.default_rng(8).standard_normal(shape).astype(np.float32)
        out = vit.mlp_map(v, w)
        ref = mlp_float64(v, w)
        assert out.shape == ref.shape and out.dtype == np.float32
        assert np.abs(out - ref).max() <= self.MLP_RTOL * np.abs(ref).max()

    def test_batch_matches_per_item_calls(self):
        w = tiny_model(channels=16, seed=5).blocks[0]
        x = rand_tokens(3, 100, 16, seed=9)
        assert 3 * 100 > vit.MLP_BLOCK_ROWS
        out, keys = vit.attention(x, w, 2)
        mlp = vit.mlp_map(x, w)
        for i in range(len(x)):
            item_out, item_keys = vit.attention(x[i:i + 1], w, 2)
            for got, alone in ((out[i], item_out[0]), (keys[i], item_keys[0]),
                               (mlp[i], vit.mlp_map(x[i], w))):
                assert np.abs(got - alone).max() <= self.BATCH_RTOL * np.abs(alone).max()


def plain_block(x, w, heads):
    x_star = x + vit.attention(
        layernorm(x, w.norm1_gamma, w.norm1_beta), w, heads)[0]
    return x_star + vit.mlp_map(
        layernorm(x_star, w.norm2_gamma, w.norm2_beta), w)


class TestBlockForward:
    def test_r_zero_equals_plain_block_bitwise(self):
        model = tiny_model()
        x = rand_tokens(2, 9, 8, seed=5)
        for placement in ReducePlacement:
            y, traces = vit.block_forward(
                x, model.blocks[0], 2, MergeMethod.MLERP, 0, placement)
            assert traces is None
            assert np.array_equal(y, plain_block(x, model.blocks[0], 2))

    def test_before_mlp_shrinks_tokens(self):
        model = tiny_model()
        x = rand_tokens(1, 197, 8, seed=6)
        y, traces = vit.block_forward(
            x, model.blocks[0], 2, MergeMethod.AVERAGE, 8,
            ReducePlacement.BEFORE_MLP)
        assert y.shape == (1, 189, 8)
        assert len(traces) == 1

    def test_before_mlp_matches_on_the_head_mean_of_the_keys(self):
        w = tiny_model(seed=3).blocks[0]
        x = rand_tokens(3, 11, 8, seed=17)
        y, traces = vit.block_forward(
            x, w, 2, MergeMethod.MLERP, 3, ReducePlacement.BEFORE_MLP)
        attn, keys = vit.attention(layernorm(x, w.norm1_gamma, w.norm1_beta), w, 2)
        x_star = x + attn
        metric = keys.mean(axis=1, dtype=np.float64).astype(np.float32)
        for i in range(3):
            rows, trace = apply_reduce(x_star[i], metric[i], MergeMethod.MLERP, 3)
            assert np.array_equal(traces[i].match.idx_src, trace.match.idx_src)
            assert np.array_equal(traces[i].match.idx_dst, trace.match.idx_dst)
            alone = rows + vit.mlp_map(layernorm(rows, w.norm2_gamma, w.norm2_beta), w)
            assert y[i].tobytes() == alone.tobytes()

    def test_before_attn_preserves_length(self):
        model = tiny_model()
        x = rand_tokens(2, 12, 8, seed=7)
        y, traces = vit.block_forward(
            x, model.blocks[0], 2, MergeMethod.MLERP, 6,
            ReducePlacement.BEFORE_ATTN)
        assert y.shape == x.shape
        assert traces is not None

    @pytest.mark.parametrize("method", list(MergeMethod))
    def test_before_attn_is_reduce_then_block_then_unmerge(self, method):
        w = tiny_model(seed=4).blocks[0]
        x = rand_tokens(3, 13, 8, seed=19)
        y, traces = vit.block_forward(x, w, 2, method, 4, ReducePlacement.BEFORE_ATTN)
        items = [apply_reduce(x[i], x[i], method, 4) for i in range(3)]
        block = plain_block(np.stack([rows for rows, _ in items]), w, 2)
        alone = np.stack([unmerge(block[i], trace) for i, (_, trace) in enumerate(items)])
        assert y.tobytes() == alone.tobytes()
        for got, (_, trace) in zip(traces, items, strict=True):
            assert np.array_equal(got.match.idx_src, trace.match.idx_src)
            assert np.array_equal(got.match.idx_dst, trace.match.idx_dst)

    @pytest.mark.parametrize("r", [0, 2])
    def test_unknown_placement_rejected(self, r):
        w = tiny_model().blocks[0]
        with pytest.raises(ValueError, match="unknown placement"):
            vit.block_forward(rand_tokens(2, 9, 8), w, 2, MergeMethod.AVERAGE, r,
                              "before_mlp")

    @pytest.mark.parametrize("placement", list(ReducePlacement))
    def test_negative_r_rejected(self, placement):
        w = tiny_model().blocks[0]
        with pytest.raises(ValueError, match="r must be >= 0"):
            vit.block_forward(rand_tokens(2, 9, 8), w, 2, MergeMethod.AVERAGE, -1,
                              placement)

    def test_block_ops_leave_inputs_unchanged(self):
        # the block adds biases and residuals in place, so check that only
        # arrays it allocated itself were written
        model = tiny_model()
        w = model.blocks[0]
        weights = {f: getattr(w, f).copy() for f in vars(w)}
        # the second input has more rows than one MLP block
        for x in (rand_tokens(2, 9, 8, seed=14), rand_tokens(3, 100, 8, seed=15)):
            x_before = x.copy()
            vit.attention(x, w, 2)
            vit.mlp_map(x, w)
            for placement in ReducePlacement:
                for r in (0, 2):
                    vit.block_forward(x, w, 2, MergeMethod.AVERAGE, r, placement)
            highway.highway_forward(x, model, ReduceSpec(r=2),
                                    highway.MbmConfig(t=0.5, enabled=True))
            assert np.array_equal(x, x_before)
        for f, before in weights.items():
            assert np.array_equal(getattr(w, f), before), f

class TestForward:
    def test_linear_decay_counts_vitb_shape(self):
        cfg = VitConfig(depth=12, channels=16, heads=2)  # 197 tokens
        model = vit.random_model(cfg, 1)
        x = rand_tokens(1, cfg.n_tokens, 16, seed=8)
        _, counts = vit.forward(x, model, ReduceSpec(r=8))
        assert counts == [197 - 8 * (l + 1) for l in range(12)]
        assert counts[-1] == 101

    def test_r_zero_counts_constant(self):
        cfg = VitConfig(depth=3, channels=8, heads=2)
        model = vit.random_model(cfg, 1)
        x = rand_tokens(1, cfg.n_tokens, 8, seed=9)
        _, counts = vit.forward(x, model, ReduceSpec(r=0))
        assert counts == [197, 197, 197]

    def test_counts_follow_clamped_decay(self):
        cfg = VitConfig(depth=8, channels=8, heads=2, image=64)  # 17 tokens
        model = vit.random_model(cfg, 2)
        x = rand_tokens(1, cfg.n_tokens, 8, seed=10)
        _, counts = vit.forward(x, model, ReduceSpec(r=5))
        assert counts == token_decay(17, 5, 8)

    def test_threshold_dispatch_matches_manual_blocks(self):
        cfg = VitConfig(depth=4, channels=8, heads=2, image=64)
        model = vit.random_model(cfg, 3)
        x = rand_tokens(1, cfg.n_tokens, 8, seed=11)
        spec = ReduceSpec(r=2, d=2, late_method=MergeMethod.AVERAGE)
        got, _ = vit.forward(x, model, spec)

        methods = layer_methods(spec, 4)
        assert methods == [MergeMethod.PRUNED] * 2 + [MergeMethod.AVERAGE] * 2
        manual = x
        for l, w in enumerate(model.blocks):
            manual, _ = vit.block_forward(
                manual, w, 2, methods[l], 2, ReducePlacement.BEFORE_MLP)
        assert np.array_equal(got, manual)

    def test_before_attn_preserves_length_end_to_end(self):
        cfg = VitConfig(depth=3, channels=8, heads=2, image=64)
        model = vit.random_model(cfg, 4)
        x = rand_tokens(2, cfg.n_tokens, 8, seed=12)
        y, counts = vit.forward(x, model, ReduceSpec(r=4),
                                ReducePlacement.BEFORE_ATTN)
        assert y.shape == x.shape
        assert counts == [cfg.n_tokens] * 3

    def test_classification_head(self):
        cfg = VitConfig(depth=2, channels=8, heads=2, image=64)
        model = vit.random_model(cfg, 5, n_classes=10)
        x = rand_tokens(3, cfg.n_tokens, 8, seed=13)
        logits, _ = vit.forward(x, model, ReduceSpec(r=0))
        assert logits.shape == (3, 10)
        # a config without a class token mean-pools the same tokens instead
        no_cls = vit.VitModel(VitConfig(depth=2, channels=8, heads=2, image=64,
                                        cls_token=False), model.blocks, model.head)
        mean_logits, _ = vit.forward(x, no_cls, ReduceSpec(r=0))
        assert mean_logits.shape == (3, 10)
        assert not np.array_equal(logits, mean_logits)

    @pytest.mark.parametrize("n_classes", [0, 3], ids=["tokens", "logits"])
    @pytest.mark.parametrize("placement", list(ReducePlacement), ids=lambda p: p.value)
    def test_overflowing_model_raises_value_error(self, placement, n_classes):
        model = overflowing_model(n_classes)
        x = rand_tokens(2, model.config.n_tokens, 8, seed=14)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^forward output contains non-finite"):
            vit.forward(x, model, ReduceSpec(r=1), placement)

    def test_readme_library_sketch_as_written(self, capsys):
        # the README's python block, read from it and run unchanged; its
        # counts start as its comment says
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        code = readme.read_text().split("## Library sketch\n\n```python\n")[1]
        code = code.split("```")[0]
        first, second = re.search(r"# counts: (\d+), (\d+), \.\.\.", code).groups()
        scope = {}
        exec(compile(code, "README.md", "exec"), scope)
        assert scope["counts"][:2] == [int(first), int(second)] == [181, 165]
        assert "GFLOPs" in capsys.readouterr().out


# a 2-D or 4-D input, an empty batch, sequences of no tokens, a single vector
MALFORMED_BATCHES = [(5, 8), (1, 2, 5, 8), (0, 5, 8), (2, 0, 8), (8,)]


class TestMalformedBatch:
    @pytest.mark.parametrize("shape", MALFORMED_BATCHES)
    def test_every_entry_point_names_the_shape(self, shape):
        model = tiny_model()
        x = np.zeros(shape, dtype=np.float32)
        calls = [
            lambda: vit.forward(x, model, ReduceSpec(r=2)),
            lambda: vit.block_forward(x, model.blocks[0], 2, MergeMethod.AVERAGE, 2,
                                      ReducePlacement.BEFORE_ATTN),
            lambda: highway.highway_forward(x, model, ReduceSpec(r=2)),
            lambda: linearity.profile_model(model, x, 21, 5),
        ]
        for call in calls:
            with pytest.raises(ShapeError, match=re.escape(str(shape))):
                call()


class TestFlops:
    def test_vitb16_full(self):
        rep = vit.flops_estimate(vit.ARCH_PRESETS["vit-b16"], ReduceSpec(r=0))
        assert rep.total == pytest.approx(17.58e9, rel=0.02)

    def test_vitb16_r8(self):
        rep = vit.flops_estimate(vit.ARCH_PRESETS["vit-b16"], ReduceSpec(r=8))
        assert rep.total == pytest.approx(13.12e9, rel=0.03)

    def test_vitl16_full(self):
        rep = vit.flops_estimate(vit.ARCH_PRESETS["vit-l16"], ReduceSpec(r=0))
        assert rep.total == pytest.approx(61.60e9, rel=0.02)

    def test_total_is_sum_of_parts(self):
        rep = vit.flops_estimate(vit.ARCH_PRESETS["vit-b16"], ReduceSpec(r=12))
        assert rep.total == (sum(pl.attn_flops + pl.mlp_flops
                                 for pl in rep.per_layer)
                             + rep.patch_embed_flops)

    def test_strictly_decreasing_in_r(self):
        cfg = vit.ARCH_PRESETS["vit-b16"]
        totals = [vit.flops_estimate(cfg, ReduceSpec(r=r)).total
                  for r in range(0, 24, 2)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_before_attn_counts_constant_tokens(self):
        cfg = VitConfig(depth=4, channels=8, heads=2)
        rep = vit.flops_estimate(cfg, ReduceSpec(r=8),
                                 ReducePlacement.BEFORE_ATTN)
        assert all(pl.token_count == cfg.n_tokens - 8 for pl in rep.per_layer)

    @pytest.mark.parametrize("placement", ["before_mlp", None])
    def test_unknown_placement_rejected(self, placement):
        with pytest.raises(ValueError, match="unknown placement"):
            vit.token_schedule(197, 16, 12, placement)
        with pytest.raises(ValueError, match="unknown placement"):
            vit.flops_estimate(vit.ARCH_PRESETS["vit-b16"], ReduceSpec(r=16), placement)

    @pytest.mark.parametrize("placement", list(ReducePlacement))
    def test_negative_r_rejected(self, placement):
        with pytest.raises(ValueError, match="r must be >= 0"):
            vit.token_schedule(197, -1, 3, placement)


class TestRandomModel:
    def test_same_seed_identical(self):
        a = vit.random_model(TINY, 7)
        b = vit.random_model(TINY, 7)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.qkv_weight, bb.qkv_weight)
            assert np.array_equal(ba.fc2_bias, bb.fc2_bias)

    def test_different_seeds_differ(self):
        a = vit.random_model(TINY, 7)
        b = vit.random_model(TINY, 8)
        assert not np.array_equal(a.blocks[0].qkv_weight, b.blocks[0].qkv_weight)

    @pytest.mark.parametrize("classes", [None, 5])
    @pytest.mark.parametrize("cfg", [VitConfig(depth=2, channels=12, heads=3, image=32),
                                     VitConfig(depth=1, channels=4, heads=2, image=32)])
    def test_draws_equal_uniform_per_tensor(self, cfg, classes, monkeypatch):
        # an odd chunk far shorter than most tensors, so that they span many
        # chunks and end mid-chunk; C=4 biases fit in one
        monkeypatch.setattr(vit, "DRAW_CHUNK", 7)
        model = vit.random_model(cfg, 3, n_classes=classes)
        owners = model.blocks + ([model.head] if classes else [])
        fields = [(o, f.name) for o in owners for f in dataclasses.fields(o)]
        drawn = [getattr(o, name) for o, name in fields
                 if not name.endswith(("gamma", "beta"))]
        expected = uniform_draws([a.shape for a in drawn], 3, 1.0 / np.sqrt(cfg.channels))
        assert len(drawn) == 8 * cfg.depth + (2 if classes else 0)
        for got, want in zip(drawn, expected):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        for o, name in fields:
            if name.endswith("gamma"):
                assert np.array_equal(getattr(o, name), np.ones(cfg.channels))
            elif name.endswith("beta"):
                assert np.array_equal(getattr(o, name), np.zeros(cfg.channels))

    def test_vit_tiny_seed0_regression_anchor(self):
        # frozen once from the first build of this generator
        model = vit.random_model(vit.ARCH_PRESETS["vit-tiny"], 0)
        h = hashlib.sha256()
        total = 0.0
        for blk in model.blocks:
            for f in dataclasses.fields(vit.BlockWeights):  # in file order
                arr = getattr(blk, f.name)
                h.update(arr.astype("<f4").tobytes())
                total += float(arr.astype(np.float64).sum())
        assert total == pytest.approx(4528.031323722843, rel=1e-9)
        assert h.hexdigest() == (
            "85b1809f0a4c1b21ebb79f123c401e290a972558fa43039874c708a2d4ee7caf")

    def test_vit_tiny_seed0_tfw1_bytes_anchor(self, tmp_path):
        # frozen once from this generator and writer; pins the tensor order,
        # names, draws and the config blob
        model = vit.random_model(vit.ARCH_PRESETS["vit-tiny"], 0, n_classes=10)
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        blob = path.read_bytes()
        assert len(blob) == 21367259
        assert hashlib.sha256(blob).hexdigest() == (
            "61377edbee3e3bb4f48dd0e83888b456ec184a90b3d12c1d110a12a2728709a0")


# Rewrites the file argv[1] with tiny_model(seed=0), and is killed once the
# first tensor record has reached the file.
_KILLED_SAVE = """
import os, signal, sys
from tofu import tensor, vit
write_record = tensor.write_record
def write_and_die(fh, x):
    write_record(fh, x)
    fh.flush()  # as a record larger than the buffer would be
    os.kill(os.getpid(), signal.SIGKILL)
tensor.write_record = write_and_die
cfg = vit.VitConfig(depth=2, channels=8, heads=2, patch=16, image=64)
vit.save_weights(sys.argv[1], vit.random_model(cfg, 0))
"""


class TestWeightFile:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=21)
        path = str(tmp_path / "m.tfw")
        vit.save_weights(path, model)
        back = vit.load_weights(path)
        assert back.config == model.config
        for a, b in zip(model.blocks, back.blocks):
            for f in dataclasses.fields(vit.BlockWeights):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))

    def test_head_round_trip(self, tmp_path):
        cfg = VitConfig(depth=1, channels=8, heads=2, image=32)
        model = vit.random_model(cfg, 1, n_classes=5)
        path = str(tmp_path / "m.tfw")
        vit.save_weights(path, model)
        back = vit.load_weights(path)
        assert back.head is not None
        assert np.array_equal(back.head.weight, model.head.weight)

    def test_magic_bytes(self, tmp_path):
        path = str(tmp_path / "m.tfw")
        vit.save_weights(path, tiny_model())
        with open(path, "rb") as fh:
            assert fh.read(4) == b"TFW1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tfw"
        path.write_bytes(b"WOOF" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            vit.load_weights(str(path))

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), tiny_model())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError,
                           match=rf"cut short \(at byte offset {len(blob) // 2}\)$"):
            vit.load_weights(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), tiny_model())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            vit.load_weights(str(path))

    def test_shorter_and_longer_rewrites_equal_a_fresh_write(self, tmp_path):
        path, fresh = tmp_path / "m.tfw", tmp_path / "fresh.tfw"
        for model in (tiny_model(depth=3), tiny_model(depth=1, seed=1), tiny_model(depth=3)):
            vit.save_weights(str(path), model)
            fresh.unlink(missing_ok=True)
            vit.save_weights(str(fresh), model)
            assert path.read_bytes() == fresh.read_bytes()

    def test_killed_rewrite_fails_the_magic_check(self, tmp_path):
        # seed 0's first tensor over seed 1's file is a well-formed mix of two
        # models, and only the magic, written last, tells it apart
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), tiny_model(seed=1))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(vit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _KILLED_SAVE, str(path)],
                              env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        with pytest.raises(FormatError, match="magic"):
            vit.load_weights(str(path))
        blob = path.read_bytes()
        assert blob[:4] == bytes(4)
        path.write_bytes(b"TFW1" + blob[4:])
        mix = vit.load_weights(str(path))
        first, second = tiny_model(seed=0).blocks[0], tiny_model(seed=1).blocks[0]
        assert np.array_equal(mix.blocks[0].qkv_weight, first.qkv_weight)
        assert np.array_equal(mix.blocks[0].proj_weight, second.proj_weight)
        assert not np.array_equal(first.proj_weight, second.proj_weight)

    def test_entry_is_a_ttf1_record_after_its_name(self, tmp_path):
        # a TFW1 entry is the u16 name length, the name, then exactly what a
        # TTF1 file of the same tensor holds after its magic
        model = tiny_model()
        tfw, ttf = tmp_path / "m.tfw", tmp_path / "t.ttf"
        vit.save_weights(str(tfw), model)
        tensor.write_ttf(str(ttf), model.blocks[1].fc1_weight)
        blob, record = tfw.read_bytes(), ttf.read_bytes()[4:]
        name = b"blocks.1.mlp.fc1.weight"
        at = blob.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        assert blob[at:at + len(record)] == record

    def test_declared_depth_beyond_the_blocks_fails_fast(self, tmp_path):
        # the layout is walked as far as the file holds blocks, so a depth
        # no file could hold costs no more than the blocks that are there
        model = tiny_model(depth=1)
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, depth=1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match=r"missing tensor 'blocks\.1\.attn\.qkv\.weight'"):
                vit.load_weights(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_shape_mismatch_is_format_error_naming_qkv(self, tmp_path):
        model = tiny_model()
        model.blocks[0].qkv_weight = np.zeros((8, 8), dtype=np.float32)
        path = str(tmp_path / "m.tfw")
        vit.save_weights(path, model)
        with pytest.raises(FormatError, match="qkv"):
            vit.load_weights(path)

    def test_missing_tensor_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, depth=3)  # one more block
        with pytest.raises(FormatError, match="missing"):
            vit.load_weights(str(path))

    def test_unknown_tensor_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        blob = bytearray(path.read_bytes())
        # splice a rogue tensor in before the config blob and bump the count
        name = b"blocks.0.rogue"
        extra = (struct.pack("<H", len(name)) + name + struct.pack("<B", 1)
                 + struct.pack("<I", 1) + struct.pack("<f", 1.0))
        (count,) = struct.unpack_from("<I", blob, 4)
        struct.pack_into("<I", blob, 4, count + 1)
        cfg_json = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode()
        body = bytes(blob[: len(blob) - 4 - len(cfg_json)])
        path.write_bytes(body + extra + struct.pack("<I", len(cfg_json)) + cfg_json)
        with pytest.raises(FormatError, match="rogue"):
            vit.load_weights(str(path))

    def test_config_blob_of_wrong_type_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, heads=None)
        with pytest.raises(FormatError, match="config"):
            vit.load_weights(str(path))

    def test_infinite_config_value_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, heads=float("inf"))
        with pytest.raises(FormatError, match="config"):
            vit.load_weights(str(path))

    @pytest.mark.parametrize("change", [
        {"heads": 2.5}, {"heads": "2"}, {"heads": True}, {"cls_token": "false"}])
    def test_config_value_of_wrong_json_type_rejected(self, tmp_path, change):
        # each of these would coerce to a valid config, so only the type check catches it
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, **change)
        with pytest.raises(FormatError, match="invalid TFW1 config blob"):
            vit.load_weights(str(path))

    @pytest.mark.parametrize("key,value", [("mlp_ratoi", 2), ("dpeth", 7)])
    def test_unknown_config_key_rejected(self, tmp_path, key, value):
        # a misspelled optional key would otherwise leave its field at the default
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, **{key: value})
        with pytest.raises(FormatError, match=f"invalid TFW1 config blob: .*{key}"):
            vit.load_weights(str(path))

    def test_missing_config_key_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        cfg = dataclasses.asdict(model.config)
        del cfg["heads"]
        replace_tfw_config_blob(path, model.config, json.dumps(cfg).encode())
        with pytest.raises(FormatError, match="invalid TFW1 config blob: .*heads"):
            vit.load_weights(str(path))

    @pytest.mark.parametrize("blob", [
        b"[]", b"3", b"null", b'"x"',
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deeply-nested")])
    def test_config_blob_not_an_object_rejected(self, tmp_path, blob):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        replace_tfw_config_blob(path, model.config, blob)
        with pytest.raises(FormatError, match="invalid TFW1 config blob"):
            vit.load_weights(str(path))

    def test_out_of_range_config_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        rewrite_tfw_config(path, model.config, heads=0)
        with pytest.raises(FormatError, match="heads"):
            vit.load_weights(str(path))

    @pytest.mark.parametrize("attr,shape", [
        ("norm_gamma", (9,)), ("norm_beta", (1, 8)), ("bias", (1,))])
    def test_misshaped_head_tensor_rejected(self, tmp_path, attr, shape):
        model = vit.random_model(TINY, 0, n_classes=5)
        setattr(model.head, attr, np.ones(shape, dtype=np.float32))
        path = str(tmp_path / "m.tfw")
        vit.save_weights(path, model)
        with pytest.raises(FormatError, match="expected"):
            vit.load_weights(path)

    @pytest.mark.parametrize("dropped", ["norm.gamma", "head.weight", "head.bias"])
    def test_partial_head_rejected(self, tmp_path, dropped):
        model = vit.random_model(TINY, 0, n_classes=5)
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        blob = bytearray(path.read_bytes())
        # cut the dropped tensor's record out and lower the count
        name = dropped.encode()
        start = blob.index(struct.pack("<H", len(name)) + name)
        ndim = blob[start + 2 + len(name)]
        dims = struct.unpack_from(f"<{ndim}I", blob, start + 3 + len(name))
        end = start + 3 + len(name) + 4 * ndim + 4 * int(np.prod(dims))
        (count,) = struct.unpack_from("<I", blob, 4)
        struct.pack_into("<I", blob, 4, count - 1)
        path.write_bytes(bytes(blob[:start] + blob[end:]))
        with pytest.raises(FormatError, match=f"missing tensor '{dropped}'"):
            vit.load_weights(str(path))

    def test_non_finite_tensor_rejected(self, tmp_path):
        # the writer refuses NaN, so patch its bytes into a saved file
        model = tiny_model()
        bias = model.blocks[1].fc2_bias
        bias[:] = 0.25 + np.arange(bias.size, dtype=np.float32)
        path = tmp_path / "m.tfw"
        vit.save_weights(str(path), model)
        blob = bytearray(path.read_bytes())
        at = blob.index(bias.astype("<f4").tobytes()) + 3 * 4
        blob[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            vit.load_weights(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_not_saved(self, tmp_path, value):
        model = tiny_model()
        model.blocks[0].fc1_bias[2] = value
        path = tmp_path / "m.tfw"
        with pytest.raises(ValueError, match=r"blocks\.0\.mlp\.fc1\.bias .*non-finite"):
            vit.save_weights(str(path), model)
        assert not path.exists()


class TestConfig:
    @pytest.mark.parametrize("field", ["depth", "channels", "heads", "mlp_ratio", "patch"])
    def test_non_positive_field_rejected(self, field):
        kwargs = dict(depth=2, channels=8, heads=2, mlp_ratio=4, patch=16, image=64)
        kwargs[field] = 0
        with pytest.raises(ValueError, match=field):
            VitConfig(**kwargs)

    def test_image_smaller_than_patch_rejected(self):
        with pytest.raises(ValueError, match="patch"):
            VitConfig(depth=2, channels=8, heads=2, patch=16, image=8)
