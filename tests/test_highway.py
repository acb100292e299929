import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_fixtures import overflowing_model, recorded_highway_reduces
from oracles import naive_highway
from tofu import highway, vit
from tofu.fusion import MergeMethod, ReduceSpec, apply_reduce, layer_methods
from tofu.highway import MbmConfig

FOUR_TOKENS = np.array(
    [[0.0, 1.0], [1.0, 0.0], [0.05, 0.95], [0.04, 0.96]], dtype=np.float32)


def tiny_model(depth=2, channels=8, heads=2, seed=0):
    cfg = vit.VitConfig(depth=depth, channels=channels, heads=heads,
                        patch=16, image=64)
    return vit.random_model(cfg, seed)


class TestUpdateIndex:
    def test_identity_before_any_reduce(self):
        _, _, index = highway.init_state(np.zeros((1, 4, 2), dtype=np.float32))
        assert index[0].tolist() == [0, 1, 2, 3]

    def test_single_merge_collapses_positions(self):
        _, trace = apply_reduce(FOUR_TOKENS, FOUR_TOKENS, MergeMethod.AVERAGE, 1)
        idx = highway.update_index(np.arange(4)[None],
                                   trace.output_index_of_input[None])[0]
        assert idx[2] == idx[3]
        assert len({idx[0], idx[1], idx[2]}) == 3

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(4, 16),
           steps=st.integers(1, 3))
    def test_composition_matches_brute_force(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3)).astype(np.float32)
        idx = np.arange(n)
        composed = {i: i for i in range(n)}
        for _ in range(steps):
            if x.shape[0] < 2:
                break
            r = int(rng.integers(1, max(2, x.shape[0] // 2 + 1)))
            x, trace = apply_reduce(x, x, MergeMethod.PRUNED, r)
            idx = highway.update_index(idx[None], trace.output_index_of_input[None])[0]
            step = {i: int(trace.output_index_of_input[i])
                    for i in range(len(trace.output_index_of_input))}
            composed = {p: step[composed[p]] for p in composed}
        assert idx.tolist() == [composed[p] for p in range(n)]

    def test_batch_composes_each_item_through_its_own_map(self):
        maps = np.array([[0, 1, 1, 2], [2, 0, 1, 0]])
        index = np.array([[3, 2, 1, 0, 0], [0, 1, 2, 3, 3]])
        assert highway.update_index(index, maps).tolist() == [
            [2, 1, 1, 0, 0], [2, 0, 1, 0, 0]]

    @pytest.mark.parametrize("method", list(MergeMethod))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), b=st.integers(1, 4),
           n=st.integers(4, 16), r=st.integers(1, 4), depth=st.integers(1, 3))
    def test_block_bookkeeping_equals_per_item(self, method, seed, b, n, r, depth):
        # index and merged positions of highway_block against a per-item
        # composition: a position is merged once its local row is in
        # idx_src | idx_dst
        rng = np.random.default_rng(seed)
        model = tiny_model(depth=depth, seed=seed % 1000)
        x = rng.standard_normal((b, n, 8)).astype(np.float32)
        x[:, 1::4] = x[:, :1]  # several sources share destination 0
        x_full, x_local, hw_index = highway.init_state(x)
        index = np.tile(np.arange(n), (b, 1))
        affected = np.zeros((b, n), dtype=bool)
        for w in model.blocks:
            with recorded_highway_reduces() as traces:
                x_full, x_local, hw_index = highway.highway_block(
                    x_full, x_local, hw_index, w, 2, method, r)
            for i, trace in enumerate(traces):
                m = trace.match
                touched = set(m.idx_src.tolist()) | set(m.idx_dst.tolist())
                for p in range(n):
                    affected[i, p] |= int(index[i, p]) in touched
                    index[i, p] = trace.output_index_of_input[index[i, p]]
            assert np.array_equal(hw_index, index)
            assert np.array_equal(
                highway._merged_positions(hw_index, x_local.shape[1]), affected)

    def test_out_of_range_rejected(self):
        _, trace = apply_reduce(FOUR_TOKENS, FOUR_TOKENS, MergeMethod.PRUNED, 1)
        with pytest.raises(IndexError):
            highway.update_index(np.array([[0, 1, 9]]),
                                 trace.output_index_of_input[None])


class TestDistribute:
    def test_identity_index(self):
        f = np.arange(6, dtype=np.float32).reshape(1, 3, 2)
        out = highway.distribute(f, np.array([[0, 1, 2]]))
        assert np.array_equal(out, f)

    def test_copies_merged_rows(self):
        f = np.array([[[1.0, 1], [2, 2], [3, 3]]], dtype=np.float32)
        out = highway.distribute(f, np.array([[0, 1, 2, 2]]))
        assert np.array_equal(out, [[[1, 1], [2, 2], [3, 3], [3, 3]]])

    def test_restores_ordering_after_r0_reduce(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 3)).astype(np.float32)
        reduced, trace = apply_reduce(x, x, MergeMethod.AVERAGE, 0)
        idx = highway.update_index(np.arange(7)[None], trace.output_index_of_input[None])
        assert np.array_equal(highway.distribute(reduced[None], idx), x[None])

    def test_dangling_index_rejected(self):
        with pytest.raises(IndexError):
            highway.distribute(np.zeros((1, 2, 3), dtype=np.float32),
                               np.array([[0, 1, 2]]))
        with pytest.raises(IndexError):
            highway.distribute(np.zeros((2, 2, 3), dtype=np.float32),
                               np.array([[0, 1, 0], [1, 2, 0]]))

    def test_single_sequence_rejected(self):
        # a 2-D (M, C) input would gather along the wrong axis
        f = np.zeros((3, 2), dtype=np.float32)
        for rows, index in ((f, np.array([0, 1, 2])), (f[None], np.array([0, 1, 2])),
                            (f[None], np.array([[0, 1], [1, 2]]))):
            with pytest.raises(ValueError):
                highway.distribute(rows, index)

    def test_batched_distribute_and_mask_equal_per_item_bitwise(self):
        rng = np.random.default_rng(3)
        b, m, n, c = 4, 5, 9, 3
        f = rng.standard_normal((b, m, c)).astype(np.float32)
        index = rng.integers(0, m, size=(b, n))
        x_full = rng.standard_normal((b, n, c)).astype(np.float32)
        affected = rng.random((b, n)) < 0.5
        out = highway.distribute(f, index)
        assert np.array_equal(out, np.concatenate(
            [highway.distribute(f[i:i + 1], index[i:i + 1]) for i in range(b)]))
        mask = highway.mbm_mask(x_full, affected, 0.7)
        per_item = np.concatenate([highway.mbm_mask(x_full[i:i + 1], affected[i:i + 1], 0.7)
                                   for i in range(b)])
        assert mask.dtype == np.float32
        assert mask.tobytes() == per_item.tobytes()


class TestMbmMask:
    def test_infinite_threshold_all_ones(self):
        x = np.random.default_rng(0).standard_normal((1, 4, 3)).astype(np.float32)
        mask = highway.mbm_mask(x, np.ones((1, 4), dtype=bool), np.inf)
        assert np.array_equal(mask, np.ones_like(x))

    def test_zero_threshold_masks_all_merged(self):
        x = np.random.default_rng(1).standard_normal((1, 4, 3)).astype(np.float32)
        mask = highway.mbm_mask(x, np.ones((1, 4), dtype=bool), 0.0)
        assert np.array_equal(mask == 0.0, np.abs(x) >= 0.0)

    def test_elementwise_rule(self):
        x = np.zeros((1, 4, 2), dtype=np.float32)
        x[0, 2] = [5.0, 0.5]
        affected = np.zeros((1, 4), dtype=bool)
        affected[0, 2] = True
        mask = highway.mbm_mask(x, affected, 1.0)
        assert mask[0, 2].tolist() == [0.0, 1.0]
        assert np.array_equal(mask[0, [0, 1, 3]], np.ones((3, 2), dtype=np.float32))


class TestHighwayBlocks:
    def test_r_zero_equals_plain_forward_bitwise(self):
        model = tiny_model(depth=3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 9, 8)).astype(np.float32)
        hw_out, counts = highway.highway_forward(x, model, ReduceSpec(r=0))
        plain, _ = vit.forward(x, model, ReduceSpec(r=0))
        assert hw_out.tobytes() == plain.tobytes()
        assert counts == [9, 9, 9]

    @pytest.mark.parametrize("mbm", [MbmConfig(), MbmConfig(t=0.5, enabled=True)],
                             ids=["mbm_off", "mbm_on"])
    @pytest.mark.parametrize("r", [0, 2])
    def test_input_bitwise_unchanged(self, r, mbm):
        # init_state hands x itself to both paths, so no block may write them
        model = tiny_model(depth=3)
        x = np.random.default_rng(7).standard_normal((2, 10, 8)).astype(np.float32)
        before = x.copy()
        spec = ReduceSpec(r=r, d=1, late_method=MergeMethod.MLERP)
        highway.highway_forward(x, model, spec, mbm)
        assert x.tobytes() == before.tobytes()

        state = highway.init_state(x)
        assert state[0] is x and state[1] is x
        for method, w in zip(layer_methods(spec, 3), model.blocks):
            state = highway.highway_block(*state, w, 2, method, r, mbm)
        assert x.tobytes() == before.tobytes()

    def test_merged_positions_share_residuals(self):
        model = tiny_model(depth=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 8, 8)).astype(np.float32)
        with recorded_highway_reduces() as traces:
            x_full, _, index = highway.highway_block(
                *highway.init_state(x), model.blocks[0], 2, MergeMethod.AVERAGE, 1)
        trace = traces[0]
        s = int(trace.match.idx_src[0])
        d = int(trace.match.idx_dst[0])
        # both positions resolve to one local row, so they are handed the
        # same contribution; recovering it by subtraction reintroduces the
        # rounding of the two different residual bases
        assert index[0, s] == index[0, d]
        delta = x_full[0] - x[0]
        assert np.allclose(delta[s], delta[d], rtol=1e-6, atol=1e-6)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31),
           method=st.sampled_from(list(MergeMethod)),
           n=st.integers(6, 16), depth=st.integers(2, 3))
    def test_stacked_equals_naive_oracle(self, seed, method, n, depth):
        rng = np.random.default_rng(seed)
        model = tiny_model(depth=depth, seed=seed % 1000)
        x = rng.standard_normal((2, n, 8)).astype(np.float32)
        spec = ReduceSpec(r=2, d=0, late_method=method)
        methods = layer_methods(spec, depth)

        state = highway.init_state(x)
        traces_per_block = []
        for l, w in enumerate(model.blocks):
            with recorded_highway_reduces() as traces:
                state = highway.highway_block(*state, w, 2, methods[l], spec.r)
            traces_per_block.append(traces or None)

        ref_full, ref_local = naive_highway(
            x, model, [m.value for m in methods], traces_per_block)
        x_full, x_local, _ = state
        assert np.allclose(x_full, ref_full, rtol=1e-6, atol=1e-6)
        assert np.allclose(x_local, ref_local, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("t", [-1.0, float("nan")])
    def test_mbm_threshold_below_zero_or_nan_rejected(self, t):
        # no magnitude compares above NaN, so that mask would never fire
        with pytest.raises(ValueError, match="MBM threshold"):
            MbmConfig(t=t, enabled=True)

    def test_mbm_infinite_threshold_is_bit_exact_noop(self):
        model = tiny_model(depth=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 10, 8)).astype(np.float32)
        spec = ReduceSpec(r=2, late_method=MergeMethod.AVERAGE, d=2)
        plain, _ = highway.highway_forward(x, model, spec, MbmConfig(enabled=False))
        masked, _ = highway.highway_forward(
            x, model, spec, MbmConfig(t=np.inf, enabled=True))
        assert plain.tobytes() == masked.tobytes()

    def test_mbm_against_naive_oracle(self):
        model = tiny_model(depth=2, seed=5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 10, 8)).astype(np.float32)
        spec = ReduceSpec(r=2, d=0, late_method=MergeMethod.AVERAGE)
        methods = layer_methods(spec, 2)
        mbm = MbmConfig(t=0.5, enabled=True)
        state = highway.init_state(x)
        traces_per_block = []
        for l, w in enumerate(model.blocks):
            with recorded_highway_reduces() as traces:
                state = highway.highway_block(*state, w, 2, methods[l], spec.r, mbm)
            traces_per_block.append(traces or None)
        ref_full, _ = naive_highway(x, model, [m.value for m in methods],
                                    traces_per_block, mbm_enabled=True, mbm_t=0.5)
        assert np.allclose(state[0], ref_full, rtol=1e-6, atol=1e-6)

    def test_negative_r_rejected(self):
        state = highway.init_state(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="r must be >= 0"):
            highway.highway_block(*state, tiny_model().blocks[0], 2,
                                  MergeMethod.AVERAGE, -1)

    def test_local_counts_decay(self):
        model = tiny_model(depth=3)
        x = np.random.default_rng(6).standard_normal((1, 12, 8)).astype(np.float32)
        _, counts = highway.highway_forward(
            x, model, ReduceSpec(r=3, late_method=MergeMethod.AVERAGE, d=1))
        assert counts == [9, 6, 3]

    @pytest.mark.parametrize("mbm", [MbmConfig(), MbmConfig(t=1.0, enabled=True)],
                             ids=["mbm_off", "mbm_on"])
    def test_overflowing_model_raises_value_error(self, mbm):
        model = overflowing_model()
        x = np.random.default_rng(7).standard_normal(
            (2, model.config.n_tokens, 8)).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^highway_forward output contains non-finite"):
            highway.highway_forward(x, model, ReduceSpec(r=1), mbm)
