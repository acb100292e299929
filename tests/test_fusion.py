import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import group_mean, group_mlerp, token_decay
from tofu import fusion
from tofu.fusion import MergeMethod, ReduceSpec

FOUR_TOKENS = np.array(
    [[0.0, 1.0], [1.0, 0.0], [0.05, 0.95], [0.04, 0.96]], dtype=np.float32)


class TestApplyReduce:
    def test_r_zero_is_a_permutation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 4)).astype(np.float32)
        reduced, trace = fusion.apply_reduce(x, x, MergeMethod.AVERAGE, 0)
        assert reduced.shape == x.shape
        # [SRC..., DST...] ordering, every input row present exactly once
        assert np.array_equal(np.sort(reduced, axis=0), np.sort(x, axis=0))
        assert np.array_equal(reduced[trace.output_index_of_input], x)

    def test_four_token_pruned(self):
        reduced, trace = fusion.apply_reduce(
            FOUR_TOKENS, FOUR_TOKENS, MergeMethod.PRUNED, 1)
        assert np.array_equal(reduced, FOUR_TOKENS[[1, 0, 2]])
        assert trace.output_index_of_input.tolist() == [1, 0, 2, 2]

    def test_four_token_average(self):
        reduced, _ = fusion.apply_reduce(
            FOUR_TOKENS, FOUR_TOKENS, MergeMethod.AVERAGE, 1)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.045, 0.955]],
                            dtype=np.float32)
        assert np.allclose(reduced, expected, atol=1e-7)

    def test_row_count_always_n_minus_r(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 8, 13, 31):
            x = rng.standard_normal((n, 3)).astype(np.float32)
            for r in range(0, n // 2 + 1):
                reduced, _ = fusion.apply_reduce(x, x, MergeMethod.MLERP, r)
                assert reduced.shape == (n - r, 3)

    def test_r_beyond_src_clamps(self):
        x = np.random.default_rng(2).standard_normal((6, 3)).astype(np.float32)
        reduced, trace = fusion.apply_reduce(x, x, MergeMethod.PRUNED, 100)
        assert reduced.shape[0] == 3  # DST survives
        assert trace.match.clamped

    def test_tiny_input_rejected(self):
        with pytest.raises(ValueError):
            fusion.apply_reduce(np.zeros((1, 3), dtype=np.float32),
                                np.zeros((1, 3), dtype=np.float32),
                                MergeMethod.PRUNED, 0)


class TestMergeKernels:
    def test_pruned_passthrough(self):
        dst = np.random.default_rng(3).standard_normal((4, 5)).astype(np.float32)
        out = fusion.merge_pruned(dst, dst[:2], np.array([0, 1]))
        assert np.array_equal(out, dst)

    def test_pruned_output_subset_of_input(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 4)).astype(np.float32)
        reduced, _ = fusion.apply_reduce(x, x, MergeMethod.PRUNED, 3)
        rows = {row.tobytes() for row in x}
        assert all(row.tobytes() in rows for row in reduced)

    def test_average_three_vector_mean(self):
        dst = np.array([[3.0, 0.0]], dtype=np.float32)
        src = np.array([[0.0, 3.0], [0.0, 0.0]], dtype=np.float32)
        out = fusion.merge_average(dst, src, np.array([0, 0]))
        assert np.allclose(out, [[1.0, 1.0]])

    def test_average_of_identical_vectors(self):
        dst = np.array([[2.5, -1.25]], dtype=np.float32)
        out = fusion.merge_average(dst, dst.copy(), np.array([0]))
        assert np.array_equal(out, dst)

    def test_average_untouched_rows_unchanged(self):
        dst = np.random.default_rng(5).standard_normal((5, 3)).astype(np.float32)
        src = np.array([[1.0, 1.0, 1.0]], dtype=np.float32)
        out = fusion.merge_average(dst, src, np.array([2]))
        for i in (0, 1, 3, 4):
            assert np.array_equal(out[i], dst[i])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), n_src=st.integers(0, 6))
    def test_average_matches_group_by_oracle(self, seed, n_src):
        rng = np.random.default_rng(seed)
        dst = rng.standard_normal((4, 3)).astype(np.float32)
        src = rng.standard_normal((n_src, 3)).astype(np.float32)
        idx = rng.integers(0, 4, size=n_src)
        out = fusion.merge_average(dst, src, idx)
        for d in range(4):
            group = [dst[d]] + [src[k] for k in range(n_src) if idx[k] == d]
            assert np.allclose(out[d], group_mean(group), atol=1e-6)

    def test_mlerp_hand_case(self):
        dst = np.array([[0.0, 4.0]], dtype=np.float32)
        src = np.array([[3.0, 0.0]], dtype=np.float32)
        out, degenerate = fusion.merge_mlerp(dst, src, np.array([0]))
        assert np.allclose(out, [[2.4, 3.2]], atol=1e-6)
        assert not degenerate

    def test_mlerp_identical_copies_exact(self):
        v = np.array([[0.371, -2.25, 9.5]], dtype=np.float32)
        out, degenerate = fusion.merge_mlerp(
            v, np.repeat(v, 3, axis=0), np.array([0, 0, 0]))
        assert np.array_equal(out, v)
        assert not degenerate

    def test_mlerp_antipodal_degenerates_to_mean(self):
        dst = np.array([[1.0, 0.0]], dtype=np.float32)
        src = np.array([[-1.0, 0.0]], dtype=np.float32)
        out, degenerate = fusion.merge_mlerp(dst, src, np.array([0]))
        assert degenerate
        assert np.allclose(out, [[0.0, 0.0]])

    def test_mlerp_degenerate_and_normal_groups_in_one_call(self):
        dst = np.array([[1.0, 0.0], [0.0, 4.0], [5.0, 5.0], [1.0, 2.0]],
                       dtype=np.float32)
        src = np.array([[-1.0, 0.0], [3.0, 0.0], [2.0, -1.0], [0.5, 0.5]],
                       dtype=np.float32)
        idx = np.array([0, 1, 3, 3])
        out, degenerate = fusion.merge_mlerp(dst, src, idx)
        assert degenerate
        # row-by-row float64 form: scale each touched group's mean to its max
        # norm, or keep the plain mean when the mean cancels
        expected = dst.copy()
        for d in (0, 1, 3):
            group = np.concatenate([dst[d:d + 1], src[idx == d]]).astype(np.float64)
            mean = group.mean(axis=0)
            norm = np.sqrt((mean ** 2).sum())
            if norm >= fusion.MLERP_DEGENERATE_EPS:
                mean = mean * (np.sqrt((group ** 2).sum(axis=1)).max() / norm)
            expected[d] = mean.astype(np.float32)
        assert np.array_equal(out, expected)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], [2.4, 3.2], atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(1, 6))
    def test_mlerp_preserves_group_max_norm(self, seed, k):
        rng = np.random.default_rng(seed)
        dst = rng.standard_normal((1, 4)).astype(np.float32) * 2.0
        src = rng.standard_normal((k, 4)).astype(np.float32)
        out, degenerate = fusion.merge_mlerp(dst, src, np.zeros(k, dtype=int))
        if degenerate:
            return
        expected = group_mlerp([dst[0]] + list(src))
        assert np.allclose(out[0], expected, atol=1e-5)
        max_norm = max(np.linalg.norm(v.astype(np.float64)) for v in [dst[0], *src])
        assert np.linalg.norm(out[0].astype(np.float64)) == pytest.approx(
            max_norm, rel=1e-5)


class TestUnmerge:
    def test_r_zero_round_trip_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 3)).astype(np.float32)
        reduced, trace = fusion.apply_reduce(x, x, MergeMethod.AVERAGE, 0)
        assert np.array_equal(fusion.unmerge(reduced, trace), x)

    def test_four_token_average_unmerge(self):
        reduced, trace = fusion.apply_reduce(
            FOUR_TOKENS, FOUR_TOKENS, MergeMethod.AVERAGE, 1)
        out = fusion.unmerge(reduced, trace)
        assert out.shape == (4, 2)
        assert np.allclose(out[2], [0.045, 0.955], atol=1e-7)
        assert np.array_equal(out[2], out[3])
        assert np.array_equal(out[0], FOUR_TOKENS[0])
        assert np.array_equal(out[1], FOUR_TOKENS[1])

    def test_four_token_pruned_unmerge_copies_dst(self):
        reduced, trace = fusion.apply_reduce(
            FOUR_TOKENS, FOUR_TOKENS, MergeMethod.PRUNED, 1)
        out = fusion.unmerge(reduced, trace)
        assert np.array_equal(out[3], FOUR_TOKENS[2])  # copy of its matched dst
        for i in (0, 1, 2):
            assert np.array_equal(out[i], FOUR_TOKENS[i])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 32), seed=st.integers(0, 2**31),
           method=st.sampled_from(list(MergeMethod)))
    def test_unmerge_restores_shape_and_unmerged_rows(self, n, seed, method):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3)).astype(np.float32)
        r = int(rng.integers(0, n // 2 + 1))
        reduced, trace = fusion.apply_reduce(x, x, method, r)
        out = fusion.unmerge(reduced, trace)
        assert out.shape == x.shape
        merged = set(trace.match.idx_src.tolist()) | set(trace.match.idx_dst.tolist())
        if method is MergeMethod.PRUNED:
            merged -= set(trace.match.idx_dst.tolist())  # dst rows pass through
        for i in range(n):
            if i not in merged:
                assert np.array_equal(out[i], x[i])

    def test_shape_mismatch_rejected(self):
        reduced, trace = fusion.apply_reduce(
            FOUR_TOKENS, FOUR_TOKENS, MergeMethod.PRUNED, 1)
        with pytest.raises(ValueError):
            fusion.unmerge(reduced[:-1], trace)


class TestSchedules:
    def test_layer_methods_early_layers_prune(self):
        spec = ReduceSpec(r=8, d=6, late_method=MergeMethod.AVERAGE)
        methods = fusion.layer_methods(spec, 12)
        assert methods[0] is MergeMethod.PRUNED
        assert methods[5] is MergeMethod.PRUNED
        assert methods[6] is MergeMethod.AVERAGE

    def test_layer_methods_threshold_one(self):
        spec = ReduceSpec(r=1, d=1, late_method=MergeMethod.MLERP)
        methods = fusion.layer_methods(spec, 12)
        assert methods == [MergeMethod.PRUNED] + [MergeMethod.MLERP] * 11

    def test_layer_methods_threshold_beyond_depth_prunes_all(self):
        spec = ReduceSpec(r=1, d=20, late_method=MergeMethod.MLERP)
        assert fusion.layer_methods(spec, 12) == [MergeMethod.PRUNED] * 12

    def test_parse_canonical_d6(self):
        methods = fusion.parse_merge_string("PPPPPPAAAAAA", MergeMethod.AVERAGE)
        assert methods == [MergeMethod.PRUNED] * 6 + [MergeMethod.AVERAGE] * 6

    def test_parse_reversed_order(self):
        methods = fusion.parse_merge_string("AAAAAAAAPPPP", MergeMethod.AVERAGE)
        assert methods == [MergeMethod.AVERAGE] * 8 + [MergeMethod.PRUNED] * 4

    def test_parse_bad_character_offset(self):
        with pytest.raises(fusion.MergeStringError) as exc:
            fusion.parse_merge_string("PX")
        assert exc.value.offset == 1

    def test_parse_wrong_length(self):
        with pytest.raises(fusion.MergeStringError):
            fusion.parse_merge_string("PPP", expected_len=12)
        with pytest.raises(fusion.MergeStringError):
            fusion.parse_merge_string("P" * 13, expected_len=12)

    def test_string_dispatch_matches_threshold_form(self):
        for d in range(1, 13):
            spec = ReduceSpec(r=8, d=d, late_method=MergeMethod.MLERP)
            s = "P" * d + "A" * (12 - d)
            parsed = fusion.parse_merge_string(s, spec.late_method)
            assert parsed == fusion.layer_methods(spec, 12)

    def test_layer_methods_uses_merge_string(self):
        spec = ReduceSpec(r=4, merge_string="PAPA",
                          late_method=MergeMethod.AVERAGE)
        assert fusion.layer_methods(spec, 4) == [
            MergeMethod.PRUNED, MergeMethod.AVERAGE,
            MergeMethod.PRUNED, MergeMethod.AVERAGE]

    def test_composed_shape_law(self):
        for n0, r, depth in [(197, 8, 12), (16, 3, 10), (9, 4, 6)]:
            rng = np.random.default_rng(42)
            x = rng.standard_normal((n0, 4)).astype(np.float32)
            counts = []
            for _ in range(depth):
                n = x.shape[0]
                r_eff = min(r, n // 2) if n >= 2 else 0
                if r_eff:
                    x, _ = fusion.apply_reduce(x, x, MergeMethod.PRUNED, r_eff)
                counts.append(x.shape[0])
            assert counts == token_decay(n0, r, depth)


class TestSpecJson:
    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ReduceSpec(r=-1)
        with pytest.raises(ValueError):
            ReduceSpec(r=0, d=0)
