import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_force_match, brute_force_select, group_mean,
                     group_mlerp, replay_reduce, token_decay)
from tofu import fusion, matching
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

    def test_empty_batch_names_its_shape(self):
        x = np.zeros((0, 6, 3), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(0, 6, 3\)"):
            fusion.apply_reduce(x, x, MergeMethod.AVERAGE, 1)

    @pytest.mark.parametrize("rows", [5, 7])
    def test_metric_row_count_must_match(self, rows):
        x = np.random.default_rng(3).standard_normal((6, 3)).astype(np.float32)
        metric = np.ones((rows, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="metric"):
            fusion.apply_reduce(x, metric, MergeMethod.PRUNED, 1)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 40), c=st.integers(1, 8),
           n_zero=st.integers(0, 4), n_dup=st.integers(0, 4),
           group=st.integers(0, 5), method=st.sampled_from(list(MergeMethod)))
    def test_matches_brute_force_and_replay(self, seed, n, c, n_zero, n_dup,
                                            group, method):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c)).astype(np.float32)
        # the first sources sit close to DST 0, so several can merge into it
        near = x[1::2][:group]
        near[:] = x[0] + 0.01 * rng.standard_normal(near.shape)
        x[rng.integers(0, n, n_dup)] = x[rng.integers(0, n, n_dup)]
        x[rng.integers(0, n, n_zero)] = 0.0
        r = int(rng.integers(0, n // 2 + 2))

        reduced, trace = fusion.apply_reduce(x, x, method, r)
        m = trace.match
        src, dst = range(1, n, 2), range(0, n, 2)
        # the selection rule on the program's own similarities, exactly; the
        # selected scores against scalar cosines, which tie order cannot move
        sims = matching.similarity_matrix(x)
        exp_src, exp_dst, _ = brute_force_select(sims, src, dst, r)
        assert m.idx_src.tolist() == exp_src
        assert m.idx_dst.tolist() == exp_dst
        _, _, exp_scores = brute_force_match(x, src, dst, r)
        np.testing.assert_allclose(m.scores, exp_scores, rtol=0, atol=1e-12)

        rows, step = replay_reduce(x, m, method.value)
        assert trace.output_index_of_input.tolist() == [step[i] for i in range(n)]
        fused = set()
        if method is not MergeMethod.PRUNED:
            fused = set(trace.output_index_of_input[m.idx_dst].tolist())
        assert reduced.shape == rows.shape
        for i, (got, want) in enumerate(zip(reduced, rows)):
            if i in fused:
                np.testing.assert_allclose(got, want, rtol=1e-6,
                                           atol=1e-6 * np.abs(want).max())
            else:
                assert got.tobytes() == want.tobytes()


class TestBatchAxis:
    @staticmethod
    def batch(rng, kind, n):
        if kind == "signs":
            # one channel of +-1: a source opposite every destination merges
            # into DST 0, and a {+1, -1} MLERP group is degenerate
            x = rng.choice([-1.0, 1.0], size=(5, n, 1))
            x[1, 0::2], x[1, 1::2] = 1.0, -1.0
        elif kind == "grid":
            x = rng.integers(-2, 3, size=(5, n, 3))  # exact similarity ties
        else:
            x = rng.standard_normal((5, n, 4))
        x = x.astype(np.float32)
        x[0, n // 2] = 0.0  # a zero-norm row
        return x

    @pytest.mark.parametrize("block", [matching.MATCH_BLOCK_ITEMS, 2])
    @pytest.mark.parametrize("method", list(MergeMethod))
    def test_batch_equals_per_item_calls(self, method, block, monkeypatch):
        monkeypatch.setattr(matching, "MATCH_BLOCK_ITEMS", block)
        rng = np.random.default_rng(7)
        degenerate = 0
        for n in (2, 3, 10, 11, 24):
            for kind in ("normal", "grid", "signs"):
                x = self.batch(rng, kind, n)
                for r in (1, n // 2, n // 2 + 2):  # the last one clamps
                    reduced, trace = fusion.apply_reduce(x, x, method, r)
                    m = trace.match
                    assert reduced.shape == (5, n - min(r, n // 2), x.shape[2])
                    assert trace.output_index_of_input.shape == (5, n)
                    assert n - m.idx_src.shape[1] == reduced.shape[1]
                    assert trace.mlerp_degenerate == bool(trace.mlerp_degenerate_groups.any())
                    for i in range(5):
                        one, t = fusion.apply_reduce(x[i], x[i], method, r)
                        assert reduced[i].tobytes() == one.tobytes()
                        assert trace.output_index_of_input[i].tolist() == \
                            t.output_index_of_input.tolist()
                        assert m.idx_src[i].tolist() == t.match.idx_src.tolist()
                        assert m.idx_dst[i].tolist() == t.match.idx_dst.tolist()
                        assert m.scores[i].tobytes() == t.match.scores.tobytes()
                        assert m.clamped == t.match.clamped
                        assert trace.mlerp_degenerate_groups[i] == t.mlerp_degenerate_groups
                    degenerate += int(trace.mlerp_degenerate_groups.sum())
        assert (degenerate > 0) == (method is MergeMethod.MLERP)

    def test_metric_must_share_the_batch_rows(self):
        x = np.zeros((2, 6, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="metric"):
            fusion.apply_reduce(x, x[0], MergeMethod.PRUNED, 1)
        with pytest.raises(ValueError, match="metric"):
            fusion.apply_reduce(x, x[:1], MergeMethod.PRUNED, 1)


class TestMergeKernels:
    def test_pruned_passthrough(self):
        dst = np.random.default_rng(3).standard_normal((4, 5)).astype(np.float32)
        out = fusion.merge_pruned(dst)
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
        # batched rows against a one-sequence trace, and the reverse
        with pytest.raises(ValueError):
            fusion.unmerge(reduced[None], trace)
        batch = np.stack([FOUR_TOKENS, FOUR_TOKENS[::-1]])
        rows, batch_trace = fusion.apply_reduce(batch, batch, MergeMethod.PRUNED, 1)
        for bad in (rows[0], rows[:1], rows[:, :-1]):
            with pytest.raises(ValueError):
                fusion.unmerge(bad, batch_trace)

    @pytest.mark.parametrize("method", list(MergeMethod))
    def test_batched_trace_equals_per_item_calls(self, method):
        rng = np.random.default_rng(9)
        for n, r in ((2, 1), (7, 2), (12, 6), (13, 9)):  # the last one clamps
            x = rng.standard_normal((4, n, 5)).astype(np.float32)
            rows, trace = fusion.apply_reduce(x, x, method, r)
            out = fusion.unmerge(rows, trace)
            assert out.shape == x.shape
            for i in range(len(x)):
                alone = fusion.unmerge(*fusion.apply_reduce(x[i], x[i], method, r))
                assert out[i].tobytes() == alone.tobytes()


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

    def test_layer_methods_threshold_zero_merges_all(self):
        for method in MergeMethod:
            spec = ReduceSpec(r=1, d=0, late_method=method)
            assert fusion.layer_methods(spec, 12) == [method] * 12

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
        with pytest.raises(ValueError, match="r must be >= 0"):
            ReduceSpec(r=-1)
        with pytest.raises(ValueError, match="d must be >= 0"):
            ReduceSpec(r=0, d=-1)
        for bad in (2.5, "4", None, True):
            with pytest.raises(TypeError):
                ReduceSpec(r=bad)
            with pytest.raises(TypeError):
                ReduceSpec(r=4, d=bad)
        with pytest.raises(TypeError, match="d must be an integer"):
            ReduceSpec(r=4, d=False)
        for r in (0, 4):  # a string is refused before any layer runs
            with pytest.raises(TypeError, match="late_method"):
                ReduceSpec(r=r, d=2, late_method="mlerp")

    def test_numpy_integers_accepted(self):
        spec = ReduceSpec(r=np.int64(4), d=np.int32(0))
        assert fusion.layer_methods(spec, 3) == [spec.late_method] * 3

    def test_built_spec_is_frozen(self):
        spec = ReduceSpec(r=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.r = -2
        assert spec.r == 2
