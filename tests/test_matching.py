import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_match, brute_force_select
from tofu import cli, matching


def test_partition_alternating():
    p = matching.partition(4)
    assert p.src.tolist() == [1, 3]
    assert p.dst.tolist() == [0, 2]


def test_partition_odd_count():
    p = matching.partition(5)
    assert p.src.tolist() == [1, 3]
    assert p.dst.tolist() == [0, 2, 4]


def test_partition_minimum():
    p = matching.partition(2)
    assert p.src.tolist() == [1]
    assert p.dst.tolist() == [0]


def test_partition_too_small():
    with pytest.raises(ValueError):
        matching.partition(1)


def test_partition_is_exact_cover():
    for n in (2, 3, 7, 16, 197):
        p = matching.partition(n)
        both = set(p.src.tolist()) | set(p.dst.tolist())
        assert both == set(range(n))
        assert not set(p.src.tolist()) & set(p.dst.tolist())


def test_partition_cls_lands_in_dst():
    p = matching.partition(10)
    assert 0 in p.dst.tolist()
    assert 0 not in p.src.tolist()


def test_similarity_identical_and_orthogonal():
    metric = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                      dtype=np.float32)
    p = matching.partition(4)
    sims = matching.similarity_matrix(metric, p)
    # SRC=[1,3], DST=[0,2]
    assert sims[0, 0] == pytest.approx(1.0)   # identical unit vectors
    assert sims[0, 1] == pytest.approx(0.0)   # orthogonal
    assert np.all(sims[1] == -1.0)            # zero-norm row


def test_similarity_hand_cosine():
    metric = np.zeros((4, 2), dtype=np.float32)
    metric[1] = [1.0, 0.0]
    metric[2] = [0.05, 0.95]
    p = matching.partition(4)
    sims = matching.similarity_matrix(metric, p)
    assert sims[0, 1] == pytest.approx(0.0526, abs=1e-3)


FOUR_TOKENS = np.array(
    [[0.0, 1.0], [1.0, 0.0], [0.05, 0.95], [0.04, 0.96]], dtype=np.float32)


def test_match_four_token_example_r1():
    p = matching.partition(4)
    m = matching.bipartite_soft_match(FOUR_TOKENS, p, 1)
    assert m.idx_src.tolist() == [3]
    assert m.idx_dst.tolist() == [2]
    assert not m.clamped


def test_match_four_token_example_r2_dst_recurs():
    p = matching.partition(4)
    m = matching.bipartite_soft_match(FOUR_TOKENS, p, 2)
    assert m.idx_src.tolist() == [3, 1]
    assert m.idx_dst.tolist() == [2, 2]


def test_match_r_zero_is_empty():
    p = matching.partition(4)
    m = matching.bipartite_soft_match(FOUR_TOKENS, p, 0)
    assert m.idx_src.size == 0 and m.idx_dst.size == 0


def test_match_r_beyond_src_clamps_with_flag():
    p = matching.partition(4)
    m = matching.bipartite_soft_match(FOUR_TOKENS, p, 99)
    assert m.clamped
    assert len(m.idx_src) == len(p.src)


def test_match_scores_non_increasing():
    rng = np.random.default_rng(7)
    metric = rng.standard_normal((20, 6)).astype(np.float32)
    m = matching.bipartite_soft_match(metric, matching.partition(20), 8)
    assert all(a >= b for a, b in zip(m.scores, m.scores[1:]))


def _assert_matches_oracle(metric, r):
    p = matching.partition(len(metric))
    m = matching.bipartite_soft_match(metric, p, r)
    exp_src, exp_dst, _ = brute_force_match(metric, p.src, p.dst, r)
    assert m.idx_src.tolist() == exp_src
    assert m.idx_dst.tolist() == exp_dst


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 24),
    c=st.integers(1, 8),
    r_frac=st.floats(0, 1),
    seed=st.integers(0, 2**31),
)
def test_match_equals_brute_force(n, c, r_frac, seed):
    rng = np.random.default_rng(seed)
    metric = rng.standard_normal((n, c)).astype(np.float32)
    _assert_matches_oracle(metric, int(r_frac * (n // 2)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**31))
def test_match_tie_breaks_match_selection_oracle(n, seed):
    # small integer grids force exact similarity ties; run the brute-force
    # selection on the library's own matrix so both sides see identical
    # scores and the documented index tie-break is what gets exercised
    rng = np.random.default_rng(seed)
    metric = rng.integers(-2, 3, size=(n, 3)).astype(np.float32)
    p = matching.partition(n)
    sims = matching.similarity_matrix(metric, p)
    m = matching.bipartite_soft_match(metric, p, n // 2)
    exp_src, exp_dst, _ = brute_force_select(sims, p.src, p.dst, n // 2)
    assert m.idx_src.tolist() == exp_src
    assert m.idx_dst.tolist() == exp_dst


def test_match_deterministic_across_calls():
    rng = np.random.default_rng(11)
    metric = rng.standard_normal((32, 8)).astype(np.float32)
    p = matching.partition(32)
    first = matching.bipartite_soft_match(metric, p, 10)
    for _ in range(3):
        again = matching.bipartite_soft_match(metric, p, 10)
        assert np.array_equal(first.idx_src, again.idx_src)
        assert np.array_equal(first.idx_dst, again.idx_dst)
        assert np.array_equal(first.scores, again.scores)


def test_match_deterministic_across_thread_counts():
    blas = cli._openblas_threads()
    if blas is None:
        pytest.importorskip("threadpoolctl")
    rng = np.random.default_rng(13)
    metric = rng.standard_normal((64, 16)).astype(np.float32)
    p = matching.partition(64)
    results = []
    for limit in (1, 2, 1):
        with cli._limit_threads(limit):
            if blas is not None:
                assert blas[0]() == limit
            results.append(matching.bipartite_soft_match(metric, p, 20))
    for m in results[1:]:
        assert np.array_equal(results[0].idx_src, m.idx_src)
        assert np.array_equal(results[0].idx_dst, m.idx_dst)
        assert np.array_equal(results[0].scores, m.scores)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31))
def test_protected_cls_never_a_source(n, seed):
    rng = np.random.default_rng(seed)
    metric = rng.standard_normal((n, 4)).astype(np.float32)
    p = matching.partition(n)
    m = matching.bipartite_soft_match(metric, p, n // 2)
    assert 0 not in m.idx_src.tolist()


def test_match_result_index_membership():
    rng = np.random.default_rng(5)
    metric = rng.standard_normal((15, 4)).astype(np.float32)
    p = matching.partition(15)
    m = matching.bipartite_soft_match(metric, p, 5)
    src_set, dst_set = set(p.src.tolist()), set(p.dst.tolist())
    assert set(m.idx_src.tolist()) <= src_set
    assert set(m.idx_dst.tolist()) <= dst_set
    assert len(set(m.idx_src.tolist())) == len(m.idx_src)  # sources unique
