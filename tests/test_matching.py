import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_match, brute_force_select
from tofu import cli, matching


@pytest.mark.parametrize("n", [1, 2, 4, 5, 10, 197])
def test_match_split_odd_src_even_dst(n):
    # the split comes from the row count: sources are the odd global
    # indices, destinations (the class token at 0 among them) the even ones
    metric = np.random.default_rng(n).standard_normal((n, 3)).astype(np.float32)
    if n < 2:
        with pytest.raises(ValueError, match="N >= 2"):
            matching.bipartite_soft_match(metric, 0)
        return
    m = matching.bipartite_soft_match(metric, n)  # clamps to every source
    assert sorted(m.idx_src.tolist()) == list(range(1, n, 2))
    assert set(m.idx_dst.tolist()) <= set(range(0, n, 2))
    assert matching.similarity_matrix(metric).shape == (n // 2, (n + 1) // 2)


def test_similarity_identical_and_orthogonal():
    metric = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                      dtype=np.float32)
    sims = matching.similarity_matrix(metric)
    # SRC=[1,3], DST=[0,2]
    assert sims[0, 0] == pytest.approx(1.0)   # identical unit vectors
    assert sims[0, 1] == pytest.approx(0.0)   # orthogonal
    assert np.all(sims[1] == -1.0)            # zero-norm row


def test_similarity_hand_cosine():
    metric = np.zeros((4, 2), dtype=np.float32)
    metric[1] = [1.0, 0.0]
    metric[2] = [0.05, 0.95]
    sims = matching.similarity_matrix(metric)
    assert sims[0, 1] == pytest.approx(0.0526, abs=1e-3)


FOUR_TOKENS = np.array(
    [[0.0, 1.0], [1.0, 0.0], [0.05, 0.95], [0.04, 0.96]], dtype=np.float32)


def test_match_four_token_example_r1():
    m = matching.bipartite_soft_match(FOUR_TOKENS, 1)
    assert m.idx_src.tolist() == [3]
    assert m.idx_dst.tolist() == [2]
    assert not m.clamped


def test_match_four_token_example_r2_dst_recurs():
    m = matching.bipartite_soft_match(FOUR_TOKENS, 2)
    assert m.idx_src.tolist() == [3, 1]
    assert m.idx_dst.tolist() == [2, 2]


def test_match_r_zero_is_empty():
    m = matching.bipartite_soft_match(FOUR_TOKENS, 0)
    assert m.idx_src.size == 0 and m.idx_dst.size == 0


def test_match_r_beyond_src_clamps_with_flag():
    m = matching.bipartite_soft_match(FOUR_TOKENS, 99)
    assert m.clamped
    assert m.idx_src.tolist() == [3, 1]


def test_match_scores_non_increasing():
    rng = np.random.default_rng(7)
    metric = rng.standard_normal((20, 6)).astype(np.float32)
    m = matching.bipartite_soft_match(metric, 8)
    assert all(a >= b for a, b in zip(m.scores, m.scores[1:]))


def _assert_matches_oracle(metric, r):
    n = len(metric)
    m = matching.bipartite_soft_match(metric, r)
    exp_src, exp_dst, _ = brute_force_match(metric, range(1, n, 2), range(0, n, 2), r)
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
    sims = matching.similarity_matrix(metric)
    m = matching.bipartite_soft_match(metric, n // 2)
    exp_src, exp_dst, _ = brute_force_select(
        sims, range(1, n, 2), range(0, n, 2), n // 2)
    assert m.idx_src.tolist() == exp_src
    assert m.idx_dst.tolist() == exp_dst


def test_match_deterministic_across_calls():
    rng = np.random.default_rng(11)
    metric = rng.standard_normal((32, 8)).astype(np.float32)
    first = matching.bipartite_soft_match(metric, 10)
    for _ in range(3):
        again = matching.bipartite_soft_match(metric, 10)
        assert np.array_equal(first.idx_src, again.idx_src)
        assert np.array_equal(first.idx_dst, again.idx_dst)
        assert np.array_equal(first.scores, again.scores)


def test_match_deterministic_across_thread_counts():
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy links no OpenBLAS")
    rng = np.random.default_rng(13)
    metric = rng.standard_normal((64, 16)).astype(np.float32)
    results = []
    for limit in (1, 2, 1):
        with cli._limit_threads(limit):
            assert blas[0]() == limit
            results.append(matching.bipartite_soft_match(metric, 20))
    for m in results[1:]:
        assert np.array_equal(results[0].idx_src, m.idx_src)
        assert np.array_equal(results[0].idx_dst, m.idx_dst)
        assert np.array_equal(results[0].scores, m.scores)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31))
def test_protected_cls_never_a_source(n, seed):
    rng = np.random.default_rng(seed)
    metric = rng.standard_normal((n, 4)).astype(np.float32)
    m = matching.bipartite_soft_match(metric, n // 2)
    assert 0 not in m.idx_src.tolist()


def test_match_result_index_membership():
    rng = np.random.default_rng(5)
    metric = rng.standard_normal((15, 4)).astype(np.float32)
    m = matching.bipartite_soft_match(metric, 5)
    src_set, dst_set = set(range(1, 15, 2)), set(range(0, 15, 2))
    assert set(m.idx_src.tolist()) <= src_set
    assert set(m.idx_dst.tolist()) <= dst_set
    assert len(set(m.idx_src.tolist())) == len(m.idx_src)  # sources unique


@pytest.mark.parametrize("block", [matching.MATCH_BLOCK_ITEMS, 2])
@pytest.mark.parametrize("n", [2, 7, 12, 33])
def test_batch_equals_per_item_calls(n, block, monkeypatch):
    # a block of 2 items splits the batch of 5 into three similarity blocks
    monkeypatch.setattr(matching, "MATCH_BLOCK_ITEMS", block)
    rng = np.random.default_rng(n)
    for grid in (False, True):  # integer grids manufacture exact ties
        metric = (rng.integers(-2, 3, size=(5, n, 3)) if grid
                  else rng.standard_normal((5, n, 3))).astype(np.float32)
        metric[1, n - 1] = 0.0
        metric[3, 0] = 0.0
        sims = matching.similarity_matrix(metric)
        assert sims.shape == (5, n // 2, (n + 1) // 2)
        for r in (0, 1, n // 2, n // 2 + 3):
            m = matching.bipartite_soft_match(metric, r)
            assert m.idx_src.shape == m.idx_dst.shape == m.scores.shape == (5, min(r, n // 2))
            for i in range(5):
                one = matching.bipartite_soft_match(metric[i], r)
                assert sims[i].tobytes() == matching.similarity_matrix(metric[i]).tobytes()
                assert m.idx_src[i].tolist() == one.idx_src.tolist()
                assert m.idx_dst[i].tolist() == one.idx_dst.tolist()
                assert m.scores[i].tobytes() == one.scores.tobytes()
                assert m.clamped == one.clamped == (r > n // 2)


def test_empty_batch_names_its_shape():
    with pytest.raises(ValueError, match=r"\(0, 6, 3\)"):
        matching.bipartite_soft_match(np.zeros((0, 6, 3), dtype=np.float32), 1)
