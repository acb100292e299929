import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_fixtures import identity_mlp_model
from tofu import linearity, vit
from tofu.linearity import functional_linearity, interpolate, path_length


def test_interpolate_endpoints():
    x1 = np.array([1.0, 2.0])
    x2 = np.array([-3.0, 5.0])
    assert np.array_equal(interpolate(x1, x2, 0.0), x1)
    assert np.array_equal(interpolate(x1, x2, 1.0), x2)


def test_interpolate_midpoint():
    out = interpolate(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5)
    assert np.array_equal(out, [1.0, 2.0])


def test_interpolate_quarter():
    out = interpolate(np.array([4.0]), np.array([0.0]), 0.25)
    assert np.array_equal(out, [3.0])


def test_interpolate_length_mismatch():
    with pytest.raises(ValueError):
        interpolate(np.zeros(2), np.zeros(3), 0.5)


def test_interpolate_array_t_matches_scalar_calls():
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal((2, 5))
    ts = np.concatenate([np.linspace(0.0, 1.0, 21), rng.random(7)])
    rows = interpolate(x1, x2, ts)
    assert rows.shape == (len(ts), 5)
    expected = np.stack([interpolate(x1, x2, float(t)) for t in ts])
    assert rows.tobytes() == expected.tobytes()


def _samples(x1, x2, steps):
    return interpolate(x1, x2, np.linspace(0.0, 1.0, steps))


def test_path_length_identity_is_segment_length():
    for steps in (3, 11, 21):
        out = path_length(_samples([0.0, 0.0], [3.0, 4.0], steps))
        assert out == pytest.approx(5.0, abs=1e-12)


def test_path_length_abs_v_shape():
    out = path_length(np.abs(_samples([-1.0], [1.0], 21)))
    assert out == pytest.approx(2.0, abs=1e-12)


def test_path_length_coincident_endpoints():
    x = np.array([0.7, -0.3])
    # convex-combination rounding can leave a few ulps; stays far below the
    # undefined-FL threshold
    assert path_length(2.0 * _samples(x, x.copy(), 11)) < 1e-12


def test_path_length_needs_rows():
    with pytest.raises(ValueError):
        path_length(np.zeros(5))


def test_fl_rejects_maps_without_one_row_per_sample():
    bad_maps = [
        lambda v: v[:-1],  # drops a sample
        lambda v: np.concatenate([v, v]),
        lambda v: v.reshape(-1),  # flattens the rows
        lambda v: v[None],  # adds an axis
        lambda v: v.sum(),
    ]
    for f in bad_maps:
        with pytest.raises(ValueError):
            functional_linearity(f, np.zeros(2), np.ones(2), 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fl_affine_is_one(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    x1, x2 = rng.standard_normal((2, 4))
    if np.allclose(a @ x1, a @ x2):
        return
    fl = functional_linearity(lambda v: v @ a.T + b, x1, x2, 21)
    assert fl == pytest.approx(1.0, abs=1e-6)


def test_fl_abs_antipodal_is_exactly_zero():
    fl = functional_linearity(lambda v: np.abs(v), np.array([-1.0]),
                              np.array([1.0]), 21)
    assert fl == 0.0


def test_fl_undefined_for_coincident_pair():
    x = np.array([1.0, 2.0])
    assert functional_linearity(lambda v: v, x, x.copy(), 21) is None


@pytest.mark.parametrize("rows", [slice(10, 11), slice(None)], ids=["one_row", "all_rows"])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_fl_undefined_for_a_path_that_is_not_finite(value, rows):
    # an f that overflows gives an infinite or NaN path length, which has no
    # ratio either
    def f(v):
        y = v.copy()
        y[rows] = value
        return y

    with np.errstate(invalid="ignore"):
        assert functional_linearity(f, np.zeros(2), np.ones(2), 21) is None


def _tanh_net(seed, dim=4):
    rng = np.random.default_rng(seed)
    a1 = rng.standard_normal((dim, dim))
    a2 = rng.standard_normal((dim, dim))
    return lambda v: np.tanh(v @ a1.T) @ a2.T


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fl_bounded_on_smooth_maps(seed):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal((2, 4))
    fl = functional_linearity(_tanh_net(seed), x1, x2, 21)
    if fl is not None:
        assert 0.0 <= fl <= 1.0 + 1e-6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fl_invariant_under_orthogonal_output_transform(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    f = _tanh_net(seed)
    x1, x2 = rng.standard_normal((2, 4)) * 2.0
    base = functional_linearity(f, x1, x2, 21)
    rotated = functional_linearity(lambda v: f(v) @ q.T, x1, x2, 21)
    if base is None:
        assert rotated is None
    else:
        assert rotated == pytest.approx(base, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
def test_fl_invariant_under_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    f = _tanh_net(seed)
    x1, x2 = rng.standard_normal((2, 4)) * 2.0
    base = functional_linearity(f, x1, x2, 21)
    scaled = functional_linearity(lambda v: scale * f(v), x1, x2, 21)
    if base is None:
        assert scaled is None
    else:
        assert scaled == pytest.approx(base, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fl_refinement_never_raises_it(seed):
    rng = np.random.default_rng(seed)
    f = _tanh_net(seed)
    x1, x2 = rng.standard_normal((2, 4)) * 2.0
    coarse = functional_linearity(f, x1, x2, 11)
    fine = functional_linearity(f, x1, x2, 41)
    if coarse is not None and fine is not None:
        assert fine <= coarse + 1e-3


def _per_sample_fl(f, x1, x2, steps):
    """Reference: one map call per sample, chord from two more calls."""
    pts = [np.asarray(f(interpolate(x1, x2, i / (steps - 1))), dtype=np.float64)
           for i in range(steps)]
    path = math.fsum(float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:]))
    chord = float(np.linalg.norm(np.asarray(f(x2), dtype=np.float64)
                                 - np.asarray(f(x1), dtype=np.float64)))
    return chord / path


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), steps=st.sampled_from([3, 11, 21, 41]))
def test_fl_matches_per_sample_loop(seed, steps):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    x1, x2 = rng.standard_normal((2, 4)) * 2.0
    for f in (_tanh_net(seed), lambda v: np.abs(v @ a.T + b)):
        assert functional_linearity(f, x1, x2, steps) == pytest.approx(
            _per_sample_fl(f, x1, x2, steps), abs=1e-12)


def test_config_validation():
    model = identity_mlp_model(depth=1)
    tokens = np.random.default_rng(0).standard_normal((1, 6, 4)).astype(np.float32)
    # pair_r=0 probes no pair, so the step count must be checked up front
    with pytest.raises(ValueError, match="n_steps"):
        linearity.profile_model(model, tokens, n_steps=2, pair_r=0)
    with pytest.raises(ValueError, match="pair_r"):
        linearity.profile_model(model, tokens, n_steps=21, pair_r=-1)


def test_profile_identity_mlp_is_one():
    model = identity_mlp_model()
    rng = np.random.default_rng(1)
    tokens = rng.standard_normal((2, 8, 4)).astype(np.float32)
    rows = linearity.profile_model(model, tokens, n_steps=21, pair_r=2)
    for stats in rows:
        assert stats.count > 0
        assert stats.mean_fl == pytest.approx(1.0, abs=1e-5)


def test_profile_values_in_range_and_deterministic():
    cfg = vit.VitConfig(depth=3, channels=8, heads=2, patch=16, image=64,
                        cls_token=True)
    model = vit.random_model(cfg, 3)
    rng = np.random.default_rng(4)
    tokens = rng.standard_normal((2, cfg.n_tokens, 8)).astype(np.float32)
    r1 = linearity.profile_model(model, tokens, n_steps=21, pair_r=5)
    r2 = linearity.profile_model(model, tokens, n_steps=21, pair_r=5)
    assert r1 == r2
    assert [stats.layer for stats in r1] == list(range(cfg.depth))
    for stats in r1:
        assert stats.count > 0
        assert 0.0 <= stats.mean_fl <= 1.0 + 1e-6


def test_profile_maps_each_pair_in_one_call(monkeypatch):
    cfg = vit.VitConfig(depth=3, channels=8, heads=2, patch=16, image=64,
                        cls_token=True)
    model = vit.random_model(cfg, 3)
    tokens = np.random.default_rng(4).standard_normal(
        (2, cfg.n_tokens, 8)).astype(np.float32)
    calls = []
    mlp_map = vit.mlp_map

    def counting(v, w):
        calls.append(np.shape(v))
        return mlp_map(v, w)

    monkeypatch.setattr(vit, "mlp_map", counting)
    linearity.profile_model(model, tokens, n_steps=21, pair_r=5)
    pairs = tokens.shape[0] * 5
    # per layer: one call per probed pair, on its stacked path samples, and
    # one to advance the stack
    assert len(calls) == cfg.depth * (pairs + 1)
    assert calls.count((21, 8)) == cfg.depth * pairs


def test_profile_no_pairs_reports_count_zero():
    model = identity_mlp_model(depth=1)
    tokens = np.random.default_rng(0).standard_normal((1, 6, 4)).astype(np.float32)
    rows = linearity.profile_model(model, tokens, n_steps=21, pair_r=0)
    assert rows[0].count == 0
    assert rows[0].mean_fl is None


def test_report_json_shape():
    model = identity_mlp_model(depth=1)
    tokens = np.random.default_rng(0).standard_normal((1, 6, 4)).astype(np.float32)
    rows = linearity.profile_model(model, tokens, n_steps=21, pair_r=2)
    assert asdict(rows[0]).keys() == {"layer", "mean_fl", "std_fl", "count"}
