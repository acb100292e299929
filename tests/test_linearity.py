import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_fixtures import identity_mlp_model
from tofu import linearity, vit
from tofu.linearity import FlConfig, functional_linearity, interpolate, path_length


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


def test_path_length_identity_is_segment_length():
    for steps in (3, 11, 21):
        out = path_length(lambda v: v, np.array([0.0, 0.0]),
                          np.array([3.0, 4.0]), steps)
        assert out == pytest.approx(5.0, abs=1e-12)


def test_path_length_abs_v_shape():
    out = path_length(lambda v: np.abs(v), np.array([-1.0]), np.array([1.0]), 21)
    assert out == pytest.approx(2.0, abs=1e-12)


def test_path_length_coincident_endpoints():
    x = np.array([0.7, -0.3])
    # convex-combination rounding can leave a few ulps; stays far below the
    # undefined-FL threshold
    assert path_length(lambda v: v * 2.0, x, x.copy(), 11) < 1e-12


def test_path_length_rejects_shape_changing_maps():
    calls = []

    def f(v):
        calls.append(1)
        return v if len(calls) < 3 else np.concatenate([v, v])

    with pytest.raises(ValueError):
        path_length(f, np.zeros(2), np.ones(2), 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fl_affine_is_one(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    x1, x2 = rng.standard_normal((2, 4))
    if np.allclose(a @ x1, a @ x2):
        return
    fl = functional_linearity(lambda v: a @ v + b, x1, x2, 21)
    assert fl == pytest.approx(1.0, abs=1e-6)


def test_fl_abs_antipodal_is_exactly_zero():
    fl = functional_linearity(lambda v: np.abs(v), np.array([-1.0]),
                              np.array([1.0]), 21)
    assert fl == 0.0


def test_fl_undefined_for_coincident_pair():
    x = np.array([1.0, 2.0])
    assert functional_linearity(lambda v: v, x, x.copy(), 21) is None


def _tanh_net(seed, dim=4):
    rng = np.random.default_rng(seed)
    a1 = rng.standard_normal((dim, dim))
    a2 = rng.standard_normal((dim, dim))
    return lambda v: a2 @ np.tanh(a1 @ v)


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
    rotated = functional_linearity(lambda v: q @ f(v), x1, x2, 21)
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


def test_config_validation():
    with pytest.raises(ValueError):
        FlConfig(n_steps=2)
    with pytest.raises(ValueError):
        FlConfig(layer_selector="nope")


def test_profile_identity_mlp_is_one():
    model = identity_mlp_model()
    rng = np.random.default_rng(1)
    tokens = rng.standard_normal((2, 8, 4)).astype(np.float32)
    report = linearity.profile_model(model, tokens, FlConfig(pair_r=2))
    for stats in report.layers:
        assert stats.count > 0
        assert stats.mean_fl == pytest.approx(1.0, abs=1e-5)


def test_profile_values_in_range_and_deterministic():
    cfg = vit.VitConfig(depth=3, channels=8, heads=2, patch=16, image=64,
                        cls_token=True)
    model = vit.random_model(cfg, 3)
    rng = np.random.default_rng(4)
    tokens = rng.standard_normal((2, cfg.n_tokens, 8)).astype(np.float32)
    r1 = linearity.profile_model(model, tokens, FlConfig(pair_r=5))
    r2 = linearity.profile_model(model, tokens, FlConfig(pair_r=5))
    assert r1 == r2
    for stats in r1.layers:
        assert stats.count > 0
        assert 0.0 <= stats.mean_fl <= 1.0 + 1e-6


def test_profile_no_pairs_reports_count_zero():
    model = identity_mlp_model(depth=1)
    tokens = np.random.default_rng(0).standard_normal((1, 6, 4)).astype(np.float32)
    report = linearity.profile_model(model, tokens, FlConfig(pair_r=0))
    assert report.layers[0].count == 0
    assert report.layers[0].mean_fl is None


def test_report_json_shape():
    model = identity_mlp_model(depth=1)
    tokens = np.random.default_rng(0).standard_normal((1, 6, 4)).astype(np.float32)
    report = linearity.profile_model(model, tokens, FlConfig(pair_r=2))
    import json

    rows = json.loads(report.to_json())
    assert rows[0].keys() == {"layer", "mean_fl", "std_fl", "count"}
