"""The benchmark's own checks: each accepts the program's real output and
rejects a deliberately corrupted copy, so none passes vacuously.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from tofu import fusion, highway, vit

from bench import checks, inputs, reference, tracing
from bench.checks import CheckFailed

METHODS = ["pruned", "average", "mlerp"]


def tokens(seed=0, batch=1, grid=6, channels=16):
    return inputs.image_tokens(seed, 0, batch, grid, channels)


def reduced(method, r=6, seed=0):
    x = tokens(seed)[0]
    out, trace = fusion.apply_reduce(x, x, fusion.MergeMethod(method), r)
    m = trace.match
    return x, out, m.idx_src.copy(), m.idx_dst.copy(), m.scores.copy(), \
        trace.output_index_of_input.copy()


@pytest.mark.parametrize("method", METHODS)
def test_reduce_accepts_program_output(method):
    x, out, src, dst, _, out_map = reduced(method)
    checks.reduce(x, method, src, dst, out, out_map)


def test_reduce_rejects_mlerp_row_off_max_norm():
    x, out, src, dst, _, out_map = reduced("mlerp")
    out[out_map[dst[0]]] *= np.float32(1.0 + 1e-4)
    with pytest.raises(CheckFailed, match="mlerp row"):
        checks.reduce(x, "mlerp", src, dst, out, out_map)


def test_reduce_rejects_average_that_is_not_the_group_mean():
    x, out, src, dst, _, out_map = reduced("average")
    row = out_map[dst[0]]
    out[row] = x[dst[0]]
    with pytest.raises(CheckFailed, match="average row"):
        checks.reduce(x, "average", src, dst, out, out_map)


def test_reduce_rejects_pruned_destination_off_by_one_ulp():
    x, out, src, dst, _, out_map = reduced("pruned")
    row = out_map[dst[0]]
    out[row, 0] = np.nextafter(out[row, 0], np.float32(np.inf))
    with pytest.raises(CheckFailed, match="leaves alone"):
        checks.reduce(x, "pruned", src, dst, out, out_map)


@pytest.mark.parametrize("method", METHODS)
def test_reduce_rejects_dropped_row(method):
    x, out, src, dst, _, out_map = reduced(method)
    with pytest.raises(CheckFailed, match="shape"):
        checks.reduce(x, method, src, dst, out[:-1], out_map)


@pytest.mark.parametrize("method", METHODS)
def test_reduce_rejects_duplicated_row(method):
    x, out, src, dst, _, out_map = reduced(method)
    out[1] = out[0]
    with pytest.raises(CheckFailed):
        checks.reduce(x, method, src, dst, out, out_map)


def test_reduce_rejects_wrong_position_map():
    x, out, src, dst, _, out_map = reduced("mlerp")
    out_map[src[0]] = (out_map[src[0]] + 1) % len(out)
    with pytest.raises(CheckFailed, match="output_index_of_input"):
        checks.reduce(x, "mlerp", src, dst, out, out_map)


def test_match_accepts_program_output():
    x, _, src, dst, scores, _ = reduced("pruned")
    checks.match(x, src, dst, scores, len(src))


def test_match_rejects_swapped_pair():
    x, _, src, dst, scores, _ = reduced("pruned")
    j = int(np.flatnonzero(dst != dst[0])[0])
    dst[[0, j]] = dst[[j, 0]]
    with pytest.raises(CheckFailed, match="is not its cosine"):
        checks.match(x, src, dst, scores, len(src))


def test_match_rejects_a_source_that_is_not_among_the_best():
    x, _, src, dst, scores, _ = reduced("pruned", r=3)
    n = x.shape[0]
    unchosen = np.array([s for s in range(1, n, 2) if s not in set(src.tolist())])
    sims = reference.cosine_matrix(x, unchosen, np.arange(0, n, 2))
    k = int(sims.max(axis=1).argmin())
    # the weakest chosen pair traded for the unchosen source with the worst best edge
    src[-1], dst[-1], scores[-1] = unchosen[k], 2 * int(sims[k].argmax()), sims[k].max()
    with pytest.raises(CheckFailed, match="unchosen source"):
        checks.match(x, src, dst, scores, len(src))


def test_match_rejects_wrong_count_and_repeated_source():
    x, _, src, dst, scores, _ = reduced("pruned")
    with pytest.raises(CheckFailed, match="pairs for r"):
        checks.match(x, src, dst, scores, len(src) + 1)
    src[1] = src[0]
    with pytest.raises(CheckFailed, match="chosen twice"):
        checks.match(x, src, dst, scores, len(src))


def test_match_holds_whether_or_not_the_class_token_is_protected():
    # the class row is everybody's best partner; a protected match skips it
    x = tokens(1)[0].astype(np.float64)
    x[0] = x[1::2].mean(axis=0) * 10.0
    n = x.shape[0]
    src, dst = np.arange(1, n, 2), np.arange(0, n, 2)
    r = 5
    for dsts in (dst, dst[1:]):
        sims = reference.cosine_matrix(x, src, dsts)
        best = sims.max(axis=1)
        order = np.argsort(-best, kind="stable")[:r]
        checks.match(x, src[order], dsts[sims.argmax(axis=1)[order]], best[order], r)


def test_unmerge_accepts_program_output_and_rejects_a_non_copy():
    x = tokens(2)[0]
    red, trace = fusion.apply_reduce(x, x, fusion.MergeMethod.MLERP, 6)
    out = fusion.unmerge(red, trace)
    checks.unmerge(red, trace.output_index_of_input, out)
    out = out.copy()
    out[trace.match.idx_src[0], 3] += 1.0
    with pytest.raises(CheckFailed, match="not copies"):
        checks.unmerge(red, trace.output_index_of_input, out)


def fl_rows():
    return [{"layer": l, "mean_fl": 0.9, "std_fl": 0.01, "count": 4} for l in range(3)]


def test_fl_report_accepts_values_in_range():
    checks.fl_report(fl_rows(), 3, 4)


@pytest.mark.parametrize("value", [1.0000001, -0.01])
def test_fl_report_rejects_values_outside_unit_interval(value):
    rows = fl_rows()
    rows[1]["mean_fl"] = value
    with pytest.raises(CheckFailed, match="outside"):
        checks.fl_report(rows, 3, 4)


def test_fl_report_rejects_missing_layer():
    with pytest.raises(CheckFailed, match="covers layers"):
        checks.fl_report(fl_rows()[:2], 3, 4)


def test_reference_fl_of_an_affine_map_is_one_and_of_abs_below():
    w = np.arange(6.0).reshape(2, 3)
    assert reference.functional_linearity(lambda v: v @ w, [1.0, 2.0], [3.0, -1.0], 5) \
        == pytest.approx(1.0)
    assert reference.functional_linearity(np.abs, [-1.0], [1.0], 5) == pytest.approx(0.0)


def test_clamped_decay_and_token_counts():
    assert checks.clamped_decay(197, 16, 12)[:2] == [181, 165]
    assert checks.clamped_decay(50, 4, 12)[-3:] == [10, 6, 3]
    checks.token_counts([181, 165], [181, 165], "ok")
    with pytest.raises(CheckFailed):
        checks.token_counts([181, 166], [181, 165], "off by one")


def test_equal_and_close_reject_small_changes():
    a = tokens(3)
    checks.equal(a, a.copy(), "same")
    b = a.copy()
    b.flat[7] = np.nextafter(b.flat[7], np.float32(np.inf))
    with pytest.raises(CheckFailed, match="bitwise"):
        checks.equal(b, a, "one ulp")
    with pytest.raises(CheckFailed, match="float64"):
        checks.equal(a.astype(np.float64), a, "dtype")
    checks.close(a * (1 + 1e-7), a, 1e-6, "inside")
    with pytest.raises(CheckFailed, match="relative error"):
        checks.close(a * (1 + 1e-5), a, 1e-6, "outside")


def tiny_model(head=False):
    cfg = vit.VitConfig(depth=3, channels=16, heads=2, patch=16, image=96)
    return vit.random_model(cfg, 0, n_classes=5 if head else None)


def test_reference_forward_matches_the_program_and_catches_a_bad_logit():
    model = tiny_model(head=True)
    x = tokens(4, grid=6)
    logits, _ = vit.forward(x, model, fusion.ReduceSpec(r=0))
    expected = reference.classify(x[0], model)
    checks.close(logits[0], expected, 1e-5, "tiny classify")
    bad = logits[0].copy()
    bad[2] += 1e-3 * np.abs(expected).max()
    with pytest.raises(CheckFailed):
        checks.close(bad, expected, 1e-5, "tiny classify")


@pytest.mark.parametrize("t", [None, 0.5])
def test_highway_reference_matches_the_program_and_catches_a_bad_entry(t):
    model = tiny_model()
    x = tokens(5, grid=6)
    spec = fusion.ReduceSpec(r=5, d=2)
    calls = []
    with tracing.rebound([tracing.recording("tofu.highway", "apply_reduce", calls)]):
        out, _ = highway.highway_forward(
            x, model, spec, highway.MbmConfig(t=t or 1.0, enabled=t is not None))
    matches = [(res[1].match.idx_src, res[1].match.idx_dst) for _, _, res in calls]
    expected, ambiguous = reference.highway(x[0], model, ["pruned"] * 2 + ["mlerp"], matches, t)
    checks.highway(out[0], expected, ambiguous, 1e-5, 0.01)
    bad = out[0].copy()
    i = np.argwhere(~ambiguous)[0]
    bad[tuple(i)] += 1e-3 * np.abs(expected).max()
    with pytest.raises(CheckFailed, match="full path"):
        checks.highway(bad, expected, ambiguous, 1e-5, 0.01)
    with pytest.raises(CheckFailed, match="threshold"):
        checks.highway(out[0], expected, np.ones_like(ambiguous), 1e-5, 0.01)


def test_inputs_are_seeded_and_neighbours_alike():
    a = inputs.image_tokens(7, 1, 2, 14, 32)
    assert a.tobytes() == inputs.image_tokens(7, 1, 2, 14, 32).tobytes()
    assert a.tobytes() != inputs.image_tokens(8, 1, 2, 14, 32).tobytes()
    grid = a[0, 1:].reshape(14, 14, 32)
    near = np.mean([reference.cos64(grid[i, j], grid[i, j + 1])
                    for i in range(14) for j in range(13)])
    far = np.mean([reference.cos64(grid[i, 0], grid[13 - i, 13]) for i in range(14)])
    assert near > 0.5 > far


def test_tracer_self_time_and_rebinding_restores_originals():
    original = fusion.apply_reduce
    tracer = tracing.Tracer()
    x = tokens(6)
    tracer.timed_pass(lambda: vit.forward(x, tiny_model(), fusion.ReduceSpec(r=4)))
    assert fusion.apply_reduce is original and vit.apply_reduce is original
    s = tracer.summary()
    assert s["calls"]["pass"] == 1
    assert s["calls"]["fusion.reduce"] == 3 and s["calls"]["matching.match"] == 3
    assert s["counters"]["fusion.tokens_removed"] == 12
    for name in s["total"]:
        assert 0.0 <= s["self"][name] <= s["total"][name] + 1e-12


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_exactly_the_metrics_benchmark_json_names(trace, key):
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tools-offline", "--seed", "1",
         "--seconds", "0.1", "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    units = {m["name"]: m["unit"] for m in spec[key]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
