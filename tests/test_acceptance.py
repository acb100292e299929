"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s` to see the
checklist stream by (pytest's own -v PASSED/FAILED report mirrors it
otherwise). The timing criterion is hardware noise sensitive and is
allowed up to three attempts before it counts as failed.
"""

import functools
import time

import numpy as np
import pytest

from model_fixtures import recorded_highway_reduces
from oracles import brute_force_select, cosine, naive_highway, token_decay
from tofu import cli, highway, linearity, vit
from tofu.fusion import (
    MergeMethod,
    ReduceSpec,
    apply_reduce,
    layer_methods,
    merge_average,
    merge_mlerp,
    unmerge,
)
from tofu.highway import MbmConfig
from tofu.matching import bipartite_soft_match, similarity_matrix


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}", flush=True)
                raise
            print(f"PASS  {name}", flush=True)
        return wrapper
    return decorate


@criterion("FLOP reproduction (ViT-B/16 and ViT-L/16 published GFLOPs)")
def test_flop_reproduction():
    t0 = time.perf_counter()
    b16 = vit.ARCH_PRESETS["vit-b16"]
    l16 = vit.ARCH_PRESETS["vit-l16"]
    assert vit.flops_estimate(b16, ReduceSpec(r=0)).total == pytest.approx(
        17.58e9, rel=0.02)
    for r, want in [(8, 13.12e9), (12, 10.93e9), (16, 8.78e9), (20, 7.14e9)]:
        assert vit.flops_estimate(b16, ReduceSpec(r=r)).total == pytest.approx(
            want, rel=0.03), f"ViT-B r={r}"
    assert vit.flops_estimate(l16, ReduceSpec(r=0)).total == pytest.approx(
        61.60e9, rel=0.02)
    assert vit.flops_estimate(l16, ReduceSpec(r=8)).total == pytest.approx(
        30.99e9, rel=0.03)
    assert time.perf_counter() - t0 < 1.0


@criterion("BSM equals the brute-force top-r oracle on 1,000 random cases")
def test_bsm_oracle_equivalence():
    # Selection (best edge per source, global top-r, documented tie-breaks)
    # is brute-forced over the full similarity matrix and must match
    # exactly. Matrix values themselves are checked against scalar float64
    # cosines; demanding exact selection across two independently rounded
    # cosine computations would make mathematically tied scores a coin flip.
    rng = np.random.default_rng(2024)
    for case in range(1000):
        n = int(rng.integers(2, 65))
        c = int(rng.integers(1, 17))
        r = int(rng.integers(0, n // 2 + 1))
        if case % 5 == 0:
            # integer grids manufacture exact similarity ties
            metric = rng.integers(-2, 3, size=(n, c)).astype(np.float32)
        else:
            metric = rng.standard_normal((n, c)).astype(np.float32)
        src, dst = range(1, n, 2), range(0, n, 2)
        sims = similarity_matrix(metric)

        for _ in range(8):
            i = int(rng.integers(0, len(src)))
            j = int(rng.integers(0, len(dst)))
            assert sims[i, j] == pytest.approx(
                cosine(metric[src[i]], metric[dst[j]]), abs=1e-9)

        m = bipartite_soft_match(metric, r)
        exp_src, exp_dst, _ = brute_force_select(sims, src, dst, r)
        assert m.idx_src.tolist() == exp_src, f"case {case}"
        assert m.idx_dst.tolist() == exp_dst, f"case {case}"


@criterion("MLERP preserves group max norm (1e-5 rel) where Average cannot")
def test_mlerp_norm_preservation():
    rng = np.random.default_rng(7)
    checked = 0
    average_violations = 0
    while checked < 10_000:
        n_dst = int(rng.integers(1, 50))
        n_src = int(rng.integers(n_dst, 3 * n_dst + 1))
        c = int(rng.integers(2, 9))
        dst = rng.standard_normal((n_dst, c)).astype(np.float32)
        src = rng.standard_normal((n_src, c)).astype(np.float32)
        idx = rng.integers(0, n_dst, size=n_src)

        merged, degenerate = merge_mlerp(dst, src, idx)
        averaged = merge_average(dst, src, idx)
        assert not degenerate
        for d in set(idx.tolist()):
            group = [dst[d]] + [src[k] for k in range(n_src) if idx[k] == d]
            max_norm = max(float(np.linalg.norm(g.astype(np.float64)))
                           for g in group)
            out_norm = float(np.linalg.norm(merged[d].astype(np.float64)))
            assert abs(out_norm - max_norm) <= 1e-5 * max_norm
            avg_norm = float(np.linalg.norm(averaged[d].astype(np.float64)))
            if abs(avg_norm - max_norm) > 1e-5 * max_norm:
                average_violations += 1
            checked += 1
    assert average_violations > 0.99 * checked


@criterion("Token counts follow clamped linear decay; unmerge is lossless")
def test_shape_laws():
    n_values = [8, 9, 16, 17, 32, 33, 64, 65, 128, 197, 256]
    r_values = [0, 1, 2, 3, 5, 8, 16, 20, 64, 200]
    depths = [1, 2, 3, 6, 12, 24]

    c, heads = 8, 2
    deep = vit.random_model(
        vit.VitConfig(depth=24, channels=c, heads=heads), 0)
    rng = np.random.default_rng(1)

    for depth in depths:
        cfg = vit.VitConfig(depth=depth, channels=c, heads=heads)
        model = vit.VitModel(config=cfg, blocks=deep.blocks[:depth])
        for n in n_values:
            x = rng.standard_normal((1, n, c)).astype(np.float32)
            for r in r_values:
                _, counts = vit.forward(x, model, ReduceSpec(r=r))
                assert counts == token_decay(n, r, depth), (n, r, depth)

    for n in n_values:
        x = rng.standard_normal((n, c)).astype(np.float32)
        for r in r_values:
            r_eff = min(r, n // 2)
            for method in MergeMethod:
                reduced, trace = apply_reduce(x, x, method, r_eff)
                restored = unmerge(reduced, trace)
                assert restored.shape == x.shape
                merged = set(trace.match.idx_src.tolist())
                if method is not MergeMethod.PRUNED:
                    merged |= set(trace.match.idx_dst.tolist())
                for i in range(n):
                    if i not in merged:
                        assert restored[i].tobytes() == x[i].tobytes()


@criterion("FL: affine = 1 +- 1e-6, |x| antipodal = 0, all values in [0, 1]")
def test_fl_metric():
    rng = np.random.default_rng(99)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        x1, x2 = rng.standard_normal((2, 3))
        fl = linearity.functional_linearity(lambda v: v @ a.T + b, x1, x2, 21)
        if fl is not None:
            assert abs(fl - 1.0) <= 1e-6

    assert linearity.functional_linearity(
        lambda v: np.abs(v), np.array([-1.0]), np.array([1.0]), 21) == 0.0

    in_range = 0
    while in_range < 1000:
        a1 = rng.standard_normal((3, 3))
        a2 = rng.standard_normal((3, 3))
        x1, x2 = rng.standard_normal((2, 3)) * 2.0
        fl = linearity.functional_linearity(
            lambda v: np.tanh(v @ a1.T) @ a2.T, x1, x2, 21)
        if fl is None:
            continue
        assert 0.0 <= fl <= 1.0 + 1e-6
        in_range += 1


@criterion("Hybrid dispatch: every threshold d prunes min(d, depth) layers, then merges")
def test_hybrid_dispatch():
    for depth in (1, 12, 24):
        for d in range(depth + 3):
            for method in MergeMethod:
                spec = ReduceSpec(r=8, d=d, late_method=method)
                expected = [MergeMethod.PRUNED] * min(d, depth) + [method] * max(depth - d, 0)
                assert layer_methods(spec, depth) == expected


@criterion("Highway matches the naive composition oracle; MBM inf is a no-op")
def test_highway_consistency():
    heads = 2
    for method in MergeMethod:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            depth = 3
            cfg = vit.VitConfig(depth=depth, channels=8, heads=heads,
                                patch=16, image=64)
            model = vit.random_model(cfg, seed)
            n = int(rng.integers(8, 17))
            x = rng.standard_normal((2, n, 8)).astype(np.float32)
            spec = ReduceSpec(r=2, d=0, late_method=method)
            methods = layer_methods(spec, depth)

            state = highway.init_state(x)
            traces_per_block = []
            for l, w in enumerate(model.blocks):
                with recorded_highway_reduces() as traces:
                    state = highway.highway_block(*state, w, heads, methods[l], spec.r)
                traces_per_block.append(traces or None)

            ref_full, ref_local = naive_highway(
                x, model, [m.value for m in methods], traces_per_block)
            x_full, x_local, _ = state
            assert np.allclose(x_full, ref_full, rtol=1e-6, atol=1e-6), (method, seed)
            assert np.allclose(x_local, ref_local, rtol=1e-6, atol=1e-6)

    cfg = vit.VitConfig(depth=3, channels=8, heads=heads, patch=16, image=64)
    model = vit.random_model(cfg, 11)
    x = np.random.default_rng(11).standard_normal((2, 14, 8)).astype(np.float32)
    spec = ReduceSpec(r=2, d=2, late_method=MergeMethod.AVERAGE)
    plain, _ = highway.highway_forward(x, model, spec, MbmConfig(enabled=False))
    masked, _ = highway.highway_forward(
        x, model, spec, MbmConfig(t=np.inf, enabled=True))
    assert plain.tobytes() == masked.tobytes()


@criterion("Directional speed: pruned <= average <= full, reduction >= 20%")
def test_directional_speed():
    # The pruned and average passes run the same token counts through the
    # same GEMMs and differ only in the reduce op, about 1-2% of a pass, so
    # their order is checked on the reduce op alone, where the merge is the
    # whole difference; the passes are checked against the full one.
    cfg = vit.ARCH_PRESETS["vit-b16"]
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, cfg.n_tokens, cfg.channels)).astype(np.float32)
    keys = rng.standard_normal((8, cfg.n_tokens, cfg.channels // cfg.heads))
    reduces = [MergeMethod.PRUNED, MergeMethod.AVERAGE]

    def reduce_medians(repeats=15):
        times = {m: [] for m in reduces}
        for _ in range(repeats):  # interleave to spread background noise
            for m in reduces:
                t0 = time.perf_counter()
                apply_reduce(x, keys, m, 16)
                times[m].append(time.perf_counter() - t0)
        return [float(np.median(times[m])) for m in reduces]

    last = None
    for attempt in range(3):  # timing is noise sensitive by nature
        rows = cli.run_bench(cfg, ["full", "pruned", "average"], r=16, batch=8,
                             repeat=5, warmup=1, seed=0, mode="normal",
                             mbm=MbmConfig())["rows"]
        m = {row["method"]: row["median_ms"] for row in rows}
        m["reduce_pruned"], m["reduce_average"] = reduce_medians()
        last = m
        ordered = (m["reduce_pruned"] <= m["reduce_average"]
                   and m["average"] <= m["full"])
        fast_enough = (m["pruned"] <= 0.8 * m["full"]
                       and m["average"] <= 0.8 * m["full"])
        if ordered and fast_enough:
            break
    else:
        pytest.fail(f"wall-clock ordering not met after 3 attempts: {last}")
