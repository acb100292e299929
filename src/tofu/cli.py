"""Command-line surface: reduce token dumps, profile linearity, count FLOPs,
benchmark merge methods, and generate synthetic fixtures.

Exit codes: 0 success, 1 runtime error, 2 usage error. All reports are JSON
(binary only for tensors/weights); TOFU_LOG={error|info|debug} controls
verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from . import fusion, highway, linearity, vit
from .tensor import FLOAT, FormatError, read_ttf, write_ttf

log = logging.getLogger("tofu")

_METHOD_CHOICES = [m.value for m in fusion.MergeMethod]


def _setup_logging() -> None:
    level = os.environ.get("TOFU_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None. Environment variables cannot do this job: OpenBLAS
    reads them once, when numpy loads it, which is before main runs."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    names = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
             "openblas_{}_num_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # such as a mapping of a deleted file
            continue
        for name in names:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


@contextlib.contextmanager
def _limit_threads(n: int):
    """Cap BLAS at n threads inside the block; the count in effect before
    comes back on exit, so an in-process caller keeps its own setting."""
    try:
        import threadpoolctl
    except ImportError:
        threadpoolctl = None
    if threadpoolctl is not None:
        with threadpoolctl.threadpool_limits(limits=n):
            yield
        return
    blas = _openblas_threads()
    if blas is None:
        log.warning("neither threadpoolctl nor OpenBLAS found; "
                    "--threads %d not applied", n)
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)


def _dump_json(obj) -> str:
    # compact, so that json uses its C encoder
    return json.dumps(obj, sort_keys=True) + "\n"


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump_json(obj))


def _arch_config(args) -> vit.VitConfig:
    cfg = vit.ARCH_PRESETS[args.arch]
    if getattr(args, "image", None) or getattr(args, "patch", None):
        cfg = vit.VitConfig(
            depth=cfg.depth, channels=cfg.channels, heads=cfg.heads,
            mlp_ratio=cfg.mlp_ratio,
            patch=args.patch or cfg.patch,
            image=args.image or cfg.image,
            cls_token=cfg.cls_token,
        )
    return cfg


def _trace_dict(trace: fusion.ReduceTrace) -> dict:
    m = trace.match
    return {
        "src": m.partition.src.tolist(),
        "dst": m.partition.dst.tolist(),
        "idx_src": m.idx_src.tolist(),
        "idx_dst": m.idx_dst.tolist(),
        "scores": m.scores.tolist(),
        "clamped": m.clamped,
        "mlerp_degenerate": trace.mlerp_degenerate,
        "output_index_of_input": trace.output_index_of_input.tolist(),
    }


def cmd_reduce(args) -> int:
    x = read_ttf(args.input)
    metric = read_ttf(args.metric) if args.metric else x
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
        metric = metric[None] if metric.ndim == 2 else metric
    if x.ndim != 3 or metric.shape[:2] != x.shape[:2]:
        raise FormatError(
            f"input {x.shape} and metric {metric.shape} must be matching "
            "(B, N, C) or (N, C) tensors")
    method = fusion.MergeMethod(args.method)
    items = [fusion.apply_reduce(x[i], metric[i], method, args.r)
             for i in range(x.shape[0])]
    reduced = np.stack([it[0] for it in items])
    traces = [_trace_dict(it[1]) for it in items]
    write_ttf(args.out, reduced[0] if squeeze else reduced)
    if args.trace:
        _write_json(args.trace, traces[0] if squeeze else traces)
    log.info("reduced %s tokens -> %s", x.shape[1], reduced.shape[1])
    return 0


def cmd_fl(args) -> int:
    model = vit.load_weights(args.model)
    tokens = read_ttf(args.tokens)
    if tokens.ndim == 2:
        tokens = tokens[None]
    cfg = linearity.FlConfig(n_steps=args.steps, pair_r=args.r,
                             layer_selector=args.selector)
    report = linearity.profile_model(model, tokens, cfg)
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_flops(args) -> int:
    cfg = _arch_config(args)
    spec = fusion.ReduceSpec(r=args.r, d=args.d)
    placement = vit.ReducePlacement(args.placement)
    report = vit.flops_estimate(cfg, spec, placement)

    print(f"{args.arch}  image={cfg.image}  patch={cfg.patch}  r={args.r}  "
          f"placement={placement.value}")
    print(f"{'layer':>5}  {'tokens':>6}  {'attn MFLOPs':>12}  {'mlp MFLOPs':>12}")
    for i, pl in enumerate(report.per_layer):
        print(f"{i:>5}  {pl.token_count:>6}  {pl.attn_flops / 1e6:>12.1f}  "
              f"{pl.mlp_flops / 1e6:>12.1f}")
    print(f"patch embed: {report.patch_embed_flops / 1e6:.1f} MFLOPs")
    print(f"total: {report.total / 1e9:.3f} GFLOPs")

    if args.out:
        _write_json(args.out, {
            "arch": args.arch,
            "config": cfg.to_dict(),
            "r": args.r,
            "placement": placement.value,
            "total_gflops": report.total / 1e9,
            **report.to_dict(),
        })
    return 0


def _bench_spec(method: str, r: int, depth: int) -> fusion.ReduceSpec:
    if method == "full":
        return fusion.ReduceSpec(r=0)
    mm = fusion.MergeMethod(method)
    if mm is fusion.MergeMethod.PRUNED:
        return fusion.ReduceSpec(r=r, merge_string="P" * depth)
    return fusion.ReduceSpec(r=r, merge_string="A" * depth, late_method=mm)


def run_bench(cfg: vit.VitConfig, methods: list[str], r: int, batch: int,
              repeat: int, warmup: int, seed: int, mode: str,
              mbm: highway.MbmConfig) -> dict:
    """Time full forward passes per method, interleaving the methods within
    every repeat; medians only, never absolutes."""
    model = vit.random_model(cfg, seed)
    rng = np.random.default_rng([seed, 1])
    x = rng.standard_normal((batch, cfg.n_tokens, cfg.channels)).astype(FLOAT)

    def one_pass(spec):
        if mode == "highway":
            highway.highway_forward(x, model, spec, mbm)
        else:
            vit.forward(x, model, spec)

    specs = [_bench_spec(method, r, cfg.depth) for method in methods]
    for spec in specs:
        for _ in range(warmup):
            one_pass(spec)
    # every repeat times each method once, so drift spreads over all methods
    times = [[] for _ in methods]
    for _ in range(repeat):
        for spec, ts in zip(specs, times):
            t0 = time.perf_counter()
            one_pass(spec)
            ts.append((time.perf_counter() - t0) * 1000.0)

    rows = []
    for method, ts in zip(methods, times):
        median = float(np.median(ts))
        log.info("bench %s: median %.1f ms over %d repeats", method, median, repeat)
        rows.append({
            "method": method,
            "median_ms": median,
            "p10_ms": float(np.percentile(ts, 10)),
            "p90_ms": float(np.percentile(ts, 90)),
            "tokens_per_s": batch * cfg.n_tokens / (median / 1000.0),
            "images_per_s": batch / (median / 1000.0),
        })
    return {
        "config": {
            "vit": cfg.to_dict(),
            "batch": batch,
            "r": r,
            "repeat": repeat,
            "warmup": warmup,
            "seed": seed,
            "mode": mode,
            "mbm": {"enabled": mbm.enabled, "t": mbm.t},
        },
        "rows": rows,
    }


def cmd_bench(args) -> int:
    cfg = _arch_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    mbm = highway.MbmConfig(t=args.mbm_t, enabled=args.mbm)
    report = run_bench(cfg, methods, args.r, args.batch, args.repeat,
                       args.warmup, args.seed, args.mode, mbm)
    text = _dump_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    for row in report["rows"]:
        print(f"{row['method']:>8}: median {row['median_ms']:9.2f} ms  "
              f"[p10 {row['p10_ms']:.2f}, p90 {row['p90_ms']:.2f}]  "
              f"{row['images_per_s']:.2f} img/s")
    return 0


def cmd_gen(args) -> int:
    cfg = _arch_config(args)
    model = vit.random_model(cfg, args.seed, n_classes=args.classes or None)
    vit.save_weights(args.out_weights, model)
    if args.out_tokens:
        rng = np.random.default_rng([args.seed, 1])
        tokens = rng.standard_normal(
            (args.batch, cfg.n_tokens, cfg.channels)).astype(FLOAT)
        write_ttf(args.out_tokens, tokens)
    log.info("wrote %s (depth %d, C %d)", args.out_weights, cfg.depth, cfg.channels)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tofu",
        description="Token reduction toolkit: reduce, profile, count, benchmark.")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS thread cap (default 1, reproducible)")
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="apply one reduce to a token dump")
    p.add_argument("--input", required=True, help="TTF1 token tensor")
    p.add_argument("--metric", help="TTF1 similarity metric (default: input)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", choices=_METHOD_CHOICES, required=True)
    p.add_argument("--out", required=True, help="output TTF1 path")
    p.add_argument("--trace", help="write the reduce trace as JSON")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fl", help="per-layer functional linearity profile")
    p.add_argument("--model", required=True, help="TFW1 weights")
    p.add_argument("--tokens", required=True, help="TTF1 token tensor")
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--r", type=int, default=5, help="pairs per sequence")
    p.add_argument("--selector", choices=["mlp", "block_mlp"], default="mlp")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_fl)

    p = sub.add_parser("flops", help="analytical FLOP report")
    p.add_argument("--arch", choices=sorted(vit.ARCH_PRESETS), required=True)
    p.add_argument("--image", type=int, default=None)
    p.add_argument("--patch", type=int, default=None)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--placement", choices=[pl.value for pl in vit.ReducePlacement],
                   default=vit.ReducePlacement.BEFORE_MLP.value)
    p.add_argument("--out", help="write report JSON")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bench", help="wall-clock comparison of merge methods")
    p.add_argument("--arch", choices=sorted(vit.ARCH_PRESETS), required=True)
    p.add_argument("--image", type=int, default=None)
    p.add_argument("--patch", type=int, default=None)
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--methods", default="full,pruned,average,mlerp",
                   help="comma list of full|pruned|average|mlerp")
    p.add_argument("--mode", choices=["normal", "highway"], default="normal")
    p.add_argument("--mbm", action="store_true", help="enable magnitude masking")
    p.add_argument("--mbm-t", type=float, default=1.0)
    p.add_argument("--out", help="write report JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write synthetic weights/tokens fixtures")
    p.add_argument("--arch", choices=sorted(vit.ARCH_PRESETS), required=True)
    p.add_argument("--image", type=int, default=None)
    p.add_argument("--patch", type=int, default=None)
    p.add_argument("--out-weights", required=True, help="TFW1 output path")
    p.add_argument("--out-tokens", help="TTF1 output path")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--classes", type=int, default=0,
                   help="attach a classification head with this many classes")
    p.set_defaults(func=cmd_gen)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "fl" and args.steps < 3:
        parser.error("--steps must be at least 3")
    if args.command == "bench":
        if args.repeat < 3:
            parser.error("--repeat must be at least 3")
        if args.warmup < 1:
            parser.error("--warmup must be at least 1")
        known = set(_METHOD_CHOICES) | {"full"}
        for m in args.methods.split(","):
            if m.strip() and m.strip() not in known:
                parser.error(f"unknown method {m.strip()!r}")
    if args.command in ("reduce", "flops", "bench") and args.r < 0:
        parser.error("--r must be non-negative")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    _setup_logging()
    # default of 1 keeps timings and reductions reproducible
    try:
        with _limit_threads(args.threads):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
