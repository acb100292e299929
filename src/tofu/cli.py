"""Command-line surface: reduce token dumps, profile linearity, count FLOPs,
benchmark merge methods, and generate synthetic fixtures.

Exit codes: 0 success, 1 runtime error, 2 usage error. Tensors and weights
are binary; the reduce trace and the fl report are JSON, while flops and bench
print a text table and write JSON only with --out. TOFU_LOG={error|info|debug}
controls verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from . import fusion, highway, linearity, vit
from .tensor import FormatError, ShapeError, check_count, read_ttf, rewrite, write_ttf

log = logging.getLogger("tofu")

_METHOD_CHOICES = [m.value for m in fusion.MergeMethod]


def _setup_logging() -> None:
    level = os.environ.get("TOFU_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's linalg
    extension links (its handle's dlsym searches them too), or None. OpenBLAS
    reads its environment variables once, when numpy loads it, before main."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
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
    blas = _openblas_threads()
    if blas is None:
        log.warning("no OpenBLAS found; --threads %d not applied", n)
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


def _write_text(path: str, text: str) -> None:
    data = text.encode("utf-8")
    with rewrite(path) as fh:
        fh.write(data)


def _write_json(path: str, obj) -> None:
    _write_text(path, _dump_json(obj))


def _arch_config(args) -> vit.VitConfig:
    cfg = vit.ARCH_PRESETS[args.arch]
    # replace() re-runs VitConfig's checks, so --image 0 or --patch 0 fails
    return dataclasses.replace(
        cfg, image=cfg.image if args.image is None else args.image,
        patch=cfg.patch if args.patch is None else args.patch)


def _trace_json(trace: fusion.ReduceTrace) -> dict | list[dict]:
    """One JSON object per sequence; a one-sequence trace gives its object alone."""
    m, index = trace.match, trace.output_index_of_input
    ids = range(index.shape[-1])
    src, dst = list(ids[1::2]), list(ids[0::2])
    per_item = zip(*(np.atleast_2d(a).tolist() for a in (m.idx_src, m.idx_dst, m.scores)),
                   np.atleast_1d(trace.mlerp_degenerate_groups > 0).tolist(),
                   np.atleast_2d(index).tolist())
    dicts = [{
        "src": src,
        "dst": dst,
        "idx_src": idx_src,
        "idx_dst": idx_dst,
        "scores": scores,
        "clamped": m.clamped,
        "mlerp_degenerate": degenerate,
        "output_index_of_input": out_map,
    } for idx_src, idx_dst, scores, degenerate, out_map in per_item]
    return dicts[0] if index.ndim == 1 else dicts


def cmd_reduce(args) -> int:
    x = read_ttf(args.input)
    metric = read_ttf(args.metric) if args.metric else x
    try:
        reduced, trace = fusion.apply_reduce(x, metric, fusion.MergeMethod(args.method), args.r)
    except ShapeError as exc:
        dumps = f"{args.input}, {args.metric}" if args.metric else args.input
        raise FormatError(f"{dumps}: {exc}") from exc
    write_ttf(args.out, reduced)
    if args.trace:
        _write_json(args.trace, _trace_json(trace))
    log.info("reduced %s tokens -> %s", x.shape[-2], reduced.shape[-2])
    return 0


def cmd_fl(args) -> int:
    model = vit.load_weights(args.model)
    tokens = read_ttf(args.tokens)
    if tokens.ndim == 2:  # profile_model takes batches
        tokens = tokens[None]
    try:
        rows = linearity.profile_model(model, tokens, args.steps, args.r)
    except ShapeError as exc:
        raise FormatError(f"{args.tokens}: {exc}") from exc
    text = json.dumps([dataclasses.asdict(row) for row in rows],
                      indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_flops(args) -> int:
    cfg = _arch_config(args)
    spec = fusion.ReduceSpec(r=args.r)
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
            "config": dataclasses.asdict(cfg),
            "r": args.r,
            "placement": placement.value,
            "total_gflops": report.total / 1e9,
            **dataclasses.asdict(report),
        })
    return 0


def _bench_spec(method: str, r: int) -> fusion.ReduceSpec:
    """The spec that `bench --methods` times: one method in every layer."""
    if method == "full":
        return fusion.ReduceSpec(r=0)
    return fusion.ReduceSpec(r=r, d=0, late_method=fusion.MergeMethod(method))


def _random_tokens(cfg: vit.VitConfig, batch: int, seed: int) -> np.ndarray:
    """The seeded (batch, n_tokens, channels) input that gen writes and bench times."""
    rng = np.random.default_rng([seed, 1])
    return vit.draw_float32((batch, cfg.n_tokens, cfg.channels),
                            lambda draw, part: np.copyto(part, rng.standard_normal(out=draw)))


def run_bench(cfg: vit.VitConfig, methods: list[str], r: int, batch: int,
              repeat: int, warmup: int, seed: int, mode: str,
              mbm: highway.MbmConfig) -> dict:
    """Time full forward passes per method, interleaving the methods within
    every repeat; medians only, never absolutes."""
    model = vit.random_model(cfg, seed)
    x = _random_tokens(cfg, batch, seed)

    def one_pass(spec):
        if mode == "highway":
            highway.highway_forward(x, model, spec, mbm)
        else:
            vit.forward(x, model, spec)

    specs = [_bench_spec(method, r) for method in methods]
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
            "vit": dataclasses.asdict(cfg),
            "batch": batch,
            "r": r,
            "repeat": repeat,
            "warmup": warmup,
            "seed": seed,
            "mode": mode,
            "mbm": dataclasses.asdict(mbm),
        },
        "rows": rows,
    }


def cmd_bench(args) -> int:
    cfg = _arch_config(args)
    report = run_bench(cfg, args.methods, args.r, args.batch, args.repeat,
                       args.warmup, args.seed, args.mode,
                       args.mbm or highway.MbmConfig())
    if args.out:
        _write_json(args.out, report)
    for row in report["rows"]:
        print(f"{row['method']:>8}: median {row['median_ms']:9.2f} ms  "
              f"[p10 {row['p10_ms']:.2f}, p90 {row['p90_ms']:.2f}]  "
              f"{row['images_per_s']:.2f} img/s")
    return 0


def cmd_gen(args) -> int:
    cfg = _arch_config(args)
    model = vit.random_model(cfg, args.seed, n_classes=args.classes)
    # drawn before any file is written, so running out of memory leaves none
    tokens = _random_tokens(cfg, args.batch, args.seed) if args.out_tokens else None
    # a failed run removes the outputs it created, and only those
    created = [path for path in (args.out_weights, args.out_tokens)
               if path and not os.path.lexists(path)]
    try:
        vit.save_weights(args.out_weights, model)
        if tokens is not None:
            write_ttf(args.out_tokens, tokens)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    log.info("wrote %s (depth %d, C %d)", args.out_weights, cfg.depth, cfg.channels)
    return 0


def _count(least: int, most: int | None = None):
    """The argparse type of a count flag: check_count's rule, and at most
    most if given, checked as the flag is parsed."""
    def count(text: str) -> int:
        try:
            value = check_count(int(text), "", least)
        except ValueError as exc:  # the reason, without check_count's name
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value
    return count


def _mbm_threshold(text: str) -> highway.MbmConfig:
    """The --mbm-t type: masking on at this threshold, under MbmConfig's rule."""
    try:
        return highway.MbmConfig(t=float(text), enabled=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _method_list(text: str) -> list[str]:
    """The --methods comma list: at least one known method, blanks skipped."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in _METHOD_CHOICES and m != "full":
            raise argparse.ArgumentTypeError(f"unknown method {m!r}")
    if not methods:
        raise argparse.ArgumentTypeError("no method given")
    return methods


def build_parser() -> argparse.ArgumentParser:
    # no parser takes a prefix for a flag, so a removed flag cannot live on as one
    parser = argparse.ArgumentParser(
        prog="tofu", allow_abbrev=False,
        description="Token reduction toolkit: reduce, profile, count, benchmark.")
    # OpenBLAS would take a count below 1 as "use every core", and the count
    # goes to C as an int, which ctypes would wrap above 2**31 - 1
    parser.add_argument("--threads", type=_count(1, 2**31 - 1), default=1,
                        help="BLAS thread cap (default 1, reproducible)")
    parser.add_argument("--seed", type=_count(0), default=0, help="global RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)
    # the model shape, shared by every command that builds a model from a preset
    arch = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    arch.add_argument("--arch", choices=sorted(vit.ARCH_PRESETS), required=True)
    arch.add_argument("--image", type=int, default=None)
    arch.add_argument("--patch", type=int, default=None)

    p = sub.add_parser("reduce", allow_abbrev=False,
                       help="apply one reduce to a token dump")
    p.add_argument("--input", required=True, help="TTF1 token tensor")
    p.add_argument("--metric", help="TTF1 similarity metric (default: input)")
    p.add_argument("--r", type=_count(0), required=True)
    p.add_argument("--method", choices=_METHOD_CHOICES, required=True)
    p.add_argument("--out", required=True, help="output TTF1 path")
    p.add_argument("--trace", help="write the reduce trace as JSON")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fl", allow_abbrev=False,
                       help="per-layer functional linearity profile")
    p.add_argument("--model", required=True, help="TFW1 weights")
    p.add_argument("--tokens", required=True, help="TTF1 token tensor")
    p.add_argument("--steps", type=_count(3), default=21)
    p.add_argument("--r", type=_count(0), default=5, help="pairs per sequence")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_fl)

    p = sub.add_parser("flops", allow_abbrev=False, parents=[arch],
                       help="analytical FLOP report")
    p.add_argument("--r", type=_count(0), default=0)
    p.add_argument("--placement", choices=[pl.value for pl in vit.ReducePlacement],
                   default=vit.ReducePlacement.BEFORE_MLP.value)
    p.add_argument("--out", help="write report JSON")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bench", allow_abbrev=False, parents=[arch],
                       help="wall-clock comparison of merge methods")
    p.add_argument("--r", type=_count(0), default=16)
    p.add_argument("--batch", type=_count(1), default=8)
    p.add_argument("--repeat", type=_count(3), default=5)
    p.add_argument("--warmup", type=_count(1), default=1)
    p.add_argument("--methods", type=_method_list, default="full,pruned,average,mlerp",
                   help="comma list of full|pruned|average|mlerp")
    p.add_argument("--mode", choices=["normal", "highway"], default="normal")
    p.add_argument("--mbm-t", dest="mbm", type=_mbm_threshold, metavar="T",
                   help="mask distributed residuals at or above this magnitude "
                        "(highway mode; default: no masking)")
    p.add_argument("--out", help="write report JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", allow_abbrev=False, parents=[arch],
                       help="write synthetic weights/tokens fixtures")
    p.add_argument("--out-weights", required=True, help="TFW1 output path")
    p.add_argument("--out-tokens", help="TTF1 output path")
    p.add_argument("--batch", type=_count(1), default=1)
    p.add_argument("--classes", type=_count(0), default=0,
                   help="attach a classification head with this many classes")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mbm", None) is not None and args.mode != "highway":
        parser.error("--mbm-t needs --mode highway")
    _setup_logging()
    # default of 1 keeps timings and reductions reproducible
    try:
        with _limit_threads(args.threads):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
