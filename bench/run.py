"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload cls-vitb16 --seed 1 --seconds 20 --trace 0

Each invocation is one single-threaded process: BLAS is pinned to one
thread before numpy loads, and the run fails if any other count is in
effect. --trace 0 prints the end-to-end metrics; --trace 1 prints the
per-layer metrics from a run that interleaves traced and untraced passes.
"""

import os
import sys

# OpenBLAS sizes its thread pool when numpy loads it, so this must come first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_ROUNDS = 3


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def fingerprint(np) -> dict:
    a = np.ones((512, 512), dtype=np.float32)
    a @ a  # let BLAS start whatever threads it will
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "os_threads": os_threads(),
    }


def measure(workload, seconds: float, tracer):
    """Whole rounds of every path until the time is up (at least MIN_ROUNDS).

    Returns (attempted, failed, correct, untraced times per path, traced
    times per path, round times). With a tracer every operation is run
    twice, untraced then traced.
    """
    from bench.checks import CheckFailed

    times = {p: [] for p in workload.paths}
    traced = {p: [] for p in workload.paths}
    rounds = []
    attempted = failed = 0
    correct = True
    variants = [None] if tracer is None else [None, tracer]
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        round_s = 0.0
        for path in workload.paths:
            for t in variants:
                attempted += 1
                try:
                    t0 = time.perf_counter()
                    out = workload.run(path) if t is None else \
                        t.timed_pass(lambda: workload.run(path))
                    dt = time.perf_counter() - t0
                    workload.verify(path, out)
                except CheckFailed as exc:
                    correct = False
                    print(f"check failed: {exc}", file=sys.stderr)
                    continue
                except Exception as exc:  # an operation that fails is counted, not fatal
                    failed += 1
                    print(f"operation failed: {path}: {exc!r}", file=sys.stderr)
                    continue
                (times if t is None else traced)[path].append(dt)
                if t is None:
                    round_s += dt
        rounds.append(round_s)
    return attempted, failed, correct, times, traced, rounds


def end_to_end(workload, setup_s, times, rounds):
    import resource

    from bench.workloads import rate

    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "round_per_s": (rate(1, rounds), "1/s"),
        "base_per_s": (rate(workload.items(workload.base_path), times[workload.base_path]), "1/s"),
        "tofu_per_s": (rate(workload.items(workload.tofu_path), times[workload.tofu_path]), "1/s"),
        "cos_to_full": (workload.cos_to_full, "cos"),
    }


def per_layer(workload, tracer, times, traced):
    s = tracer.summary()
    passes = s["calls"]["pass"]

    def ms(kind, name):
        return (1000.0 * s[kind].get(name, 0.0) / passes, "ms")

    def count(value):
        return (value / passes, "count")

    untraced = sum(statistics.median(v) for v in times.values() if v)
    overhead = sum(statistics.median(v) for v in traced.values() if v) / untraced - 1.0 \
        if untraced > 0 else 0.0
    metrics = {
        "tensor.layernorm_ms": ms("total", "tensor.layernorm"),
        "tensor.softmax_ms": ms("total", "tensor.softmax"),
        "tensor.gelu_ms": ms("total", "tensor.gelu"),
        "tensor.ttf_read_ms": ms("total", "tensor.ttf_read"),
        "tensor.ttf_write_ms": ms("total", "tensor.ttf_write"),
        "vit.attention_self_ms": ms("self", "vit.attention"),
        "vit.mlp_self_ms": ms("self", "vit.mlp"),
        "vit.gflop_per_s.full": (0.0, "GFLOP/s"),
        "vit.gflop_per_s.tofu": (0.0, "GFLOP/s"),
        "vit.flop_ratio.tofu": (0.0, "ratio"),
        "vit.time_ratio.tofu": (0.0, "ratio"),
        "vit.logit_cos.tofu": (0.0, "cos"),
        "vit.load_weights_ms": ms("total", "vit.load_weights"),
        "matching.match_ms": ms("total", "matching.match"),
        "matching.match_calls": count(s["calls"].get("matching.match", 0)),
        "fusion.reduce_self_ms": ms("self", "fusion.reduce"),
        "fusion.reduce_calls": count(s["calls"].get("fusion.reduce", 0)),
        "fusion.merge_ms": ms("total", "fusion.merge"),
        "fusion.unmerge_ms": ms("total", "fusion.unmerge"),
        "fusion.unmerge_calls": count(s["calls"].get("fusion.unmerge", 0)),
        "fusion.tokens_removed": count(s["counters"].get("fusion.tokens_removed", 0)),
        "fusion.mlerp_degenerate": count(s["counters"].get("fusion.mlerp_degenerate", 0)),
        "highway.distribute_ms": ms("total", "highway.distribute"),
        "highway.distribute_calls": count(s["calls"].get("highway.distribute", 0)),
        "highway.mbm_mask_ms": ms("total", "highway.mbm_mask"),
        "highway.update_index_ms": ms("total", "highway.update_index"),
        "linearity.path_length_ms": ms("total", "linearity.path_length"),
        "linearity.map_evals": count(s["map_evals"]),
        "linearity.profile_ms": ms("total", "linearity.profile"),
        "cli.reduce_self_ms": ms("self", "cli.reduce"),
        "cli.fl_self_ms": ms("self", "cli.fl"),
        "cli.trace_json_ms": ms("total", "cli.trace_json"),
        "trace.unattributed_share": (s["self"]["pass"] / s["total"]["pass"], "ratio"),
        "trace.overhead": (overhead, "ratio"),
    }
    metrics.update(workload.layer_metrics(times))
    return metrics


def main(argv=None) -> int:
    from bench.checks import CheckFailed
    from bench.tracing import Tracer
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np

    env = fingerprint(np)
    print("fingerprint " + json.dumps(env, sort_keys=True), flush=True)
    known = [n for n in (env["blas_threads"], env["os_threads"]) if n is not None]
    if not known or any(n != 1 for n in known):
        print("error: BLAS is not running on exactly one thread", file=sys.stderr)
        return 3

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = []
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        correct = False
        try:
            workload.check()
            correct = True
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # the program raised during the checks: report, keep measuring
            traceback.print_exc()
        tracer = Tracer() if args.trace else None
        attempted, failed, ok, times, traced, rounds = measure(workload, args.seconds, tracer)
        correct = correct and ok
        if tracer is None:
            metrics = end_to_end(workload, setup_s, times, rounds)
        else:
            metrics = per_layer(workload, tracer, times, traced)
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "tofu", "__init__.py")):
        print(f"error: the tofu sources are not under {ROOT}/src", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    sys.exit(main())
