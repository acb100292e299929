"""The three workloads. Each drives tofu only through its public functions.

A workload builds its inputs from the seed (untimed), sets the program up
(timed, repeated), runs its checks once (untimed, doubling as warm-up),
then exposes one operation per path for the timed loop in run.py. Every
later operation is checked cheaply against the checked first one: the
program is deterministic, so each must repeat it bit for bit.

Every workload reports the same end-to-end slots (see README.md):
base_per_s and tofu_per_s are the items per second of its two headline
paths, cos_to_full the fidelity of its reduced output to the unreduced one.
"""

from __future__ import annotations

import json
import os

import numpy as np

from tofu import cli, fusion, highway, tensor, vit

from . import checks, inputs, reference, tracing

PLACE_MLP = vit.ReducePlacement.BEFORE_MLP
PLACE_ATTN = vit.ReducePlacement.BEFORE_ATTN


def schedule(depth: int, d: int) -> list[str]:
    """ToFu's hybrid schedule: prune below layer d, MLERP from d on."""
    return ["pruned" if l < d else "mlerp" for l in range(depth)]


def rate(items: float, seconds: list[float]) -> float:
    """Items per median second; 0 when no operation succeeded."""
    med = float(np.median(seconds)) if seconds else 0.0
    return items / med if med > 0 else 0.0


def mean_row_cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1, a.shape[-1])
    b = np.asarray(b, dtype=np.float64).reshape(-1, b.shape[-1])
    dots = (a * b).sum(axis=1)
    return float(np.mean(dots / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))))


def check_reduces(records, batch: int, methods: list[str], r_eff: list[int]) -> None:
    """Every recorded apply_reduce call, in the order the program made them
    (layer by layer, item by item within a layer), against the matching
    rule and the fusion it was scheduled to apply."""
    checks.fail_unless(len(records) == batch * len(methods),
                       f"{len(records)} reduce calls for {len(methods)} layers of {batch}")
    for k, (args, _, (out, trace)) in enumerate(records):
        x, metric, method, r = args[:4]
        l = k // batch
        checks.fail_unless(method.value == methods[l] and r == r_eff[l],
                           f"layer {l}: reduce({method.value}, r={r}), "
                           f"scheduled ({methods[l]}, r={r_eff[l]})")
        m = trace.match
        checks.match(metric, m.idx_src, m.idx_dst, m.scores, r_eff[l])
        checks.reduce(x, methods[l], m.idx_src, m.idx_dst, out, trace.output_index_of_input)


class Workload:
    name = ""
    paths: tuple[str, ...] = ()
    base_path = tofu_path = ""
    setup_reps = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first: dict[str, object] = {}
        self.cos_to_full = 0.0  # stays 0 if the checks stop before measuring it

    def setup(self) -> None:
        """Program-side set-up, timed; runs setup_reps times."""
        raise NotImplementedError

    def check(self) -> None:
        """Untimed checks; leaves the first output of every path in self.first."""
        raise NotImplementedError

    def run(self, path: str):
        """One timed operation."""
        raise NotImplementedError

    def verify(self, path: str, out) -> None:
        """Untimed check of one timed operation's output against the first."""
        raise NotImplementedError

    def items(self, path: str) -> int:
        """Items one operation on path processes (sequences or pairs)."""
        raise NotImplementedError

    def layer_metrics(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics derived from the untraced operation times, if any."""
        return {}


class ClsVitB16(Workload):
    """ViT-B/16 classification, reduce before the MLP: the reference shape.

    Timed passes run one sequence. The fidelity and the reduce checks use a
    pool of POOL sequences, because one sequence's fidelity varies too much
    from seed to seed to gate on.
    """

    name = "cls-vitb16"
    paths = ("full", "tofu")
    base_path, tofu_path = "full", "tofu"
    setup_reps = 9
    POOL, R, D, CLASSES = 4, 16, 6, 1000
    # float32 forward against float64: error relative to the largest logit
    REFERENCE_RTOL = 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = vit.ARCH_PRESETS["vit-b16"]
        grid = self.cfg.image // self.cfg.patch
        self.pool = inputs.image_tokens(seed, 1, self.POOL, grid, self.cfg.channels)
        self.x = self.pool[:1]
        self.specs = {"full": fusion.ReduceSpec(r=0),
                      "tofu": fusion.ReduceSpec(r=self.R, d=self.D)}
        n0, depth = self.cfg.n_tokens, self.cfg.depth
        self.counts = {"full": [n0] * depth,
                       "tofu": checks.clamped_decay(n0, self.R, depth)}
        self.model = None

    def setup(self):
        self.model = None
        self.model = vit.random_model(self.cfg, self.seed, n_classes=self.CLASSES)

    def run(self, path):
        return vit.forward(self.x, self.model, self.specs[path])

    def verify(self, path, out):
        logits, counts = out
        checks.token_counts(counts, self.counts[path], path)
        checks.equal(logits, self.first.setdefault(path, logits),
                     f"{path}: logits against the first pass")

    def items(self, path):
        return len(self.x)

    def check(self):
        cfg, depth = self.cfg, self.cfg.depth
        methods = schedule(depth, self.D)
        for path in self.paths:
            logits, counts = self.run(path)
            checks.token_counts(counts, self.counts[path], path)
            self.first[path] = logits
        checks.close(self.first["full"][0], reference.classify(self.x[0], self.model),
                     self.REFERENCE_RTOL, "full logits against the float64 forward")

        headless = vit.VitModel(cfg, self.model.blocks)
        reduces = []
        with tracing.rebound([tracing.recording("tofu.vit", "apply_reduce", reduces)]):
            pooled = {p: vit.forward(self.pool, headless, self.specs[p])[0] for p in self.paths}
        n_in = [cfg.n_tokens] + self.counts["tofu"][:-1]
        check_reduces(reduces, self.POOL, methods, [min(self.R, n // 2) for n in n_in])

        y = self.x
        for l, w in enumerate(headless.blocks):
            y, _ = vit.block_forward(y, w, cfg.heads, fusion.MergeMethod(methods[l]),
                                     self.R, PLACE_MLP)
        checks.equal(y, vit.forward(self.x, headless, self.specs["tofu"])[0],
                     "block_forward replay against forward")

        # per sequence: the tofu row each input position ended up in
        cos = []
        for i in range(self.POOL):
            row = np.arange(cfg.n_tokens)
            for _, _, (_, trace) in reduces[i::self.POOL]:
                row = trace.output_index_of_input[row]
            cos.append(mean_row_cosine(pooled["tofu"][i][row], pooled["full"][i]))
        self.cos_to_full = float(np.mean(cos))
        self.logit_cos = mean_row_cosine(self.first["tofu"], self.first["full"])

    def layer_metrics(self, times):
        full = vit.flops_estimate(self.cfg, self.specs["full"]).total
        tofu = vit.flops_estimate(self.cfg, self.specs["tofu"]).total
        n = len(self.x)
        full_rate, tofu_rate = rate(n, times["full"]), rate(n, times["tofu"])
        return {
            "vit.gflop_per_s.full": (full / 1e9 * full_rate, "GFLOP/s"),
            "vit.gflop_per_s.tofu": (tofu / 1e9 * tofu_rate, "GFLOP/s"),
            "vit.flop_ratio.tofu": (tofu / full, "ratio"),
            "vit.time_ratio.tofu": (full_rate / tofu_rate if tofu_rate else 0.0, "ratio"),
            "vit.logit_cos.tofu": (self.logit_cos, "cos"),
        }


class GenTinyHighway(Workload):
    """Generation style at vit-tiny width: short sequences, large batch."""

    name = "gen-tiny-highway"
    paths = ("unmerge", "highway", "highway_mbm")
    base_path, tofu_path = "unmerge", "highway_mbm"
    setup_reps = 50
    BATCH, R, D, MBM_T = 32, 4, 6, 1.0
    # float32 dual path against the float64 loop, relative to its largest entry
    HIGHWAY_RTOL = 1e-4
    MAX_AMBIGUOUS = 0.01

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = vit.VitConfig(depth=12, channels=192, heads=3, image=112)
        grid = self.cfg.image // self.cfg.patch
        self.x = inputs.image_tokens(seed, 2, self.BATCH, grid, self.cfg.channels)
        self.spec = fusion.ReduceSpec(r=self.R, d=self.D)
        self.mbm = {"highway": highway.MbmConfig(),
                    "highway_mbm": highway.MbmConfig(t=self.MBM_T, enabled=True)}
        n0, depth = self.cfg.n_tokens, self.cfg.depth
        self.counts = {"unmerge": [n0] * depth, "highway": checks.clamped_decay(n0, self.R, depth)}
        self.counts["highway_mbm"] = self.counts["highway"]
        self.model = None

    def setup(self):
        self.model = None
        self.model = vit.random_model(self.cfg, self.seed)

    def _run(self, x, path):
        if path == "unmerge":
            return vit.forward(x, self.model, self.spec, PLACE_ATTN)
        return highway.highway_forward(x, self.model, self.spec, self.mbm[path])

    def run(self, path):
        return self._run(self.x, path)

    def verify(self, path, out):
        tokens, counts = out
        checks.token_counts(counts, self.counts[path], path)
        checks.equal(tokens, self.first.setdefault(path, tokens),
                     f"{path}: output against the first pass")

    def items(self, path):
        return self.BATCH

    def check(self):
        cfg, depth, n0 = self.cfg, self.cfg.depth, self.cfg.n_tokens
        methods = schedule(depth, self.D)
        plain = fusion.ReduceSpec(r=0)
        full, _ = vit.forward(self.x, self.model, plain)
        hw0, _ = highway.highway_forward(self.x, self.model, plain)
        checks.equal(hw0, full, "highway at r=0 against forward")

        reduces, unmerges = [], []
        with tracing.rebound([tracing.recording("tofu.vit", "apply_reduce", reduces),
                              tracing.recording("tofu.vit", "unmerge", unmerges)]):
            self.first["unmerge"], counts = self.run("unmerge")
        checks.token_counts(counts, self.counts["unmerge"], "unmerge")
        check_reduces(reduces, self.BATCH, methods, [min(self.R, n0 // 2)] * depth)
        checks.fail_unless(len(unmerges) == self.BATCH * depth, "one unmerge per item and layer")
        for (reduced, trace), _, out in unmerges:
            checks.unmerge(reduced, trace.output_index_of_input, out)

        local_in = [n0] + self.counts["highway"][:-1]
        r_eff = [min(self.R, n // 2) for n in local_in]
        for path in ("highway", "highway_mbm"):
            reduces = []
            with tracing.rebound([tracing.recording("tofu.highway", "apply_reduce", reduces)]):
                self.first[path], counts = self.run(path)
            checks.token_counts(counts, self.counts[path], path)
            check_reduces(reduces, self.BATCH, methods, r_eff)

            reduces = []
            with tracing.rebound([tracing.recording("tofu.highway", "apply_reduce", reduces)]):
                one, _ = self._run(self.x[:1], path)
            matches = [(res[1].match.idx_src, res[1].match.idx_dst) for _, _, res in reduces]
            mbm = self.mbm[path]
            expected, ambiguous = reference.highway(
                self.x[0], self.model, methods, matches, mbm.t if mbm.enabled else None)
            checks.highway(one[0], expected, ambiguous, self.HIGHWAY_RTOL, self.MAX_AMBIGUOUS)

        self.cos_to_full = mean_row_cosine(self.first["highway_mbm"], full)


class ToolsOffline(Workload):
    """The offline CLI: `tofu reduce --trace` and `tofu fl`, in-process."""

    name = "tools-offline"
    paths = ("reduce", "fl")
    base_path, tofu_path = "reduce", "fl"
    setup_reps = 25
    REDUCE_BATCH, REDUCE_R, DUMP_CHANNELS, KEY_DIMS = 64, 16, 64, 64
    FL_BATCH, FL_R, FL_STEPS, CLASSES = 2, 5, 21, 10
    FL_ATOL = 1e-5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        b16 = vit.ARCH_PRESETS["vit-b16"]
        self.cfg = vit.VitConfig(depth=12, channels=192, heads=3, image=112)
        self.x = inputs.image_tokens(seed, 3, self.REDUCE_BATCH,
                                     b16.image // b16.patch, self.DUMP_CHANNELS)
        self.metric = inputs.key_projection(self.x, seed, 4, self.KEY_DIMS)
        self.fl_tokens = inputs.image_tokens(seed, 5, self.FL_BATCH,
                                             self.cfg.image // self.cfg.patch,
                                             self.cfg.channels)
        self.file = {k: os.path.join(workdir, k) for k in (
            "model.tfw", "x.ttf", "metric.ttf", "fl_tokens.ttf",
            "reduced.ttf", "trace.json", "fl.json")}
        self.argv = {
            "reduce": ["reduce", "--input", self.file["x.ttf"],
                       "--metric", self.file["metric.ttf"], "--r", str(self.REDUCE_R),
                       "--method", "mlerp", "--out", self.file["reduced.ttf"],
                       "--trace", self.file["trace.json"]],
            "fl": ["fl", "--model", self.file["model.tfw"],
                   "--tokens", self.file["fl_tokens.ttf"], "--steps", str(self.FL_STEPS),
                   "--r", str(self.FL_R), "--out", self.file["fl.json"]],
        }
        self.outputs = {"reduce": ("reduced.ttf", "trace.json"), "fl": ("fl.json",)}
        self.model = None

    def setup(self):
        self.model = None
        self.model = vit.random_model(self.cfg, self.seed, n_classes=self.CLASSES)
        vit.save_weights(self.file["model.tfw"], self.model)
        tensor.write_ttf(self.file["x.ttf"], self.x)
        tensor.write_ttf(self.file["metric.ttf"], self.metric)
        tensor.write_ttf(self.file["fl_tokens.ttf"], self.fl_tokens)

    def run(self, path):
        code = cli.main(self.argv[path])
        if code != 0:
            raise RuntimeError(f"tofu {path} exited with {code}")

    def _read(self, path):
        out = []
        for name in self.outputs[path]:
            with open(self.file[name], "rb") as fh:
                out.append(fh.read())
        return out

    def verify(self, path, out):
        data = self._read(path)
        checks.fail_unless(data == self.first.setdefault(path, data),
                           f"{path}: output files differ from the first run")

    def items(self, path):
        if path == "reduce":
            return self.REDUCE_BATCH
        pairs = min(self.FL_R, self.cfg.n_tokens // 2)
        return self.FL_BATCH * pairs * self.cfg.depth

    def check(self):
        self._check_round_trips()
        self.run("reduce")
        self.first["reduce"] = self._read("reduce")
        self._check_reduce()
        fl_calls = []
        with tracing.rebound([tracing.recording(
                "tofu.linearity", "functional_linearity", fl_calls)]):
            self.run("fl")
        self.first["fl"] = self._read("fl")
        self._check_fl(fl_calls)

    def _check_round_trips(self):
        for name, arr in (("x.ttf", self.x), ("metric.ttf", self.metric),
                          ("fl_tokens.ttf", self.fl_tokens)):
            checks.equal(tensor.read_ttf(self.file[name]), arr, f"TTF1 round trip of {name}")
        loaded = vit.load_weights(self.file["model.tfw"])
        checks.fail_unless(loaded.config == self.model.config, "TFW1 round trip of the config")
        pairs = list(zip(loaded.blocks, self.model.blocks)) + [(loaded.head, self.model.head)]
        for got, want in pairs:
            for field in vars(want):
                checks.equal(getattr(got, field), getattr(want, field),
                             f"TFW1 round trip of {field}")

    def _check_reduce(self):
        reduced = tensor.read_ttf(self.file["reduced.ttf"])
        with open(self.file["trace.json"], encoding="utf-8") as fh:
            traces = json.load(fh)
        n = self.x.shape[1]
        r = min(self.REDUCE_R, n // 2)
        checks.fail_unless(len(traces) == self.REDUCE_BATCH, "one trace per sequence")
        checks.fail_unless(reduced.shape == (self.REDUCE_BATCH, n - r, self.x.shape[2]),
                           f"reduced dump has shape {reduced.shape}")
        for i, t in enumerate(traces):
            checks.fail_unless(t["src"] == list(range(1, n, 2)) and t["dst"] == list(range(0, n, 2)),
                               f"trace {i}: src/dst are not the odd/even positions")
            checks.fail_unless(t["clamped"] is False, f"trace {i}: r={r} reported as clamped")
            checks.match(self.metric[i], t["idx_src"], t["idx_dst"], t["scores"], r)
            checks.reduce(self.x[i], "mlerp", t["idx_src"], t["idx_dst"], reduced[i],
                          t["output_index_of_input"])
        maps = np.array([t["output_index_of_input"] for t in traces])
        self.cos_to_full = mean_row_cosine(
            np.take_along_axis(reduced, maps[:, :, None], axis=1), self.x)

    def _check_fl(self, fl_calls):
        rows = json.loads(self.first["fl"][0])
        per_layer = self.items("fl") // self.cfg.depth
        checks.fail_unless(len(fl_calls) == per_layer * self.cfg.depth,
                           f"{len(fl_calls)} linearity probes for {self.cfg.depth} layers")
        checks.fl_report(rows, self.cfg.depth, per_layer)
        for row in rows:
            values = [res for _, _, res in fl_calls[row["layer"] * per_layer:
                                                   (row["layer"] + 1) * per_layer]]
            checks.fail_unless(all(0.0 <= v <= 1.0 for v in values),
                               f"fl: layer {row['layer']} has a pair outside [0, 1]")
            checks.fail_unless(row["count"] == len(values)
                               and abs(row["mean_fl"] - float(np.mean(values))) <= 1e-12,
                               f"fl: layer {row['layer']} mean is not its pairs' mean")
        (_, x1, x2, steps), _, value = fl_calls[0]
        w0 = self.model.blocks[0]
        again = reference.functional_linearity(lambda v: reference.mlp(v, w0), x1, x2, steps)
        checks.fail_unless(abs(again - value) <= self.FL_ATOL,
                           f"fl: first pair {value!r}, recomputed {again!r}")


WORKLOADS = {w.name: w for w in (ClsVitB16, GenTinyHighway, ToolsOffline)}
