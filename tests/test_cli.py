import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from model_fixtures import identity_mlp_model, rewrite_tfw_config
from tofu import cli, highway, vit
from tofu.tensor import read_ttf, write_ttf


def run_cli(*argv):
    return cli.main(list(argv))


def run_cli_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        a_w, a_t = tmp_path / "a.tfw", tmp_path / "a.ttf"
        b_w, b_t = tmp_path / "b.tfw", tmp_path / "b.ttf"
        for w, t in ((a_w, a_t), (b_w, b_t)):
            assert run_cli("--seed", "9", "gen", "--arch", "vit-tiny",
                           "--image", "64", "--out-weights", str(w),
                           "--out-tokens", str(t)) == 0
        assert a_w.read_bytes() == b_w.read_bytes()
        assert a_t.read_bytes() == b_t.read_bytes()

    def test_outputs_parse_back(self, tmp_path):
        w, t = tmp_path / "m.tfw", tmp_path / "t.ttf"
        assert run_cli("--seed", "0", "gen", "--arch", "vit-tiny",
                       "--image", "64", "--out-weights", str(w),
                       "--out-tokens", str(t)) == 0
        model = vit.load_weights(str(w))
        assert model.config.channels == 192
        tokens = read_ttf(str(t))
        assert tokens.shape == (1, model.config.n_tokens, 192)

    def test_missing_required_flag_is_usage_error(self):
        assert run_cli_usage_error("gen", "--arch", "vit-tiny") == 2


class TestReduce:
    def make_inputs(self, tmp_path, n=10, c=6):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, c)).astype(np.float32)
        keys = rng.standard_normal((n, 4)).astype(np.float32)
        xp, kp = tmp_path / "x.ttf", tmp_path / "k.ttf"
        write_ttf(str(xp), x)
        write_ttf(str(kp), keys)
        return x, str(xp), str(kp)

    def test_reduce_drops_r_tokens(self, tmp_path):
        x, xp, kp = self.make_inputs(tmp_path)
        out = tmp_path / "o.ttf"
        trace = tmp_path / "trace.json"
        assert run_cli("reduce", "--input", xp, "--metric", kp, "--r", "1",
                       "--method", "mlerp", "--out", str(out),
                       "--trace", str(trace)) == 0
        reduced = read_ttf(str(out))
        assert reduced.shape == (9, 6)
        t = json.loads(trace.read_text())
        assert len(t["idx_src"]) == 1
        assert len(t["output_index_of_input"]) == 10

    def test_r_zero_is_permutation(self, tmp_path):
        x, xp, kp = self.make_inputs(tmp_path)
        out = tmp_path / "o.ttf"
        assert run_cli("reduce", "--input", xp, "--metric", kp, "--r", "0",
                       "--method", "average", "--out", str(out)) == 0
        reduced = read_ttf(str(out))
        assert np.array_equal(np.sort(reduced, axis=0), np.sort(x, axis=0))

    def test_batched_input(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 8, 4)).astype(np.float32)
        xp = tmp_path / "x.ttf"
        write_ttf(str(xp), x)
        out = tmp_path / "o.ttf"
        assert run_cli("reduce", "--input", str(xp), "--r", "2",
                       "--method", "pruned", "--out", str(out)) == 0
        assert read_ttf(str(out)).shape == (3, 6, 4)

    def test_bogus_method_is_usage_error(self, tmp_path):
        _, xp, kp = self.make_inputs(tmp_path)
        code = run_cli_usage_error("reduce", "--input", xp, "--metric", kp,
                                   "--r", "1", "--method", "bogus",
                                   "--out", str(tmp_path / "o.ttf"))
        assert code == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert run_cli("reduce", "--input", str(tmp_path / "nope.ttf"),
                       "--r", "1", "--method", "pruned",
                       "--out", str(tmp_path / "o.ttf")) == 1
        assert "error" in capsys.readouterr().err


class TestFl:
    def make_fixture(self, tmp_path):
        model = identity_mlp_model(depth=2)
        wpath = tmp_path / "m.tfw"
        vit.save_weights(str(wpath), model)
        rng = np.random.default_rng(2)
        tokens = rng.standard_normal((1, 8, 4)).astype(np.float32)
        tpath = tmp_path / "t.ttf"
        write_ttf(str(tpath), tokens)
        return str(wpath), str(tpath)

    def test_identity_mlp_means_one(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        out = tmp_path / "fl.json"
        assert run_cli("fl", "--model", wpath, "--tokens", tpath,
                       "--r", "2", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        for row in rows:
            assert row["count"] > 0
            assert abs(row["mean_fl"] - 1.0) < 1e-5

    def test_too_few_steps_is_usage_error(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        assert run_cli_usage_error("fl", "--model", wpath, "--tokens", tpath,
                                   "--steps", "2") == 2

    def test_deterministic_across_runs(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("fl", "--model", wpath, "--tokens", tpath, "--out", str(a))
        run_cli("fl", "--model", wpath, "--tokens", tpath, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_heads_model_is_runtime_error(self, tmp_path, capsys):
        wpath, tpath = self.make_fixture(tmp_path)
        rewrite_tfw_config(wpath, identity_mlp_model(depth=2).config, heads=0)
        assert run_cli("fl", "--model", wpath, "--tokens", tpath) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "heads" in err
        assert "Traceback" not in err


class TestFlops:
    def test_vitb16_full(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run_cli("flops", "--arch", "vit-b16", "--r", "0",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["total"] == pytest.approx(17.58e9, rel=0.02)
        assert "GFLOPs" in capsys.readouterr().out

    def test_vitb16_r8(self, tmp_path):
        out = tmp_path / "f.json"
        run_cli("flops", "--arch", "vit-b16", "--r", "8", "--out", str(out))
        assert json.loads(out.read_text())["total"] == pytest.approx(
            13.12e9, rel=0.03)

    def test_vitl16_r12(self, tmp_path):
        out = tmp_path / "f.json"
        run_cli("flops", "--arch", "vit-l16", "--r", "12", "--out", str(out))
        assert json.loads(out.read_text())["total"] == pytest.approx(
            20.90e9, rel=0.03)

    def test_json_round_trip_byte_stable(self, tmp_path):
        out = tmp_path / "f.json"
        run_cli("flops", "--arch", "vit-tiny", "--r", "4", "--out", str(out))
        text = out.read_text()
        assert text.count("\n") == 1  # compact: one line
        assert cli._dump_json(json.loads(text)) == text


class TestBench:
    def test_smoke_report(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli("bench", "--arch", "vit-tiny", "--image", "64",
                       "--batch", "2", "--repeat", "3", "--r", "4",
                       "--methods", "full,pruned", "--out", str(out)) == 0
        text = out.read_text()
        report = json.loads(text)
        assert [row["method"] for row in report["rows"]] == ["full", "pruned"]
        for row in report["rows"]:
            assert row["p10_ms"] <= row["median_ms"] <= row["p90_ms"]
            assert row["images_per_s"] > 0
        assert report["config"]["repeat"] == 3
        assert cli._dump_json(report) == text  # schema round-trips byte-stable

    def test_highway_mode(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli("bench", "--arch", "vit-tiny", "--image", "64",
                       "--batch", "1", "--repeat", "3", "--r", "2",
                       "--methods", "average", "--mode", "highway",
                       "--mbm", "--mbm-t", "1.5", "--out", str(out)) == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["mode"] == "highway"
        assert cfg["mbm"] == {"enabled": True, "t": 1.5}

    def test_methods_interleave_across_repeats(self, monkeypatch):
        seen = []
        monkeypatch.setattr(vit, "forward", lambda x, model, spec: seen.append(spec))
        cfg = vit.VitConfig(depth=2, channels=8, heads=2, image=32)
        methods = ["full", "pruned", "mlerp"]
        cli.run_bench(cfg, methods, r=2, batch=1, repeat=3, warmup=2, seed=0,
                      mode="normal", mbm=highway.MbmConfig())
        specs = [cli._bench_spec(m, 2, cfg.depth) for m in methods]
        warmup = [s for s in specs for _ in range(2)]
        assert seen == warmup + specs * 3

    def test_single_repeat_is_usage_error(self):
        assert run_cli_usage_error("bench", "--arch", "vit-tiny",
                                   "--repeat", "1") == 2

    def test_unknown_method_is_usage_error(self):
        assert run_cli_usage_error("bench", "--arch", "vit-tiny",
                                   "--methods", "full,quantum") == 2


def test_log_env_var_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("TOFU_LOG", "debug")
    out = tmp_path / "f.json"
    assert run_cli("flops", "--arch", "vit-tiny", "--out", str(out)) == 0


# Runs `tofu --threads N flops` and asks the loaded OpenBLAS for its count
# inside the command and again after main has returned.
_BLAS_THREADS_AROUND_MAIN = """
import ctypes, sys
from tofu import cli
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({line.split()[-1] for line in fh
                   if "openblas" in line.lower() and "/" in line})
get = None
for path in libs:
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get = get or getattr(ctypes.CDLL(path), name, None)
if get is None:
    print("none")
    sys.exit(0)
get.restype = ctypes.c_int
inside = []
flops = cli.cmd_flops
def probe(args):
    inside.append(get())
    return flops(args)
cli.cmd_flops = probe
cli.main(["--threads", sys.argv[1], "flops", "--arch", "vit-tiny"])
print(inside[0], get())
"""


@pytest.mark.parametrize("n", [1, 2])
def test_threads_flag_sets_openblas_count(n):
    # OpenBLAS starts at the other count, so the flag has to change it, and
    # main has to put it back
    start = 3 - n
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(start),
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_AROUND_MAIN, str(n)],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True).stdout.split()
    if out == ["none"]:
        pytest.skip("no OpenBLAS is mapped into the process")
    inside, after = map(int, out[-2:])
    assert inside == n
    assert after == start


def test_threads_flag_warns_when_nothing_can_apply_it(monkeypatch, caplog):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    with caplog.at_level("WARNING", logger="tofu"), cli._limit_threads(3):
        pass
    assert "--threads 3 not applied" in caplog.text
