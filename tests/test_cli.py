import builtins
import hashlib
import itertools
import json
import os
import pathlib
import resource
import shlex
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from model_fixtures import identity_mlp_model, rewrite_tfw_config
from tofu import cli, highway, linearity, vit
from tofu.fusion import MergeMethod, layer_methods
from tofu.tensor import TTF_MAGIC, read_ttf, write_ttf


def run_cli(*argv):
    return cli.main(list(argv))


def python_m_tofu(*argv, as_cap=None, **kwargs):
    """Run `python -m tofu argv` in a child process, through __main__, for at
    most 120 s. Given as_cap, the child alone gets that many bytes of address
    space, and one BLAS thread keeps OpenBLAS's own buffers far below it."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    if as_cap is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"
        cap = (as_cap, resource.getrlimit(resource.RLIMIT_AS)[1])
        kwargs["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS, cap)
    return subprocess.run([sys.executable, "-m", "tofu", *argv], env=env,
                          capture_output=True, timeout=120, **kwargs)


def run_cli_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code


def check_rewrites(tmp_path, argvs, outputs):
    """Run each argv, whose output paths start with "{out}", into one shared
    directory in turn and into an empty one of its own: every output in the
    shared one must hold the bytes of the fresh run, after both a longer and
    a shorter earlier output."""
    shared = tmp_path / "shared"
    shared.mkdir()
    sizes = {name: [] for name in outputs}
    for i, argv in enumerate(argvs):
        fresh = tmp_path / f"fresh{i}"
        fresh.mkdir()
        for out in (shared, fresh):
            assert run_cli(*[a.replace("{out}", str(out)) for a in argv]) == 0
        for name in outputs:
            blob = (shared / name).read_bytes()
            assert blob == (fresh / name).read_bytes(), (argv, name)
            sizes[name].append(len(blob))
    for name, seq in sizes.items():
        steps = [b - a for a, b in zip(seq, seq[1:])]
        assert min(steps) < 0 < max(steps), (name, seq)


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

    def test_abbreviated_flag_is_usage_error(self, tmp_path, monkeypatch):
        # --out-w is a prefix of --out-weights, and flags are spelled out in full
        monkeypatch.chdir(tmp_path)
        assert run_cli_usage_error("gen", "--arch", "vit-tiny", "--out-w", "x.tfw") == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--seed", "-1", "gen"], ["gen", "--classes", "-1"]])
    def test_negative_seed_or_classes_is_usage_error(self, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli_usage_error(*flags, "--arch", "vit-tiny",
                                   "--out-weights", "m.tfw") == 2
        assert not any(tmp_path.iterdir())

    def test_out_of_memory_is_runtime_error(self, tmp_path):
        # 10**9 vit-tiny sequences ask numpy for 138 TiB of float32, and the
        # tokens are drawn before any file is written
        proc = python_m_tofu(
            "--seed", "0", "gen", "--arch", "vit-tiny", "--batch", "1000000000",
            "--out-weights", "oom.tfw", "--out-tokens", "oom.ttf", cwd=tmp_path,
            as_cap=4 * 2**30, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("chunk", [7, vit.DRAW_CHUNK])
    def test_tokens_equal_one_float64_draw_cast_to_float32(self, chunk, monkeypatch):
        # 3 vit-tiny sequences are 113472 entries, a multiple of neither chunk
        monkeypatch.setattr(vit, "DRAW_CHUNK", chunk)
        got = cli._random_tokens(vit.ARCH_PRESETS["vit-tiny"], 3, 5)
        want = np.random.default_rng([5, 1]).standard_normal((3, 197, 192))
        assert got.dtype == np.float32 and got.tobytes() == want.astype(np.float32).tobytes()

    def test_token_draw_peak_is_the_output_and_one_chunk(self):
        # a float64 draw cast afterwards peaks at three times the output
        cfg = vit.ARCH_PRESETS["vit-tiny"]
        cli._random_tokens(cfg, 1, 0)  # numpy's one-time setup, outside the count
        tracemalloc.start()
        try:
            tokens = cli._random_tokens(cfg, 8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few KB for the generator and the views
        assert peak < tokens.nbytes + 8 * vit.DRAW_CHUNK + (16 << 10)

    def test_failed_tokens_write_removes_the_weights_it_wrote(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--arch", "vit-tiny", "--image", "64",
                "--out-weights", "w.tfw", "--out-tokens", "nodir/t.ttf"]
        assert run_cli(*argv) == 1
        assert not any(tmp_path.iterdir())

    def test_failed_run_keeps_the_outputs_that_were_there(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("w.tfw").write_bytes(b"old weights")
        assert run_cli("gen", "--arch", "vit-tiny", "--image", "64",
                       "--out-weights", "w.tfw", "--out-tokens", "nodir/t.ttf") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["w.tfw"]
        vit.load_weights("w.tfw")  # rewritten before the tokens failed
        pathlib.Path("t.ttf").write_bytes(b"old tokens")
        assert run_cli("gen", "--arch", "vit-tiny", "--image", "64",
                       "--out-weights", "nodir/w.tfw", "--out-tokens", "t.ttf") == 1
        assert pathlib.Path("t.ttf").read_bytes() == b"old tokens"

    def test_rewrites_equal_fresh_outputs(self, tmp_path):
        check_rewrites(tmp_path, [
            ["gen", "--arch", "vit-tiny", "--image", "64", "--batch", batch,
             "--classes", classes, "--out-weights", "{out}/w.tfw",
             "--out-tokens", "{out}/t.ttf"]
            for batch, classes in (("3", "10"), ("1", "0"), ("3", "10"))],
            ["w.tfw", "t.ttf"])


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
        # one batched run, then each sequence alone as an (N, C) dump: the
        # rows and the trace object of sequence i are entry i of the batch.
        # The tokens `gen --arch vit-tiny --batch 2` writes, (2, 197, 192) at
        # r=8, reach the blocked sums and gemm paths that a few channels do not
        toy = np.random.default_rng(1).standard_normal((3, 8, 4)).astype(np.float32)
        toy[1, 3] = 0.0
        tiny = cli._random_tokens(vit.ARCH_PRESETS["vit-tiny"], 2, 0)
        xp, xi = tmp_path / "x.ttf", tmp_path / "xi.ttf"
        out, trace = tmp_path / "o.ttf", tmp_path / "t.json"
        for x, r in ((toy, 2), (tiny, 8)):
            write_ttf(str(xp), x)
            (b, n, c), args = x.shape, ["--r", str(r), "--out", str(out), "--trace", str(trace)]
            for method in ("pruned", "average", "mlerp"):
                assert run_cli("reduce", "--input", str(xp), "--method", method, *args) == 0
                reduced, traces = read_ttf(str(out)), json.loads(trace.read_text())
                assert reduced.shape == (b, n - r, c) and len(traces) == b
                for t in traces:  # sources are the odd rows, destinations the even
                    assert (t["src"], t["dst"]) == (list(range(1, n, 2)), list(range(0, n, 2)))
                    assert {i % 2 for i in t["idx_src"]} == {1}
                    assert {i % 2 for i in t["idx_dst"]} == {0}
                    assert len(t["output_index_of_input"]) == n
                for i in range(b):
                    write_ttf(str(xi), x[i])
                    assert run_cli("reduce", "--input", str(xi), "--method", method, *args) == 0
                    assert read_ttf(str(out)).tobytes() == reduced[i].tobytes()
                    assert json.loads(trace.read_text()) == traces[i]

    def test_rewrites_equal_fresh_outputs(self, tmp_path):
        x = np.random.default_rng(5).standard_normal((3, 40, 6)).astype(np.float32)
        write_ttf(str(tmp_path / "x.ttf"), x)
        check_rewrites(tmp_path, [
            ["reduce", "--input", str(tmp_path / "x.ttf"), "--r", r, "--method", method,
             "--out", "{out}/o.ttf", "--trace", "{out}/t.json"]
            for r, method in (("2", "mlerp"), ("8", "pruned"), ("2", "average"))],
            ["o.ttf", "t.json"])

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

    def test_empty_dump_is_runtime_error(self, tmp_path, capsys):
        xp, out = tmp_path / "empty.ttf", tmp_path / "o.ttf"
        write_ttf(str(xp), np.zeros((0, 8, 4), dtype=np.float32))
        assert run_cli("reduce", "--input", str(xp), "--r", "1",
                       "--method", "pruned", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(xp) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(2, 1, 4), (1, 4)])
    def test_one_token_dump_names_its_file(self, tmp_path, capsys, shape):
        xp, out = tmp_path / "one.ttf", tmp_path / "o.ttf"
        write_ttf(str(xp), np.zeros(shape, dtype=np.float32))
        assert run_cli("reduce", "--input", str(xp), "--r", "1",
                       "--method", "pruned", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(xp) in err and "N >= 2" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_no_channels_dump_names_its_file(self, tmp_path, capsys):
        # mlerp used to fail inside numpy's reshape, without the file's name
        xp, out = tmp_path / "x.ttf", tmp_path / "o.ttf"
        write_ttf(str(xp), np.zeros((2, 8, 0), dtype=np.float32))
        assert run_cli("reduce", "--input", str(xp), "--r", "1",
                       "--method", "mlerp", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(xp) in err and "(2, 8, 0)" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("x_shape, metric_shape", [
        ((8, 4), (1, 8, 4)), ((1, 8, 4), (8, 4)),
        ((1, 8, 4), (1, 8, 4, 1)), ((1, 8, 4), (1, 6, 4))],
        ids=["nc_input", "nc_metric", "4d_metric", "fewer_rows"])
    def test_metric_without_the_inputs_rows_names_its_file(self, tmp_path, capsys,
                                                           x_shape, metric_shape):
        xp, kp = tmp_path / "x.ttf", tmp_path / "k.ttf"
        out, trace = tmp_path / "o.ttf", tmp_path / "t.json"
        write_ttf(str(xp), np.ones(x_shape, dtype=np.float32))
        write_ttf(str(kp), np.ones(metric_shape, dtype=np.float32))
        assert run_cli("reduce", "--input", str(xp), "--metric", str(kp), "--r", "1",
                       "--method", "pruned", "--out", str(out), "--trace", str(trace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(kp) in err
        assert "Traceback" not in err
        assert not out.exists() and not trace.exists()


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

    def test_overflowing_model_report_is_strict_json(self, tmp_path):
        # fc1 at 3e38 overflows float32, so every probed path is infinite or
        # NaN: no pair counts, and the report holds null where NaN would be
        model = vit.random_model(vit.VitConfig(depth=1, channels=8, heads=2, image=32), 0)
        model.blocks[0].fc1_weight[...] = 3e38
        wpath, tpath, out = tmp_path / "m.tfw", tmp_path / "t.ttf", tmp_path / "fl.json"
        vit.save_weights(str(wpath), model)
        write_ttf(str(tpath), np.random.default_rng(0).standard_normal((1, 5, 8)).astype(np.float32))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("fl", "--model", str(wpath), "--tokens", str(tpath),
                           "--out", str(out)) == 0

        def reject(constant):
            raise ValueError(f"{constant} in the fl report")

        rows = json.loads(out.read_text(), parse_constant=reject)
        assert rows == [{"layer": 0, "mean_fl": None, "std_fl": None, "count": 0}]

    def test_too_few_steps_is_usage_error(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        assert run_cli_usage_error("fl", "--model", wpath, "--tokens", tpath,
                                   "--steps", "2") == 2

    def test_negative_r_is_usage_error(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        assert run_cli_usage_error("fl", "--model", wpath, "--tokens", tpath,
                                   "--r", "-3") == 2

    def test_selector_flag_is_gone(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        assert run_cli_usage_error("fl", "--model", wpath, "--tokens", tpath,
                                   "--selector", "mlp") == 2

    def test_deterministic_across_runs(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("fl", "--model", wpath, "--tokens", tpath, "--out", str(a))
        run_cli("fl", "--model", wpath, "--tokens", tpath, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rewrites_equal_fresh_outputs(self, tmp_path):
        wpath, tpath = self.make_fixture(tmp_path)
        deep = str(tmp_path / "deep.tfw")
        vit.save_weights(deep, identity_mlp_model(depth=4))
        check_rewrites(tmp_path, [
            ["fl", "--model", model, "--tokens", tpath, "--r", "2", "--out", "{out}/fl.json"]
            for model in (deep, wpath, deep)], ["fl.json"])

    def test_readme_experiment_as_written(self, tmp_path, monkeypatch, capsys):
        # the README's linearity commands, read from it; the report on
        # stdout is the bytes that --out writes
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        block = readme.read_text().split("# per-layer linearity of a seeded model\n")[1]
        gen, fl = (shlex.split(line)[1:] for line in block.splitlines()[:2])
        monkeypatch.chdir(tmp_path)
        assert run_cli(*gen) == 0
        capsys.readouterr()
        assert run_cli(*fl) == 0
        stdout = capsys.readouterr().out
        assert run_cli(*fl, "--out", "fl.json") == 0
        assert (tmp_path / "fl.json").read_bytes() == stdout.encode()

    def test_out_dev_stdout_into_a_pipe(self, tmp_path):
        # a pipe cannot be cut, and is written and left alone
        wpath, tpath = self.make_fixture(tmp_path)
        out = tmp_path / "fl.json"
        assert run_cli("fl", "--model", wpath, "--tokens", tpath, "--out", str(out)) == 0
        proc = python_m_tofu("fl", "--model", wpath, "--tokens", tpath,
                             "--out", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()

    def test_zero_heads_model_is_runtime_error(self, tmp_path, capsys):
        wpath, tpath = self.make_fixture(tmp_path)
        rewrite_tfw_config(wpath, identity_mlp_model(depth=2).config, heads=0)
        assert run_cli("fl", "--model", wpath, "--tokens", tpath) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "heads" in err
        assert "Traceback" not in err

    def test_empty_dump_is_runtime_error(self, tmp_path, capsys):
        wpath, _ = self.make_fixture(tmp_path)
        tpath, out = tmp_path / "empty.ttf", tmp_path / "fl.json"
        write_ttf(str(tpath), np.zeros((0, 8, 4), dtype=np.float32))
        assert run_cli("fl", "--model", wpath, "--tokens", str(tpath),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tpath) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dump", [
        # a 0-d TTF1 record: ndim byte 0, then one float
        lambda path: path.write_bytes(TTF_MAGIC + struct.pack("<Bf", 0, 1.0)),
        # C = 6 tokens for a C = 4 model
        lambda path: write_ttf(str(path), np.ones((1, 8, 6), dtype=np.float32))],
        ids=["0d", "other_width"])
    def test_tokens_the_model_cannot_take_name_their_file(self, tmp_path, capsys, dump):
        wpath, _ = self.make_fixture(tmp_path)
        tpath, out = tmp_path / "bad.ttf", tmp_path / "fl.json"
        dump(tpath)
        assert run_cli("fl", "--model", wpath, "--tokens", str(tpath),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tpath) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        # also a value of the wrong JSON type, not coerced
        for change in ({"dpeth": 7}, {"cls_token": "false"}):
            wpath, tpath = self.make_fixture(tmp_path)
            rewrite_tfw_config(wpath, identity_mlp_model(depth=2).config, **change)
            assert run_cli("fl", "--model", wpath, "--tokens", tpath) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "invalid TFW1 config blob" in err, change
            assert "Traceback" not in err
        # a depth far beyond the file's blocks fails at the first missing one; capped
        # in time and memory, a loader that lays out every block fails, not hangs
        wpath, tpath = self.make_fixture(tmp_path)
        rewrite_tfw_config(wpath, identity_mlp_model(depth=2).config, depth=10**12)
        proc = python_m_tofu("fl", "--model", wpath, "--tokens", tpath, "--r", "5",
                             as_cap=4 * 2**30, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "missing tensor" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_vit_tiny_seed0_report_bytes_anchor(self, tmp_path, monkeypatch):
        # frozen once from this profiler and writer. Each pair's ratio comes
        # from a fixed sequence, every seventh undefined, so the hash pins
        # the per-layer aggregates and the JSON layout but not the float32
        # rounding of whichever BLAS kernel runs the model.
        ratios = (None if k % 7 == 6 else 1.0 / (k + 2) for k in itertools.count())
        monkeypatch.setattr(linearity, "functional_linearity", lambda *a: next(ratios))
        wpath, tpath, out = tmp_path / "m.tfw", tmp_path / "t.ttf", tmp_path / "fl.json"
        assert run_cli("--seed", "0", "gen", "--arch", "vit-tiny", "--image", "64",
                       "--batch", "2", "--out-weights", str(wpath),
                       "--out-tokens", str(tpath)) == 0
        assert run_cli("fl", "--model", str(wpath), "--tokens", str(tpath),
                       "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ef081a6e01c21eb47f0896e9af427e5343b72ce29b4f6619fe51bf3ea28dc5fd")


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

    def test_d_flag_is_gone(self):
        # the d rule picks methods, not token counts, so it cannot change a FLOP count
        assert run_cli_usage_error("flops", "--arch", "vit-tiny", "--d", "1") == 2

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_threshold_below_one_is_usage_error(self, d, capsys):
        # a d below one stays a usage error, now as an unknown flag
        assert run_cli_usage_error("flops", "--arch", "vit-tiny", "--d", d) == 2
        assert "unrecognized arguments: --d" in capsys.readouterr().err

    def test_json_round_trip_byte_stable(self, tmp_path):
        out = tmp_path / "f.json"
        run_cli("flops", "--arch", "vit-tiny", "--r", "4", "--out", str(out))
        text = out.read_text()
        assert text.count("\n") == 1  # compact: one line
        assert cli._dump_json(json.loads(text)) == text

    def test_rewrites_equal_fresh_outputs(self, tmp_path):
        check_rewrites(tmp_path, [
            ["flops", "--arch", arch, "--r", "4", "--out", "{out}/f.json"]
            for arch in ("vit-l16", "vit-tiny", "vit-l16")], ["f.json"])

    def test_vitb16_r16_report_bytes_anchor(self, tmp_path):
        # frozen once from this cost model and writer
        out = tmp_path / "f.json"
        assert run_cli("flops", "--arch", "vit-b16", "--r", "16", "--out", str(out)) == 0
        blob = out.read_bytes()
        assert len(blob) == 1113
        assert hashlib.sha256(blob).hexdigest() == (
            "553c6a2e6ec4d7b05d11fed7352b4a15ef772b2329ca9f4a142d16c876d025a9")


@pytest.mark.parametrize("command", [
    ["flops"], ["bench"], ["gen", "--out-weights", "m.tfw"]])
@pytest.mark.parametrize("override", [["--image", "0"], ["--patch", "0"]])
def test_zero_image_or_patch_is_runtime_error(command, override, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(command[0], "--arch", "vit-tiny", *override, *command[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["gen", "--out-weights", "m.tfw"], ["bench"]])
@pytest.mark.parametrize("batch", ["0", "-1"])
def test_batch_below_one_is_usage_error(command, batch, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli_usage_error(command[0], "--arch", "vit-tiny", "--batch", batch,
                               *command[1:]) == 2
    assert not any(tmp_path.iterdir())


class TestBench:
    def test_smoke_report(self, tmp_path):
        out = tmp_path / "b.json"
        methods = ["full", "pruned", "average", "mlerp"]
        assert run_cli("bench", "--arch", "vit-tiny", "--image", "64",
                       "--batch", "2", "--repeat", "3", "--r", "4",
                       "--methods", ",".join(methods), "--out", str(out)) == 0
        text = out.read_text()
        report = json.loads(text)
        assert [row["method"] for row in report["rows"]] == methods
        for row in report["rows"]:
            assert row["p10_ms"] <= row["median_ms"] <= row["p90_ms"]
            assert row["images_per_s"] > 0
        assert report["config"] == {
            "vit": {"depth": 12, "channels": 192, "heads": 3, "mlp_ratio": 4,
                    "patch": 16, "image": 64, "cls_token": True},
            "batch": 2, "r": 4, "repeat": 3, "warmup": 1, "seed": 0,
            "mode": "normal", "mbm": {"enabled": False, "t": 1.0}}
        assert cli._dump_json(report) == text  # schema round-trips byte-stable

    def test_highway_mode(self, tmp_path):
        # with masking and without it, where no merged positions are computed;
        # 8 sequences of (112 / 16)**2 + 1 tokens span several MLP row blocks
        assert 8 * 50 > vit.MLP_BLOCK_ROWS
        out = tmp_path / "b.json"
        for mbm, expected in [(["--mbm-t", "1.5"], {"enabled": True, "t": 1.5}),
                              ([], {"enabled": False, "t": 1.0})]:
            assert run_cli("bench", "--arch", "vit-tiny", "--image", "112",
                           "--batch", "8", "--repeat", "3", "--r", "4",
                           "--methods", "full,pruned,mlerp", "--mode", "highway",
                           *mbm, "--out", str(out)) == 0
            report = json.loads(out.read_text())
            assert [row["method"] for row in report["rows"]] == ["full", "pruned", "mlerp"]
            assert report["config"]["mode"] == "highway"
            assert report["config"]["mbm"] == expected

    @pytest.mark.parametrize("depth", [1, 12, 24])
    def test_method_names_map_to_schedules(self, depth):
        assert cli._bench_spec("full", 4).r == 0
        for name in ("pruned", "average", "mlerp"):
            spec = cli._bench_spec(name, 4)
            assert spec.r == 4
            assert layer_methods(spec, depth) == [MergeMethod(name)] * depth

    def test_methods_interleave_across_repeats(self, monkeypatch):
        seen = []
        monkeypatch.setattr(vit, "forward", lambda x, model, spec: seen.append(spec))
        cfg = vit.VitConfig(depth=2, channels=8, heads=2, image=32)
        methods = ["full", "pruned", "mlerp"]
        cli.run_bench(cfg, methods, r=2, batch=1, repeat=3, warmup=2, seed=0,
                      mode="normal", mbm=highway.MbmConfig())
        specs = [cli._bench_spec(m, 2) for m in methods]
        warmup = [s for s in specs for _ in range(2)]
        assert seen == warmup + specs * 3

    def test_rewrites_equal_fresh_outputs(self, tmp_path, monkeypatch):
        def report(cfg, methods, *args):
            return {"config": {"batch": 1}, "rows": [
                {"method": m, "median_ms": 1.0, "p10_ms": 1.0, "p90_ms": 1.0,
                 "images_per_s": 1000.0} for m in methods]}

        monkeypatch.setattr(cli, "run_bench", report)
        check_rewrites(tmp_path, [
            ["bench", "--arch", "vit-tiny", "--methods", methods, "--out", "{out}/b.json"]
            for methods in ("full,pruned,average", "full", "mlerp,full")], ["b.json"])

    def test_single_repeat_is_usage_error(self):
        assert run_cli_usage_error("bench", "--arch", "vit-tiny",
                                   "--repeat", "1") == 2

    @pytest.mark.parametrize("t", ["-1", "nan"])
    def test_negative_or_nan_mbm_threshold_is_usage_error(self, t):
        assert run_cli_usage_error("bench", "--arch", "vit-tiny", "--mode", "highway",
                                   "--mbm-t", t) == 2

    def test_unknown_method_is_usage_error(self):
        assert run_cli_usage_error("bench", "--arch", "vit-tiny",
                                   "--methods", "full,quantum") == 2

    @pytest.mark.parametrize("methods", ["", ",", " , "])
    def test_empty_method_list_is_usage_error(self, methods, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli_usage_error("bench", "--arch", "vit-tiny", "--methods", methods,
                                   "--out", "b.json") == 2
        assert not any(tmp_path.iterdir())

    def test_mbm_without_highway_is_usage_error(self):
        # normal mode never masks, so the report would claim MBM that did not run
        assert run_cli_usage_error("bench", "--arch", "vit-tiny", "--mbm-t", "1") == 2

    def test_mbm_flag_is_gone(self):
        # --mbm-t alone turns masking on; with its value, --mbm cannot pass
        # for a prefix of --mbm-t either
        assert run_cli_usage_error("bench", "--arch", "vit-tiny", "--mode", "highway",
                                   "--mbm", "0.5") == 2


def test_no_writer_opens_its_target_with_o_trunc(tmp_path, monkeypatch):
    # every output is written a second time over the first, through the
    # spies; the bench report comes from a stub, its writer is the point
    x = tmp_path / "x.ttf"
    write_ttf(str(x), np.random.default_rng(6).standard_normal((2, 12, 4)).astype(np.float32))
    monkeypatch.setattr(cli, "run_bench", lambda *args: {"config": {}, "rows": []})
    commands = [
        ["--seed", "1", "gen", "--arch", "vit-tiny", "--image", "32",
         "--out-weights", "m.tfw", "--out-tokens", "t.ttf"],
        ["reduce", "--input", str(x), "--r", "3", "--method", "mlerp",
         "--out", "o.ttf", "--trace", "o.json"],
        ["fl", "--model", "m.tfw", "--tokens", "t.ttf", "--r", "1", "--out", "fl.json"],
        ["flops", "--arch", "vit-tiny", "--out", "f.json"],
        ["bench", "--arch", "vit-tiny", "--out", "b.json"],
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(*argv) == 0
    opened = []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), bool(flags & os.O_TRUNC)))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opened.append((os.fspath(file), "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    for argv in commands:
        assert run_cli(*argv) == 0
    monkeypatch.undo()
    targets = {"m.tfw", "t.ttf", "o.ttf", "o.json", "fl.json", "f.json", "b.json"}
    assert targets <= {path for path, _ in opened}
    assert [path for path, truncating in opened if truncating] == []


def test_log_env_var_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("TOFU_LOG", "debug")
    out = tmp_path / "f.json"
    assert run_cli("flops", "--arch", "vit-tiny", "--out", str(out)) == 0


# Runs `tofu --threads N flops ARGS...` and prints its exit code, then the
# count the loaded OpenBLAS reports inside the command and after main returns.
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
code = cli.main(["--threads", sys.argv[1], "flops", "--arch", "vit-tiny", *sys.argv[2:]])
print(code, inside[0], get())
"""


@pytest.mark.parametrize("n", [1, 2])
def test_threads_flag_sets_openblas_count(n):
    # OpenBLAS starts at the other count, so the flag has to change it, and
    # main has to put it back, also when the command fails (an image smaller
    # than a patch fails inside flops)
    start = 3 - n
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(start),
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for extra, code in (([], 0), (["--image", "8"], 1)):
        out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_AROUND_MAIN, str(n), *extra],
                             env=env, capture_output=True, text=True, timeout=120,
                             check=True).stdout.split()
        if out == ["none"]:
            pytest.skip("no OpenBLAS is mapped into the process")
        assert list(map(int, out[-3:])) == [code, n, start], extra


@pytest.mark.parametrize("n", ["0", "-2"])
def test_threads_below_one_is_usage_error(n):
    # OpenBLAS would take these as "use every core"
    assert run_cli_usage_error("--threads", n, "flops", "--arch", "vit-tiny") == 2


@pytest.mark.parametrize("n", ["2147483648", "4294967296"])
def test_threads_above_c_int_is_usage_error(n):
    # ctypes would wrap these to -2**31 and 0, and OpenBLAS reads 0 as every core
    assert run_cli_usage_error("--threads", n, "flops", "--arch", "vit-tiny") == 2


_BENCH = ["bench", "--arch", "vit-tiny", "--out", "b.json"]
_GEN = ["gen", "--arch", "vit-tiny", "--out-weights", "m.tfw", "--out-tokens", "t.ttf"]
_FL = ["fl", "--model", "m.tfw", "--tokens", "t.ttf", "--out", "fl.json"]

# every count flag: the command around it, its least value and its most, if any
COUNT_FLAGS = [
    (["flops", "--arch", "vit-tiny", "--out", "f.json"], "--threads", 1, 2**31 - 1),
    (_GEN, "--seed", 0, None),
    (["reduce", "--input", "t.ttf", "--method", "pruned", "--out", "o.ttf"], "--r", 0, None),
    (_FL, "--r", 0, None),
    (_FL, "--steps", 3, None),
    (["flops", "--arch", "vit-tiny", "--out", "f.json"], "--r", 0, None),
    (_BENCH, "--r", 0, None),
    (_BENCH, "--batch", 1, None),
    (_BENCH, "--repeat", 3, None),
    (_BENCH, "--warmup", 1, None),
    (_GEN, "--batch", 1, None),
    (_GEN, "--classes", 0, None),
]


@pytest.mark.parametrize("command,flag,least,most", COUNT_FLAGS,
                         ids=[f"{c[0]}{f}" for c, f, _, _ in COUNT_FLAGS])
def test_count_flag_range(command, flag, least, most, tmp_path, monkeypatch, capsys):
    def argv(value):
        pair = [flag, str(value)]
        # --threads and --seed come before the command
        return pair + command if flag in ("--threads", "--seed") else command + pair

    monkeypatch.chdir(tmp_path)
    for value in [least - 1] + ([most + 1] if most else []):
        assert run_cli_usage_error(*argv(value)) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be " in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())
    for value in [least] + ([most] if most else []):
        args = cli.build_parser().parse_args(argv(value))
        assert getattr(args, flag[2:]) == value


def test_threads_flag_warns_when_nothing_can_apply_it(monkeypatch, caplog):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    with caplog.at_level("WARNING", logger="tofu"), cli._limit_threads(3):
        pass
    assert "--threads 3 not applied" in caplog.text
