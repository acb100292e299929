"""Hand-built models with exactly known sub-map behavior, and a recorder of
the highway path's reduces."""

import contextlib
import dataclasses
import json
import pathlib
import struct

import numpy as np
import pytest

from tofu import highway, vit


def identity_mlp_model(depth=2, channels=4, heads=2, seed=0):
    """Random attention, but MLPs computing gelu(v) - gelu(-v) == v."""
    cfg = vit.VitConfig(depth=depth, channels=channels, heads=heads,
                        patch=16, image=32, cls_token=False)
    model = vit.random_model(cfg, seed)
    c, hid = channels, cfg.hidden
    for blk in model.blocks:
        fc1 = np.zeros((c, hid), dtype=np.float32)
        fc1[:, :c] = np.eye(c)
        fc1[:, c:2 * c] = -np.eye(c)
        fc2 = np.zeros((hid, c), dtype=np.float32)
        fc2[:c, :] = np.eye(c)
        fc2[c:2 * c, :] = -np.eye(c)
        blk.fc1_weight, blk.fc1_bias = fc1, np.zeros(hid, dtype=np.float32)
        blk.fc2_weight, blk.fc2_bias = fc2, np.zeros(c, dtype=np.float32)
    return model


def replace_tfw_config_blob(path, config, new: bytes) -> None:
    """Replace the config blob that ends a TFW1 file saved for config by new."""
    path = pathlib.Path(path)
    blob = path.read_bytes()
    old = json.dumps(dataclasses.asdict(config), sort_keys=True).encode()
    assert blob.endswith(old)
    path.write_bytes(blob[: -4 - len(old)] + struct.pack("<I", len(new)) + new)


def rewrite_tfw_config(path, config, **changes) -> None:
    """Replace the config blob that ends a TFW1 file saved for config by
    config's fields, updated with changes."""
    new = dict(dataclasses.asdict(config), **changes)
    replace_tfw_config_blob(path, config, json.dumps(new, sort_keys=True).encode())


@contextlib.contextmanager
def recorded_highway_reduces():
    """Collect the trace of every apply_reduce that tofu.highway makes inside
    the block, by rebinding the module's apply_reduce to a recorder."""
    traces = []
    original = highway.apply_reduce

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        traces.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(highway, "apply_reduce", recorder)
        yield traces
