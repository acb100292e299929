"""Hand-built models with exactly known sub-map behavior."""

import json
import pathlib
import struct

import numpy as np

from tofu import vit


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


def abs_mlp_model(channels=4, seed=0):
    """Single block whose MLP computes |v| exactly for |v_j| >= 0.25.

    Scaling by a power of two keeps the saturated-gelu branch bit-exact:
    (gelu(64 v) + gelu(-64 v)) / 64 == |v|.
    """
    cfg = vit.VitConfig(depth=1, channels=channels, heads=2,
                        patch=16, image=32, cls_token=False)
    model = vit.random_model(cfg, seed)
    c, hid = channels, cfg.hidden
    blk = model.blocks[0]
    fc1 = np.zeros((c, hid), dtype=np.float32)
    fc1[:, :c] = 64.0 * np.eye(c)
    fc1[:, c:2 * c] = -64.0 * np.eye(c)
    fc2 = np.zeros((hid, c), dtype=np.float32)
    fc2[:c, :] = np.eye(c) / 64.0
    fc2[c:2 * c, :] = np.eye(c) / 64.0
    blk.fc1_weight, blk.fc1_bias = fc1, np.zeros(hid, dtype=np.float32)
    blk.fc2_weight, blk.fc2_bias = fc2, np.zeros(c, dtype=np.float32)
    return model


def rewrite_tfw_config(path, config, **changes) -> None:
    """Replace the config blob that ends a TFW1 file saved for config."""
    path = pathlib.Path(path)
    blob = path.read_bytes()
    old = json.dumps(config.to_dict(), sort_keys=True).encode()
    assert blob.endswith(old)
    new = json.dumps(dict(config.to_dict(), **changes), sort_keys=True).encode()
    path.write_bytes(blob[: -4 - len(old)] + struct.pack("<I", len(new)) + new)
