"""Mutated TTF1 and TFW1 files must end in a typed error, never a stray one.

A mutation truncates the file, flips bits anywhere in it and overwrites
bytes of its header. Each read either succeeds (the edit only changed
payload values) or raises one of the readers' documented errors.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tofu import tensor, vit
from tofu.tensor import FormatError

HEADER_BYTES = 48


def _ttf_blob(tmp_path) -> bytes:
    path = tmp_path / "base.ttf"
    x = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
    tensor.write_ttf(str(path), x)
    return path.read_bytes()


def _tfw_blob(tmp_path) -> bytes:
    path = tmp_path / "base.tfw"
    cfg = vit.VitConfig(depth=1, channels=4, heads=2, patch=16, image=16)
    vit.save_weights(str(path), vit.random_model(cfg, 0, n_classes=2))
    return path.read_bytes()


def _mutate(blob: bytes, cut, flips, edits) -> bytes:
    data = bytearray(blob)
    for pos, bit in flips:
        data[pos % len(data)] ^= 1 << bit
    for pos, byte in edits:
        data[pos % HEADER_BYTES] = byte
    return bytes(data[:cut] if cut is not None else data)


def _read_or_typed_error(read, path) -> None:
    try:
        read(str(path))
    except FormatError:
        pass
    except ValueError as exc:
        # the one untyped rejection the readers document
        assert type(exc) is ValueError and "non-finite" in str(exc), repr(exc)


mutations = dict(
    cut=st.none() | st.integers(0, 4096),
    flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 7)), max_size=8),
    edits=st.lists(st.tuples(st.integers(0, HEADER_BYTES - 1), st.integers(0, 255)),
                   max_size=4),
)
fuzz_settings = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz_settings
@given(**mutations)
def test_read_ttf_mutations_end_in_typed_errors(tmp_path, cut, flips, edits):
    blob = _ttf_blob(tmp_path)
    path = tmp_path / "mutated.ttf"
    path.write_bytes(_mutate(blob, cut, flips, edits))
    _read_or_typed_error(tensor.read_ttf, path)


@fuzz_settings
@given(**mutations)
def test_load_weights_mutations_end_in_typed_errors(tmp_path, cut, flips, edits):
    blob = _tfw_blob(tmp_path)
    path = tmp_path / "mutated.tfw"
    path.write_bytes(_mutate(blob, cut, flips, edits))
    _read_or_typed_error(vit.load_weights, path)


@pytest.mark.parametrize("blob_of,read", [(_ttf_blob, tensor.read_ttf),
                                          (_tfw_blob, vit.load_weights)])
def test_every_cut_is_a_truncation_at_its_length(tmp_path, blob_of, read):
    # a file cut inside its magic has no format to be cut short of
    blob = blob_of(tmp_path)
    path = tmp_path / "cut"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        if cut < 4:
            with pytest.raises(FormatError, match="magic") as info:
                read(str(path))
            assert "cut short" not in str(info.value)
        else:
            with pytest.raises(FormatError, match=rf"cut short \(at byte offset {cut}\)$"):
                read(str(path))


def test_non_utf8_tensor_name_is_a_format_error(tmp_path):
    blob = bytearray(_tfw_blob(tmp_path))
    blob[10] ^= 0x80  # first byte of the first tensor name
    path = tmp_path / "bad_name.tfw"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="UTF-8"):
        vit.load_weights(str(path))


def test_more_dims_than_numpy_supports_is_a_format_error(tmp_path):
    # 65 zero-length dims need no payload bytes, but numpy stops at 64 (or 32)
    dims = struct.pack("<B", 65) + b"\x00" * 4 * 65
    ttf = tmp_path / "deep.ttf"
    ttf.write_bytes(tensor.TTF_MAGIC + dims)
    with pytest.raises(FormatError, match="TTF1"):
        tensor.read_ttf(str(ttf))
    name = b"blocks.0.attn.qkv.bias"
    tfw = tmp_path / "deep.tfw"
    tfw.write_bytes(vit.TFW_MAGIC + struct.pack("<IH", 1, len(name)) + name + dims
                    + struct.pack("<I", 2) + b"{}")
    with pytest.raises(FormatError, match="TFW1"):
        vit.load_weights(str(tfw))
