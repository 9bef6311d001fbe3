"""Bit-exact binary persistence for the dual-expert model.

Layout: magic ``PLE1``, uint32 LE format version, uint64 LE header
length, the header (one canonical JSON object holding the model config
and a segment manifest with names, shapes, byte offsets and
alpha/beta0/beta1 labels), then the raw little-endian float64 segment
data in manifest order. Save -> load -> save reproduces identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .model import ModelConfig, ModelParams, routed_layout, segment_group
from .params import ParamVector

MAGIC = b"PLE1"
FORMAT_VERSION = 1


def save_checkpoint(model: ModelParams, path) -> None:
    manifest = []
    offset = 0
    for name, arr in model.params.items():
        manifest.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": offset,
                "group": segment_group(name),
            }
        )
        offset += arr.size * 8
    header = json.dumps(
        {"config": asdict(model.config), "segments": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, arr in model.params.items():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen].decode("utf-8"))
    cfg = ModelConfig(**header["config"])
    payload = blob[16 + hlen :]
    segments = []
    for entry in header["segments"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        raw = payload[entry["offset"] : entry["offset"] + n * 8]
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        segments.append((entry["name"], arr))
    pv = ParamVector(segments)
    expected = routed_layout(cfg)
    if [(n, s) for n, s in ((e["name"], tuple(e["shape"])) for e in header["segments"])] != [
        (n, tuple(s)) for n, s in expected
    ]:
        raise ValueError(f"{path}: segment manifest does not match the config layout")
    return ModelParams(cfg, pv)
