"""Bit-exact binary persistence for the dual-expert model.

Layout: magic ``PLE1``, uint32 LE format version, uint64 LE header
length, the header (one canonical JSON object holding the model config
and a segment manifest with names, shapes, byte offsets and
alpha/beta0/beta1 labels), then the payload: the parameters' flat view
(``ParamVector.flatten``) as raw little-endian float64, so each manifest
offset is 8 times the segment's start in that view. Save -> load -> save
reproduces identical bytes.
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


def _check_routed(cfg: ModelConfig, segments, what: str) -> None:
    """Raise ValueError unless the (name, shape) ``segments`` are ``cfg``'s routed layout, in order."""
    if [(n, tuple(s)) for n, s in segments] != [(n, tuple(s)) for n, s in routed_layout(cfg)]:
        raise ValueError(f"{what} does not match the config's routed layout")


def _check_finite(params: ParamVector, path) -> None:
    """Raise ValueError naming ``path`` and the first segment of ``params`` that holds a NaN or inf."""
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: non-finite values (NaN or inf) in segment {name!r}")


def save_checkpoint(model: ModelParams, path) -> None:
    """Write ``model`` to ``path``; a model not in the routed layout, or holding a NaN or inf, raises
    ValueError before the file opens, so every file written loads."""
    params = model.params
    _check_routed(model.config, [(n, a.shape) for n, a in params.items()], f"{path}: the model's segment layout")
    _check_finite(params, path)
    manifest = [
        {"name": n, "shape": list(a.shape), "offset": 8 * params.segment_slice(n)[0], "group": segment_group(n)}
        for n, a in params.items()
    ]
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
        fh.write(params.flatten().astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """The model saved at ``path``; a malformed, truncated or non-finite file raises ValueError naming it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated: {len(blob)} bytes, shorter than the 16-byte preamble")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    if len(blob) < 16 + hlen:
        raise ValueError(f"{path}: truncated: {len(blob)} bytes, the header alone ends at byte {16 + hlen}")
    try:
        header = json.loads(blob[16 : 16 + hlen].decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        entries = [(e["name"], tuple(e["shape"]), e["offset"], e["group"]) for e in header["segments"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    _check_routed(cfg, [(n, s) for n, s, _, _ in entries], f"{path}: segment manifest")
    layout = ParamVector((name, np.empty(shape)) for name, shape, _, _ in entries)
    for name, _, offset, group in entries:
        if group != segment_group(name):
            raise ValueError(f"{path}: segment {name!r} is labelled {group!r}, expected {segment_group(name)!r}")
        if offset != (expected := 8 * layout.segment_slice(name)[0]):
            raise ValueError(f"{path}: segment {name!r} at offset {offset}, expected contiguous offset {expected}")
    payload, total = len(blob) - 16 - hlen, 8 * layout.size
    if payload != total:
        cut = " (truncated)" if payload < total else ""
        raise ValueError(f"{path}: payload is {payload} bytes, the manifest needs {total}{cut}")
    params = layout.from_flat(np.frombuffer(blob, "<f8", offset=16 + hlen))
    _check_finite(params, path)
    return ModelParams(cfg, params.copy())  # writable, one array per segment: the views above are of read-only bytes
