"""Bit-exact binary persistence for the dual-expert model.

Layout: magic ``PLE1``, uint32 LE format version, uint64 LE header
length, the header (one canonical JSON object holding the model config
and a segment manifest with names, shapes, byte offsets and
alpha/beta0/beta1 labels), then the payload: the parameters' flat view
(``ParamVector.flatten``) as raw little-endian float64, so each manifest
offset is 8 times the segment's start in that view. The config alone
gives the header's bytes, and a file loads only when it carries exactly
those, so save -> load -> save reproduces identical bytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .model import ModelConfig, ModelParams, routed_layout, routed_segments, segment_group
from .params import ParamVector

MAGIC = b"PLE1"
FORMAT_VERSION = 1

_canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _header(cfg: ModelConfig) -> bytes:
    """The header of every ``cfg`` checkpoint: the config, then each routed segment's name, shape,
    payload byte offset and group, as compact JSON with sorted keys."""
    layout = routed_layout(cfg)
    offsets = itertools.accumulate((8 * math.prod(shape) for _, shape in layout), initial=0)
    manifest = [{"name": n, "shape": list(s), "offset": o, "group": segment_group(n)}
                for (n, s), o in zip(layout, offsets)]
    return _canonical({"config": asdict(cfg), "segments": manifest}).encode("utf-8")


def _check_finite(params: ParamVector, path) -> None:
    """Raise ValueError naming ``path`` and the first segment of ``params`` that holds a NaN or inf."""
    if (bad := params.first_nonfinite()) is not None:
        raise ValueError(f"{path}: non-finite values (NaN or inf) in segment {bad!r}")


def save_checkpoint(model: ModelParams, path) -> None:
    """Write ``model`` to ``path``; a model not in the routed layout, or holding a NaN or inf, raises
    ValueError before the file opens, so every file written loads."""
    params = model.params
    if [(n, a.shape) for n, a in params.items()] != routed_layout(model.config):
        raise ValueError(f"{path}: the model's segment layout does not match the config's routed layout")
    _check_finite(params, path)
    header = _header(model.config)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header)
        fh.write(params.flatten().astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """The model saved at ``path``; a file whose header is not the one its config gives, or that is
    malformed, truncated or non-finite, raises ValueError naming it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated: {len(blob)} bytes, shorter than the 16-byte preamble")
    version, hlen = struct.unpack_from("<IQ", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if len(blob) < 16 + hlen:
        raise ValueError(f"{path}: truncated: {len(blob)} bytes, the header alone ends at byte {16 + hlen}")
    try:
        header = json.loads(blob[16 : 16 + hlen])
        cfg = ModelConfig(**header["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    # the payload length is checked first, segment by segment, so that neither the layout nor the
    # header rebuilt below grows larger than the file warrants, whatever sizes the header declares
    payload, need, layout = len(blob) - 16 - hlen, 0, []
    for name, shape in routed_segments(cfg):
        layout.append((name, shape))
        need += 8 * math.prod(shape)
        if need > payload:
            raise ValueError(f"{path}: payload is {payload} bytes, the config needs {need} (truncated) "
                             f"by segment {name!r}")
    if need != payload:
        raise ValueError(f"{path}: payload is {payload} bytes, the config needs {need}")
    if blob[16 : 16 + hlen] != (expected := _header(cfg)):
        found = header["segments"] if isinstance(header.get("segments"), list) else []
        for i, (got, want) in enumerate(itertools.zip_longest(found, json.loads(expected)["segments"])):
            if (got := _canonical(got)) != (want := _canonical(want)):
                raise ValueError(f"{path}: manifest entry {i} is {got}, the config gives {want}")
        raise ValueError(f"{path}: header is not in canonical form (compact JSON, sorted keys, no other keys)")
    params = ParamVector((name, np.empty(shape)) for name, shape in layout).from_flat(
        np.frombuffer(blob, "<f8", offset=16 + hlen))
    _check_finite(params, path)
    return ModelParams(cfg, params.copy())  # writable, one array per segment: the views above are of read-only bytes
