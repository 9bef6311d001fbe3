import json
import struct

import numpy as np
import pytest

from routelock.model import ModelConfig, ModelParams
from routelock.params import ParamVector
from routelock.synth import SynthTaskSpec, generate_synth_dataset
from routelock.trainer import split_by_mode

TINY_CFG = ModelConfig(vocab_size=24, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=24)


def tiny_dense(seed=0, cfg=TINY_CFG):
    return ModelParams.init_dense(cfg, seed=seed)


def tiny_model(seed=0, cfg=TINY_CFG):
    return ModelParams.clone_from_dense(tiny_dense(seed, cfg))


@pytest.fixture
def tiny():
    return tiny_model()


@pytest.fixture(scope="session")
def synth_small():
    """Small synthetic dataset plus its vocabulary (modulus 5)."""
    spec = SynthTaskSpec(modulus=5, n_problems=8, seed=3)
    data, vocab = generate_synth_dataset(spec)
    return spec, data, vocab


@pytest.fixture(scope="session")
def synth_model(synth_small):
    """Cloned model sized to the small synthetic vocabulary."""
    _, _, vocab = synth_small
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=32)
    return ModelParams.clone_from_dense(ModelParams.init_dense(cfg, seed=1))


def with_entries(model, entries):
    """``model`` with, for each ``name: (index, value)`` of ``entries``, that entry of segment ``name`` set to ``value``."""
    segments = []
    for name, arr in model.params.items():
        if name in entries:
            arr = arr.copy()
            arr[entries[name][0]] = entries[name][1]
        segments.append((name, arr))
    return model.with_params(ParamVector(segments))


def write_into_payload(path, name, index, value):
    """Overwrite entry ``index`` of segment ``name`` in the checkpoint at ``path``, which save_checkpoint
    would refuse to write for a non-finite ``value``."""
    blob = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    seg = next(e for e in json.loads(blob[16 : 16 + hlen])["segments"] if e["name"] == name)
    struct.pack_into("<d", blob, 16 + hlen + seg["offset"] + 8 * int(np.ravel_multi_index(index, seg["shape"])), value)
    path.write_bytes(bytes(blob))


def mode_batches(data, n=4):
    d0, d1 = split_by_mode(data)
    return d0[:n], d1[:n]


def rand_tensor(rng, *shape):
    return rng.normal(size=shape)


def fd_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = f(x)
        flat[i] = orig - step
        lm = f(x)
        flat[i] = orig
        gf[i] = (lp - lm) / (2 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
