import json
import struct

import numpy as np
import pytest

from routelock.checkpoint import load_checkpoint, save_checkpoint
from routelock.model import forward
from routelock.params import ParamVector
from routelock.tokenizer import Route

from conftest import tiny_dense, tiny_model, with_entries, write_into_payload

TOKENS = [1, 8, 9, 4, 10]


def test_save_load_save_identical_bytes(tmp_path):
    model = tiny_model(seed=5)
    p1, p2 = tmp_path / "a.ple", tmp_path / "b.ple"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_reproduces_logits_bitwise(tmp_path):
    model = tiny_model(seed=6)
    before = forward(model, TOKENS, Route.THINK).data
    path = tmp_path / "m.ple"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    after = forward(loaded, TOKENS, Route.THINK).data
    assert np.array_equal(before, after)
    assert before.tobytes() == after.tobytes()


def test_loaded_segments_bitwise_equal(tmp_path):
    model = tiny_model(seed=7)
    path = tmp_path / "m.ple"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.params.names == model.params.names
    for name, arr in model.params.items():
        assert arr.tobytes() == loaded.params[name].tobytes()


def test_roundtrip_without_final_norm(tmp_path):
    from routelock.model import ModelConfig, ModelParams

    cfg = ModelConfig(
        vocab_size=16, d_model=8, n_layers=1, n_heads=2, d_ff=12, max_seq=16, final_norm=False
    )
    model = ModelParams.clone_from_dense(ModelParams.init_dense(cfg, seed=3))
    assert "final_norm" not in model.params
    path = tmp_path / "m.ple"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config.final_norm is False
    a = forward(model, [1, 5, 7], Route.NO_THINK).data
    b = forward(loaded, [1, 5, 7], Route.NO_THINK).data
    assert np.array_equal(a, b)


def test_dense_layout_model_is_not_saved(tmp_path):
    path = tmp_path / "dense.ple"
    with pytest.raises(ValueError, match=r"dense\.ple.*routed layout"):
        save_checkpoint(tiny_dense(seed=5), path)
    assert not path.exists()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ple"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_manifest_groups_label_partition(tmp_path):
    model = tiny_model(seed=8)
    path = tmp_path / "m.ple"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    groups = {e["name"]: e["group"] for e in header["segments"]}
    assert groups["layer0.expert0.w_gate"] == "beta0"
    assert groups["layer1.expert1.w_down"] == "beta1"
    assert groups["embed"] == "alpha"
    assert set(g for g in groups.values()) == {"alpha", "beta0", "beta1"}


def saved_blob(tmp_path):
    path = tmp_path / "m.ple"
    save_checkpoint(tiny_model(seed=5), path)
    return path, path.read_bytes()


def header_of(blob):
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    return hlen, json.loads(blob[16 : 16 + hlen])


@pytest.mark.parametrize("keep", ["preamble", "header", "payload"])
def test_truncated_checkpoint_is_named(tmp_path, keep):
    path, blob = saved_blob(tmp_path)
    hlen, _ = header_of(blob)
    cut = {"preamble": 6, "header": 16 + hlen // 2, "payload": 16 + hlen + (len(blob) - 16 - hlen) // 2}
    path.write_bytes(blob[: cut[keep]])
    with pytest.raises(ValueError, match=r"m\.ple.*truncated"):
        load_checkpoint(path)


def test_checkpoint_with_trailing_bytes_rejected(tmp_path):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match=r"m\.ple.*payload"):
        load_checkpoint(path)


def write_header(path, blob, header):
    """Replace the header of checkpoint ``blob`` with ``header``, written to ``path``."""
    hlen, _ = header_of(blob)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen :])


def test_checkpoint_offsets_must_be_contiguous(tmp_path):
    path, blob = saved_blob(tmp_path)
    _, header = header_of(blob)
    header["segments"][1]["offset"] += 8
    write_header(path, blob, header)
    with pytest.raises(ValueError, match=r"m\.ple.*offset"):
        load_checkpoint(path)


@pytest.mark.parametrize("relabel", ["all-alpha", "swapped-experts"])
def test_checkpoint_group_labels_are_checked(tmp_path, relabel):
    path, blob = saved_blob(tmp_path)
    _, header = header_of(blob)
    swap = {"alpha": "alpha", "beta0": "beta1", "beta1": "beta0"}
    for entry in header["segments"]:
        entry["group"] = "alpha" if relabel == "all-alpha" else swap[entry["group"]]
    write_header(path, blob, header)
    labelled = r"m\.ple.*'layer0\.expert0\.w_gate' is labelled '(alpha|beta1)', expected 'beta0'"
    with pytest.raises(ValueError, match=labelled):
        load_checkpoint(path)


def test_checkpoint_header_config_fields_are_checked(tmp_path):
    path, blob = saved_blob(tmp_path)
    _, header = header_of(blob)
    header["config"]["final_norm"] = "no"
    write_header(path, blob, header)
    with pytest.raises(ValueError, match=r"m\.ple.*malformed header.*final_norm"):
        load_checkpoint(path)


def test_malformed_checkpoint_header_is_named(tmp_path):
    path, blob = saved_blob(tmp_path)
    hlen, _ = header_of(blob)
    path.write_bytes(blob[:16] + b"{" * hlen + blob[16 + hlen :])
    with pytest.raises(ValueError, match=r"m\.ple.*malformed header"):
        load_checkpoint(path)


POISONED = {"layer0.wk": (2, 3), "layer1.expert1.w_up": (0, 0)}  # the first one in segment order is named


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_payload_is_rejected(tmp_path, bad):
    # save_checkpoint refuses such a model, so the values are written into a saved file's payload
    path = tmp_path / "bad.ple"
    save_checkpoint(tiny_model(seed=8), path)
    for name, index in POISONED.items():
        write_into_payload(path, name, index, bad)
    with pytest.raises(ValueError, match=r"bad\.ple.*non-finite.*'layer0\.wk'"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_model_is_not_saved(tmp_path, bad):
    path = tmp_path / "bad.ple"
    with pytest.raises(ValueError, match=r"bad\.ple.*non-finite.*'layer0\.wk'"):
        save_checkpoint(with_entries(tiny_model(seed=8), {n: (i, bad) for n, i in POISONED.items()}), path)
    assert not path.exists()


def test_save_load_save_is_total_over_finite_models(tmp_path, synth_small, synth_model):
    from routelock.trainer import TrainConfig, train

    trained, _ = train(synth_model, synth_small[1], TrainConfig(learning_rate=0.1, batch_size=4, seed=2))
    extremes = np.array([np.finfo(np.float64).max, -np.finfo(np.float64).max, 5e-324, -0.0, 0.0])
    edge = tiny_model(seed=9).params
    edge = ParamVector((n, np.resize(extremes, a.shape)) if n == "embed" else (n, a) for n, a in edge.items())
    for i, model in enumerate((tiny_model(seed=9), tiny_model(seed=9).with_params(edge), synth_model, trained)):
        first, second = tmp_path / f"{i}a.ple", tmp_path / f"{i}b.ple"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("which", ["final-norm", "no-final-norm", "trained"])
def test_payload_is_the_flat_view(tmp_path, synth_small, synth_model, which):
    from routelock.model import ModelConfig, ModelParams
    from routelock.trainer import TrainConfig, train

    if which == "trained":
        model, _ = train(synth_model, synth_small[1], TrainConfig(learning_rate=0.1, batch_size=4, seed=2))
    else:
        cfg = ModelConfig(vocab_size=16, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=16,
                          final_norm=which == "final-norm")
        model = ModelParams.init_random(cfg, seed=4)
    path = tmp_path / "m.ple"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    params = model.params
    assert blob[16 + hlen :] == params.flatten().astype("<f8").tobytes()
    assert [e["name"] for e in header["segments"]] == list(params.names)
    for e in header["segments"]:
        assert e["offset"] == 8 * params.segment_slice(e["name"])[0]
    slices = [params.segment_slice(n) for n in params.names]
    assert slices[0][0] == 0 and slices[-1][1] == params.size
    assert all(stop == start for (_, stop), (start, _) in zip(slices, slices[1:]))
    assert all(hi - lo == params[n].size for n, (lo, hi) in zip(params.names, slices))
