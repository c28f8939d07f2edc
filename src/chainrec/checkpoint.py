"""Versioned checkpoints: every parameter tensor, optimizer state, resolved
config, RNG states, and the epoch counter, in one .npz file. ``--resume``
restores all of it exactly.
"""

import json

import numpy as np

from .model import ModelParams
from .training import AdamState

SAVE_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint."""


def save_checkpoint(path, params: ModelParams, state: AdamState, cfg_text: str,
                    meta: dict, rng_states: dict) -> None:
    arrays = {
        "__version__": np.asarray(SAVE_VERSION),
        "__config__": np.asarray(cfg_text),
        "__meta__": np.asarray(json.dumps(meta, sort_keys=True)),
        "__rng__": np.asarray(json.dumps(rng_states, sort_keys=True)),
        "__adam_t__": np.asarray(state.t),
    }
    for name, tensor in params.tensors.items():
        arrays[f"param/{name}"] = tensor
        arrays[f"adam_m/{name}"] = state.m[name]
        arrays[f"adam_v/{name}"] = state.v[name]
    np.savez(path, **arrays)


def load_checkpoint(path) -> dict:
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__version__" not in data:
        raise CheckpointError(f"{path} is not a chainrec checkpoint")
    version = int(data["__version__"])
    if version > SAVE_VERSION:
        raise CheckpointError(f"checkpoint version {version} is newer than "
                              f"supported {SAVE_VERSION}")
    for key in ("__config__", "__meta__", "__rng__", "__adam_t__"):
        if key not in data:
            raise CheckpointError(f"{path} lacks {key}")
    tensors, adam_m, adam_v = {}, {}, {}
    for key in data.files:
        if key.startswith("param/"):
            tensors[key[len("param/"):]] = data[key]
        elif key.startswith("adam_m/"):
            adam_m[key[len("adam_m/"):]] = data[key]
        elif key.startswith("adam_v/"):
            adam_v[key[len("adam_v/"):]] = data[key]
    # the names not under all three prefixes
    odd = (tensors.keys() ^ adam_m.keys()) | (tensors.keys() ^ adam_v.keys())
    if odd:
        raise CheckpointError(f"{path} lacks param/, adam_m/ or adam_v/ "
                              f"entries for {', '.join(sorted(odd))}")
    params = ModelParams(tensors)
    state = AdamState(m=adam_m, v=adam_v, t=int(data["__adam_t__"]))
    return {
        "version": version,
        "params": params,
        "state": state,
        "config_text": str(data["__config__"]),
        "meta": json.loads(str(data["__meta__"])),
        "rng": json.loads(str(data["__rng__"])),
    }


def check_tensors(ckpt: dict, shapes: dict) -> None:
    """Raises CheckpointError, naming the odd tensors, unless the
    checkpoint's parameters are exactly ``shapes``' names at those shapes."""
    have = {k: t.shape for k, t in ckpt["params"].tensors.items()}
    odd = [f"{k} (checkpoint {have.get(k, 'none')}, model {shapes.get(k, 'none')})"
           for k in sorted(have.keys() | shapes.keys()) if have.get(k) != shapes.get(k)]
    if odd:
        raise CheckpointError("checkpoint parameters do not fit this model: "
                              + "; ".join(odd))


def compatibility_diff(meta: dict, expected: dict) -> list:
    """Human-readable mismatches between a checkpoint and the current run."""
    lines = []
    for key, want in expected.items():
        have = meta.get(key)
        if have != want:
            lines.append(f"{key}: checkpoint={have!r} run={want!r}")
    return lines
