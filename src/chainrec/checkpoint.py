"""Versioned checkpoints: every parameter tensor, optimizer state, resolved
config, RNG states, the epoch counter and, in a run's last checkpoint, its
best parameters and early-stopping state, in one .npz file. ``--resume``
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
                    meta: dict, rng_states: dict, best: ModelParams = None) -> None:
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
    arrays.update({f"best/{name}": t for name, t in (best.tensors.items() if best else ())})
    np.savez(path, **arrays)


def load_checkpoint(path) -> dict:
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} is not a chainrec checkpoint")
    with data:
        if "__version__" not in data:
            raise CheckpointError(f"{path} is not a chainrec checkpoint")
        version = int(data["__version__"])
        if version > SAVE_VERSION:
            raise CheckpointError(f"checkpoint version {version} is newer than "
                                  f"supported {SAVE_VERSION}")
        for key in ("__config__", "__meta__", "__rng__", "__adam_t__"):
            if key not in data:
                raise CheckpointError(f"{path} lacks {key}")
        tensors, adam_m, adam_v, best = ({k[len(prefix):]: data[k] for k in data.files
                                          if k.startswith(prefix)}
                                         for prefix in ("param/", "adam_m/", "adam_v/", "best/"))
        # the names not under all three prefixes
        odd = (tensors.keys() ^ adam_m.keys()) | (tensors.keys() ^ adam_v.keys())
        if odd:
            raise CheckpointError(f"{path} lacks param/, adam_m/ or adam_v/ "
                                  f"entries for {', '.join(sorted(odd))}")
        params = ModelParams(tensors)
        state = AdamState(m=adam_m, v=adam_v, t=int(data["__adam_t__"]))
        return {
            "params": params,
            "best": ModelParams(best) if best else None,
            "state": state,
            "config_text": str(data["__config__"]),
            "meta": json.loads(str(data["__meta__"])),
            "rng": json.loads(str(data["__rng__"])),
        }


def check_tensors(ckpt: dict, shapes: dict) -> None:
    """Raises CheckpointError, naming the odd tensors, unless the
    checkpoint's parameters are exactly ``shapes``' names at those shapes
    and hold finite values only."""
    have = {k: t.shape for k, t in ckpt["params"].tensors.items()}
    odd = [f"{k} (checkpoint {have.get(k, 'none')}, model {shapes.get(k, 'none')})"
           for k in sorted(have.keys() | shapes.keys()) if have.get(k) != shapes.get(k)]
    if odd:
        raise CheckpointError("checkpoint parameters do not fit this model: "
                              + "; ".join(odd))
    nonfinite = sorted(k for k, t in ckpt["params"].tensors.items()
                       if not np.all(np.isfinite(t)))
    if nonfinite:
        raise CheckpointError("checkpoint parameters hold non-finite values: "
                              + ", ".join(nonfinite))

