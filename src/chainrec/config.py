"""Run configuration: a flat key=value file where every key is also a
command-line flag (flag wins). The resolved config is written into the
output directory before any run so results are reproducible from the run
directory alone.
"""

import math
import os
from dataclasses import dataclass, fields
from typing import ClassVar

DEFAULT_OUT_ENV = "CHAINREC_OUT"


class ConfigError(ValueError):
    """Bad key, bad value, or an unusable combination."""


@dataclass
class RunConfig:
    # data / schema
    data: str = ""
    relations: tuple = ("view", "cart", "buy")
    target: str = "buy"
    order: tuple = ()          # chain order, target anywhere; empty = aux order + target
    ratio: float = 0.75
    seed: int = 0
    out: str = ""

    # model
    dim: int = 64
    layers: int = 2

    # optimization
    lr: float = 1e-3
    batch: int = 128
    epochs: int = 200
    patience: int = 20
    l2: float = 1e-4
    mu1: float = 0.1
    mu2: float = 0.5
    tau: float = 0.1

    # evaluation
    eval_every: int = 1
    ks: tuple = (5, 10, 20, 40)
    csv: bool = False

    # runtime
    dtype: str = "float32"
    checkpoint: str = ""
    resume: str = ""

    # synthetic-data generator
    synth_users: int = 500
    synth_items: int = 500
    synth_clusters: int = 50
    synth_views: int = 10
    synth_carts: int = 7
    synth_buys: int = 6
    synth_zipf: float = 0.0        # Zipf exponent of item popularity per cluster
    cascade: float = 1.0

    # retired keys, not fields: perfbench reads them until ROADMAP item 2
    glo_norm: ClassVar[str] = "row"
    separate_base: ClassVar[bool] = False
    neg_cap: ClassVar[int] = 100

    def validate(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("dim", "layers", "batch", "epochs", "eval_every", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for key in ("l2", "mu1", "mu2"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not self.ks:
            raise ConfigError("ks must list at least one cutoff")
        if min(self.ks) < 1 or len(set(self.ks)) < len(self.ks):
            raise ConfigError(f"ks must be distinct and >= 1, got {','.join(map(str, self.ks))}")
        if not 0 < self.ratio < 1:
            raise ConfigError(f"ratio must be in (0, 1), got {self.ratio}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64|float32, got {self.dtype!r}")
        for key in ("synth_users", "synth_items", "synth_clusters", "synth_views",
                    "synth_carts", "synth_buys", "synth_zipf"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not 0 <= self.cascade <= 1:
            raise ConfigError(f"cascade must be in [0, 1], got {self.cascade}")
        if self.target not in self.relations:
            raise ConfigError(f"target {self.target!r} not in relations {self.relations}")
        return self

    @property
    def schema_order(self) -> tuple:
        if self.order:
            return tuple(self.order)
        return tuple(r for r in self.relations if r != self.target) + (self.target,)

    def out_dir(self) -> str:
        if self.out:
            return self.out
        root = os.environ.get(DEFAULT_OUT_ENV, "runs")
        return os.path.join(root, f"run-seed{self.seed}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_TUPLE_INT = {"ks"}
_TUPLE_STR = {"relations", "order"}
_BOOLS = {name for name, kind in _FIELD_TYPES.items() if kind is bool}

_FALSE = ("false", "0", "no", "off")
# keys that older config files and checkpoints carry, each with the spellings
# of the one value under which a run is unchanged (None: any value, the key
# never reached the model). That value loads with the key dropped; any other
# is refused. A non-empty chain_order is read as order, its new name.
RETIRED_KEYS = {"attributes": None, "workers": None, "chain_score": None,
                "per_user_weights": None, "neg_cap": None, "raw_local_adj": _FALSE,
                "separate_base": _FALSE, "glo_norm": ("row",), "chain_order": ("",),
                "mu_scale": ("1.0", "1"), "leaky_slope": ("0.01",)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _TUPLE_STR:
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    if key in _BOOLS:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    kind = _FIELD_TYPES[key]
    try:
        if key in _TUPLE_INT:
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        what = ("integers" if key in _TUPLE_INT else
                "an integer" if kind is int else "a number")
        raise ConfigError(f"{key}: expected {what}, got {raw!r}") from None
    return raw


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse ``key = value`` lines; '#' starts a comment. Retired keys are
    dropped or refused as :data:`RETIRED_KEYS` says."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{line_no}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key == "chain_order" and raw:
            key = "order"
        elif key in RETIRED_KEYS:
            kept = RETIRED_KEYS[key]
            if kept is not None and raw.lower() not in kept:
                raise ConfigError(f"{origin}:{line_no}: retired key {key!r} is {raw}; "
                                  f"this version computes only {key} = {kept[0]}")
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{origin}:{line_no}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def make_config(file_path=None, overrides=None, base_values=None) -> RunConfig:
    """Defaults <- base_values <- config file <- explicit overrides (flags)."""
    values = dict(base_values or {})
    if file_path:
        values.update(load_config_file(file_path))
    for key, raw in (overrides or {}).items():
        key = key.replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw) if isinstance(raw, str) else raw
    return RunConfig(**values).validate()


def config_text(cfg: RunConfig) -> str:
    """Every key as a ``key = value`` line, tuples comma-joined."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        lines.append(f"{f.name} = {value}\n")
    return "".join(lines)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg))
