"""Synthetic multiplex datasets with planted cascade preferences.

Each user draws a pool of preferred items from an item cluster, interacts
with nested subsets along the relation order (view superset, intermediate
subsets, target innermost), and the cascade strength controls how strictly
target interactions stay inside the previous relation's subset. With
strength 1.0 every target edge's item also carries every earlier relation,
so auxiliary relations predict the target perfectly.

Views are uniform inside a cluster by default. With ``synth_zipf`` s > 0
the k-th item of a cluster is viewed with weight 1 / k^s, so a few items
per cluster become hubs.
"""

import json
import os

import numpy as np

from .config import ConfigError, RunConfig
from .graph import stream_rng


def generate_synthetic(cfg: RunConfig) -> tuple:
    """Returns (lines, manifest): TSV interaction lines and the planted
    ground truth per user."""
    relations = list(cfg.relations)
    if len(relations) < 2:
        raise ConfigError("synthetic generator needs at least two relations")
    if cfg.target != relations[-1]:
        relations = [r for r in relations if r != cfg.target] + [cfg.target]
    rng = stream_rng(cfg.seed, "synth")

    n_users, n_items = cfg.synth_users, cfg.synth_items
    n_clusters = max(1, min(cfg.synth_clusters, n_items))
    item_perm = rng.permutation(n_items)
    pools = np.array_split(item_perm, n_clusters)
    # Zipf view weights per pool size; none (uniform draws) at exponent 0
    view_p = {}
    if cfg.synth_zipf > 0:
        for size in {pool.shape[0] for pool in pools}:
            w = np.arange(1, size + 1, dtype=np.float64) ** -cfg.synth_zipf
            view_p[size] = w / w.sum()

    manifest = {"users": n_users, "items": n_items, "cascade": cfg.cascade,
                "relations": relations, "per_user": {}}
    lines = []
    for u in range(n_users):
        uid = f"u{u:05d}"
        pool = pools[u % n_clusters]
        n_view = min(cfg.synth_views, pool.shape[0])
        held = {}
        viewed = rng.choice(pool, size=n_view, replace=False,
                            p=view_p.get(pool.shape[0]))
        held[relations[0]] = viewed
        current = viewed
        for rel in relations[1:-1]:
            size = min(cfg.synth_carts, current.shape[0])
            current = rng.choice(current, size=size, replace=False)
            held[rel] = current
        # targets come from the viewed set, alternating between the last
        # auxiliary subset and viewed-only items so that both the full
        # cascade pattern and the view-and-buy pattern occur; a cascade
        # break draws a uniform item instead
        deepest = set(int(x) for x in current)
        view_only = [int(x) for x in viewed if int(x) not in deepest]
        deep_left = sorted(deepest)
        rng.shuffle(deep_left)
        rng.shuffle(view_only)
        n_buy = min(cfg.synth_buys, viewed.shape[0])
        buys = []
        for slot in range(n_buy):
            if rng.random() < cfg.cascade:
                if slot % 2 == 0:
                    src = deep_left if deep_left else view_only
                else:
                    src = view_only if view_only else deep_left
                buys.append(src.pop())
            else:
                item = int(rng.integers(n_items))
                while item in buys:
                    item = int(rng.integers(n_items))
                buys.append(item)
        held[relations[-1]] = np.asarray(sorted(set(buys)), dtype=np.int64)

        manifest["per_user"][uid] = {rel: sorted(int(x) for x in held[rel])
                                     for rel in relations}
        for rel in relations:
            for item in sorted(int(x) for x in held[rel]):
                lines.append(f"{uid}\ti{item:05d}\t{rel}")
    return lines, manifest


def write_synthetic(cfg: RunConfig, data_path, manifest_path=None) -> str:
    lines, manifest = generate_synthetic(cfg)
    parent = os.path.dirname(os.path.abspath(data_path))
    os.makedirs(parent, exist_ok=True)
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    if manifest_path is None:
        manifest_path = str(data_path) + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest_path
