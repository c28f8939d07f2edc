"""Command-line entry points: train, evaluate, inspect-patterns, synth.

Every RunConfig key is exposed as a same-named flag (dashes for
underscores); a flag wins over the config file. Exit codes: 0 success,
1 usage, config or data error (including a malformed command line, an
unknown flag, data with no target edges, a split with no test edge, and a
user with no item left to sample as a negative), 2 runtime abort.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

from .checkpoint import (CheckpointError, check_tensors, compatibility_diff,
                         load_checkpoint, save_checkpoint)
from .chains import enumerate_chains
from .config import (ConfigError, RunConfig, config_text, make_config,
                     parse_config_text, save_config)
from .evaluation import sparsity_groups
from .graph import (ParseError, SchemaError, SplitError, load_interactions,
                    make_schema, split_train_test, training_graph)
from .model import DualChannelModel, TrainingAbort, param_shapes
from .patterns import behavior_patterns, pattern_relations
from .synth import write_synthetic
from .training import NegativeSamplingError, eval_record, evaluate_model
from .training import train as run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# keys that configs embedded in older checkpoints carry but that no longer
# exist, each with the one value under which the forward pass is unchanged
# (None: any value, the key never reached it); evaluate drops them so those
# checkpoints stay usable, and refuses one that set a key otherwise. A
# non-empty chain_order sequenced the chains over order, so it is read as
# order instead.
RETIRED_KEYS = {"attributes": None, "workers": None, "chain_score": None,
                "per_user_weights": None, "raw_local_adj": "False",
                "chain_order": ""}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2; its
    subcommand parsers are of the same class."""

    def error(self, message):
        raise UsageError(message)


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"),
                            dest=f"cfg_{f.name}", metavar="VALUE",
                            help=f"override config key '{f.name}'")


def _overrides(args) -> dict:
    out = {}
    for f in fields(RunConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            out[f.name] = value
    return out


def _make_config(args, base_values=None) -> RunConfig:
    return make_config(args.config, _overrides(args), base_values=base_values)


def _load_graph(cfg: RunConfig):
    if not cfg.data:
        raise UsageError("no dataset: set 'data' in the config or pass --data")
    if not os.path.exists(cfg.data):
        raise UsageError(f"dataset file not found: {cfg.data}")
    schema = make_schema(cfg.relations, cfg.target, cfg.schema_order)
    try:
        return load_interactions(cfg.data, schema)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read dataset {cfg.data}: {exc}") from exc


def _split(cfg: RunConfig, graph):
    """The run's train/test split; refuses one that holds out no edge."""
    split = split_train_test(graph, cfg.ratio, cfg.seed)
    if split.test_edges[0].shape[0] == 0:
        raise UsageError(f"ratio {cfg.ratio} holds out none of the "
                         f"{graph.edge_count(cfg.target)} target edges, so "
                         f"there are no test users; lower ratio")
    return split


def _checkpoint_meta(cfg: RunConfig, graph, extra=None) -> dict:
    meta = {"dim": cfg.dim, "relations": list(cfg.relations),
            "target": cfg.target, "num_users": graph.num_users,
            "num_items": graph.num_items}
    meta.update(extra or {})
    return meta


def _check_checkpoint(ckpt: dict, cfg: RunConfig, graph) -> None:
    """Refuses a checkpoint whose metadata or parameter tensors do not fit
    the model this run builds."""
    diff = compatibility_diff(ckpt["meta"], _checkpoint_meta(cfg, graph))
    if diff:
        raise UsageError("checkpoint does not match this run:\n  " + "\n  ".join(diff))
    check_tensors(ckpt, param_shapes(graph.schema, cfg, graph.num_nodes))


def _write_metrics_csv(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,metric,k,value,group\n")
        for rec in history:
            if rec.get("type") != "eval":
                continue
            epoch = rec["epoch"]
            for metric in ("recall", "ndcg"):
                for k, value in rec[metric].items():
                    fh.write(f"{epoch},{metric},{k},{value},\n")
            for label, entry in rec.get("groups", {}).items():
                if entry["recall"] is None:
                    continue
                fh.write(f"{epoch},recall,10,{entry['recall']},{label}\n")
                fh.write(f"{epoch},ndcg,10,{entry['ndcg']},{label}\n")


def cmd_train(args) -> int:
    cfg = _make_config(args)
    graph = _load_graph(cfg)
    split = _split(cfg, graph)
    params = state = rng_state = None
    start_epoch = 0
    if cfg.resume:
        ckpt = load_checkpoint(cfg.resume)
        _check_checkpoint(ckpt, cfg, graph)
        params, state = ckpt["params"], ckpt["state"]
        rng_state = ckpt["rng"]
        start_epoch = int(ckpt["meta"].get("epoch", 0))

    out_dir = cfg.out_dir()
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.txt"))

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w", encoding="utf-8") as log_fh:
        def sink(record):
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()

        result = run_training(graph, split, cfg, record_sink=sink,
                              params=params, state=state,
                              start_epoch=start_epoch,
                              sampler_rng_state=rng_state)

    cfg_text = config_text(cfg)
    meta = _checkpoint_meta(cfg, graph, {"epoch": result.last_epoch,
                                         "best_epoch": result.best_epoch})
    save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), result.params,
                    result.state, cfg_text, meta, result.rng_state)
    save_checkpoint(os.path.join(out_dir, "best.npz"), result.best_params,
                    result.state, cfg_text,
                    _checkpoint_meta(cfg, graph, {"epoch": result.best_epoch,
                                                  "best_epoch": result.best_epoch}),
                    result.rng_state)
    if cfg.csv:
        _write_metrics_csv(result.history, os.path.join(out_dir, "metrics.csv"))
    print(f"trained {result.last_epoch} epochs; best R@10-equivalent "
          f"{result.best_metric:.4f} at epoch {result.best_epoch}; "
          f"run directory: {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # structural keys come from the checkpoint's embedded config; the
    # current file/flags override evaluation-side keys (ks, csv, data, out)
    pre = _make_config(args)
    if not pre.checkpoint:
        raise UsageError("evaluate needs --checkpoint")
    ckpt = load_checkpoint(pre.checkpoint)
    kept, renamed = [], []
    for line in ckpt["config_text"].splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in RETIRED_KEYS:
            kept.append(line)
        elif key == "chain_order" and value:
            renamed.append(f"order = {value}")
        elif RETIRED_KEYS[key] not in (None, value):
            raise UsageError(f"checkpoint sets retired key {key!r} to {value}, "
                             f"a forward pass this version no longer computes")
    base_values = parse_config_text("\n".join(kept + renamed), origin="<checkpoint>")
    cfg = _make_config(args, base_values=base_values)
    graph = _load_graph(cfg)
    _check_checkpoint(ckpt, cfg, graph)
    split = _split(cfg, graph)

    model = DualChannelModel(training_graph(graph, split), cfg)
    result = evaluate_model(model, ckpt["params"], graph, split, cfg.ks)
    groups = sparsity_groups(result, model.graph, split)

    for k in result.ks:
        print(f"R@{k} {result.recall(k):.6f}")
    for k in result.ks:
        print(f"N@{k} {result.ndcg(k):.6f}")
    print("group,users,recall@10,ndcg@10")
    for label, entry in groups.items():
        r = "" if entry["recall"] is None else f"{entry['recall']:.6f}"
        n = "" if entry["ndcg"] is None else f"{entry['ndcg']:.6f}"
        print(f"{label},{entry['users']},{r},{n}")
    if cfg.csv:
        out_dir = cfg.out_dir()
        os.makedirs(out_dir, exist_ok=True)
        rec = eval_record(ckpt["meta"].get("epoch", 0), result, groups)
        _write_metrics_csv([rec], os.path.join(out_dir, "metrics.csv"))
    return EXIT_OK


def cmd_inspect_patterns(args) -> int:
    cfg = _make_config(args)
    graph = _load_graph(cfg)
    schema = graph.schema
    pats = behavior_patterns(graph)
    print("mask_bits,edge_count,b_column_sum")
    for p in range(schema.num_patterns):
        present = pattern_relations(schema, p)
        bits = "".join("1" if r in present else "0" for r in schema.relations)
        print(f"{bits},{(pats.pattern == p).sum()},{int(pats.counts[:, p].sum())}")
    print()
    print("chain_index,relations")
    for i, chain in enumerate(enumerate_chains(schema)):
        print(f"{i},{chain.label()}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _make_config(args)
    data_path = cfg.data
    if not data_path:
        out_dir = cfg.out_dir()
        os.makedirs(out_dir, exist_ok=True)
        data_path = os.path.join(out_dir, "synthetic.tsv")
    manifest = write_synthetic(cfg, data_path)
    print(f"wrote {data_path} (manifest: {manifest})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainrec",
        description="Multi-behavior recommender over multiplex bipartite graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("train", cmd_train, "train a model and write metrics + checkpoints"),
            ("evaluate", cmd_evaluate, "rank the catalog with a trained checkpoint"),
            ("inspect-patterns", cmd_inspect_patterns,
             "emit behavior-pattern edge counts and the chain listing"),
            ("synth", cmd_synth, "generate a planted-cascade synthetic dataset")):
        p = sub.add_parser(name, help=doc)
        _add_common_flags(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
        return args.fn(args)
    except (UsageError, ConfigError, SchemaError, ParseError, SplitError,
            NegativeSamplingError, CheckpointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except TrainingAbort as exc:
        sys.stderr.write(f"aborted: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
