"""Command-line entry points: train, evaluate, inspect-patterns, synth.

Every RunConfig key is exposed as a same-named flag (dashes for
underscores); a flag wins over the config file. Exit codes: 0 success,
1 usage, config, data or checkpoint error (README lists every case), 2
runtime abort.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from .checkpoint import (CheckpointError, check_tensors, load_checkpoint,
                         save_checkpoint)
from .chains import enumerate_chains
from .config import (ConfigError, RunConfig, config_text, make_config,
                     parse_config_text, save_config)
from .evaluation import headline_k, sparsity_groups
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

# the keys a command may set apart from the checkpoint it starts from
EVALUATE_KEYS = ("ks", "csv", "data", "out", "checkpoint")
RESUME_KEYS = ("epochs", "patience", "eval_every", "ks", "csv", "data", "out", "resume")
# the run state every checkpoint's meta holds
META_KEYS = ("num_users", "num_items", "epoch", "best_epoch", "best_metric", "bad_rounds")


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


def _make_config(args, base_values=None) -> RunConfig:
    given = vars(args)
    overrides = {f.name: given[f"cfg_{f.name}"] for f in fields(RunConfig)
                 if given.get(f"cfg_{f.name}") is not None}
    return make_config(args.config, overrides, base_values=base_values)


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
    """The run's train/test split; refuses one that holds out no edge or
    keeps none for training."""
    split = split_train_test(graph, cfg.ratio, cfg.seed)
    if split.test_edges[0].shape[0] == 0:
        raise UsageError(f"ratio {cfg.ratio} holds out none of the "
                         f"{graph.edge_count(cfg.target)} target edges, so "
                         f"there are no test users; lower ratio")
    if split.train_pairs(cfg.target)[0].shape[0] == 0:
        raise UsageError(f"ratio {cfg.ratio} keeps none of the "
                         f"{graph.edge_count(cfg.target)} target edges for "
                         f"training, so there is nothing to learn; raise ratio")
    return split


def _config_from_checkpoint(args, path, command, free, fresh=()):
    """The checkpoint at ``path`` and the run's config, built on the
    checkpoint's embedded config less the keys in ``fresh``. A flag or
    ``--config`` value may change the keys in ``free``; a change to any
    other is refused, naming the key. A checkpoint whose meta lacks one of
    :data:`META_KEYS` is refused, naming it."""
    ckpt = load_checkpoint(path)
    missing = [k for k in META_KEYS if k not in ckpt["meta"]]
    if missing:
        raise CheckpointError(f"{path} lacks meta key {', '.join(missing)}")
    embedded = parse_config_text(ckpt["config_text"], origin=path)
    base_values = {k: v for k, v in embedded.items() if k not in fresh}
    cfg = _make_config(args, base_values=base_values)
    # the free keys take this run's values; the checkpoint's ks may repeat a
    # cutoff, which validate refuses
    trained = make_config(base_values={**base_values,
                                       **{k: getattr(cfg, k) for k in free}})
    theirs = vars(trained)
    changed = [f"{k} is {v!r} here but {theirs[k]!r} in the checkpoint"
               for k, v in vars(cfg).items() if v != theirs[k]]
    if changed:
        raise UsageError(", ".join(changed) + f"; {command} takes every key but "
                         f"{', '.join(free)} from the checkpoint")
    return cfg, ckpt


def _check_checkpoint(ckpt: dict, cfg: RunConfig, graph) -> None:
    """Refuses a checkpoint trained on another number of users or items, or
    whose parameter tensors do not fit the model its config builds."""
    sizes = (ckpt["meta"]["num_users"], ckpt["meta"]["num_items"])
    if sizes != (graph.num_users, graph.num_items):
        raise UsageError(f"checkpoint was trained on {sizes[0]} users and {sizes[1]} "
                         f"items but the data has {graph.num_users} and "
                         f"{graph.num_items}")
    check_tensors(ckpt, param_shapes(graph.schema, cfg, graph.num_nodes))
    held = sorted({str(t.dtype) for t in ckpt["params"].tensors.values()})
    if held != [cfg.dtype]:
        raise UsageError(f"checkpoint parameters are {'/'.join(held)} but its "
                         f"config has dtype {cfg.dtype}")


def _check_resume(ckpt: dict, cfg: RunConfig, split) -> None:
    """Refuses a resume with no epoch left to train, from a checkpoint whose
    Adam step count is not its epoch's (a best.npz whose best epoch came
    before the run's last), or into the run directory that holds the
    checkpoint."""
    epoch, t = int(ckpt["meta"]["epoch"]), ckpt["state"].t
    if cfg.epochs <= epoch:
        raise UsageError(f"epochs is {cfg.epochs} but {cfg.resume} is at epoch "
                         f"{epoch}: nothing to train; pass --epochs above {epoch}")
    steps = epoch * -(-split.train_pairs(cfg.target)[0].shape[0] // cfg.batch)
    if t != steps:
        raise UsageError(f"{cfg.resume} holds epoch {epoch}'s parameters but the "
                         f"optimizer state of step {t}, not {steps}; resume from "
                         f"checkpoint.npz")
    if os.path.realpath(cfg.out_dir()) == os.path.realpath(os.path.dirname(cfg.resume)):
        raise UsageError(f"out {cfg.out_dir()} holds {cfg.resume}; pass another --out")


def _write_metrics_csv(history, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("epoch", "metric", "k", "value", "group"))
        for rec in history:
            if rec.get("type") != "eval":
                continue
            epoch = rec["epoch"]
            for metric in ("recall", "ndcg"):
                for k, value in rec[metric].items():
                    out.writerow((epoch, metric, k, value, ""))
            group_k = headline_k([int(k) for k in rec["recall"]])
            for label, entry in rec.get("groups", {}).items():
                if entry["recall"] is None:
                    continue
                out.writerow((epoch, "recall", group_k, entry["recall"], label))
                out.writerow((epoch, "ndcg", group_k, entry["ndcg"], label))


def cmd_train(args) -> int:
    cfg, ckpt = _make_config(args), None
    if cfg.resume:
        cfg, ckpt = _config_from_checkpoint(args, cfg.resume, "train --resume",
                                            RESUME_KEYS, fresh=("out",))
    graph = _load_graph(cfg)
    split = _split(cfg, graph)
    if ckpt:
        _check_checkpoint(ckpt, cfg, graph)
        _check_resume(ckpt, cfg, split)

    out_dir = cfg.out_dir()
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.txt"))

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w", encoding="utf-8") as log_fh:
        def sink(record):
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()

        result = run_training(graph, split, cfg, record_sink=sink, resume=ckpt)

    cfg_text = config_text(cfg)
    for name, params, epoch, best in (
            ("checkpoint.npz", result.params, result.last_epoch, result.best_params),
            ("best.npz", result.best_params, result.best_epoch, None)):  # its own best
        meta = {"num_users": graph.num_users, "num_items": graph.num_items,
                "epoch": epoch, "best_epoch": result.best_epoch,
                "best_metric": result.best_metric, "bad_rounds": result.bad_rounds}
        save_checkpoint(os.path.join(out_dir, name), params, result.state, cfg_text,
                        meta, result.rng_state, best)
    if cfg.csv:
        _write_metrics_csv(result.history, os.path.join(out_dir, "metrics.csv"))
    print(f"trained {result.last_epoch} epochs; best R@10-equivalent "
          f"{result.best_metric:.4f} at epoch {result.best_epoch}; "
          f"run directory: {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    checkpoint = _make_config(args).checkpoint
    if not checkpoint:
        raise UsageError("evaluate needs --checkpoint")
    cfg, ckpt = _config_from_checkpoint(args, checkpoint, "evaluate", EVALUATE_KEYS)
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
    group_k = headline_k(result.ks)
    print(f"group,users,recall@{group_k},ndcg@{group_k}")
    for label, entry in groups.items():
        r = "" if entry["recall"] is None else f"{entry['recall']:.6f}"
        n = "" if entry["ndcg"] is None else f"{entry['ndcg']:.6f}"
        print(f"{label},{entry['users']},{r},{n}")
    if cfg.csv:
        out_dir = cfg.out_dir()
        os.makedirs(out_dir, exist_ok=True)
        rec = eval_record(ckpt["meta"]["epoch"], result, groups)
        _write_metrics_csv([rec], os.path.join(out_dir, "eval_metrics.csv"))
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
        print(f"{bits},{pats.pairs(p)[0].shape[0]},{int(pats.counts[:, p].sum())}")
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
