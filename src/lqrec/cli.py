"""Command-line pipeline: split, build-dataset, train, eval, answer.

Every subcommand is deterministic given its flags; all randomness comes from
explicit seeds. Exit codes: 0 success, 1 partial/sampling failure, 2 usage or
validation error, 3 numeric failure, 4 artifact mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from . import dataset as ds
from . import kg as kgmod
from . import oracle
from .autodiff import Tape
from .dataset import TASK_JOINT
from .evaluation import evaluate, rank_items
from .kg import GraphFormatError, SplitInfeasibleError, UnknownNameError, load_graph
from .model import (
    CheckpointMismatchError,
    ModelParams,
    embed_instance,
    load_checkpoint,
)
# Answer lines score the catalog inside rank_items; the name stays importable
# here because benchmark/tracing.py wraps it at this attribute.
from .model import catalog_scores  # noqa: F401
from .query import QuerySyntaxError, parse_query
from .training import TrainConfig, TrainingDivergedError, train

SPLIT_COPY_FILES = (
    kgmod.TRAIN_FILE,
    kgmod.HELDOUT_FILE,
    kgmod.ITEMS_FILE,
    kgmod.USERS_FILE,
    kgmod.MANIFEST_FILE,
)


def cmd_split(args) -> int:
    kg = load_graph(args.triples, args.items, args.users, args.like)
    split = kgmod.split_edges(kg, args.fraction, args.seed)
    manifest = kgmod.save_split(split, args.out)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_build_dataset(args) -> int:
    split = kgmod.load_split(args.split_dir)
    cfg = ds.DatasetConfig.from_file(args.config)
    datasets, report = ds.build_dataset(split, cfg)
    ds.write_dataset(datasets, report, split.full, args.out_dir)
    for fname in SPLIT_COPY_FILES:
        shutil.copyfile(
            os.path.join(args.split_dir, fname), os.path.join(args.out_dir, fname)
        )
    print(report.to_text(), end="")
    violations = ds.verify_dataset(split, args.out_dir)
    if violations:
        for v in violations:
            print(f"verify: {v}", file=sys.stderr)
        return 1
    total = sum(len(v) for v in datasets.values())
    print(f"verify: ok ({total} records)")
    if report.shortfalls:
        print("build incomplete: some shapes fell short", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    if args.config:
        config = TrainConfig.from_file(args.config, variant=args.variant,
                                       seed=args.seed)
    else:
        config = TrainConfig(
            **{k: v for k, v in (("variant", args.variant), ("seed", args.seed))
               if v is not None}
        )
    if config.seed is None:
        print("error: a seed is required (--seed or config)", file=sys.stderr)
        return 2
    split = kgmod.load_split(args.data)
    kg = split.train
    train_instances = ds.load_instances(
        os.path.join(args.data, ds.DATASET_FILES["train"]), kg
    )
    valid_path = os.path.join(args.data, ds.DATASET_FILES["valid"])
    valid_instances = (
        ds.load_instances(valid_path, kg) if os.path.exists(valid_path) else None
    )
    params = ModelParams.init(kg, d=config.d, k=config.k, gamma=config.gamma,
                              seed=config.seed, variant=config.variant)
    result = train(train_instances, params, kg, config,
                   valid_instances=valid_instances, out_dir=args.out)
    summary = {
        "best_epoch": result.best_epoch,
        "best_metric": result.best_metric,
        "epochs_run": result.epochs_run,
        "checkpoint": result.checkpoint_path,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    split = kgmod.load_split(args.data)
    kg = split.train
    params = load_checkpoint(args.checkpoint)
    params.validate_against(kg)
    instances = ds.load_instances(
        os.path.join(args.data, ds.DATASET_FILES["test"]), kg
    )
    ks = tuple(int(x) for x in args.k.split(","))
    report = evaluate(instances, params, kg, ks=ks, target="hard")
    print(report.to_text(), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def _answer_line(line: str, kg, params, mode: str, top_n: int = 10) -> None:
    if "|" not in line:
        raise QuerySyntaxError("expected 'user NAME | QUERY'", 0)
    user_part, query_part = (s.strip() for s in line.split("|", 1))
    if not user_part.startswith("user ") and user_part != "user":
        raise QuerySyntaxError("line must start with 'user NAME'", 0)
    user_name = user_part[len("user"):].strip()
    if not user_name:
        raise QuerySyntaxError("missing user name", 0)
    user = kg.entity_vocab.id_of(user_name)
    if user not in kg.users:
        raise UnknownNameError(f"{user_name!r} is not a user")
    query = parse_query(query_part, kg)

    if mode in ("symbolic", "both"):
        answers = sorted(oracle.answer_joint(kg, user, query))
        names = [kg.entity_vocab.name_of(i) for i in answers]
        print(f"symbolic ({len(names)}): {' '.join(names) if names else '(none)'}")
    if mode in ("embedding", "both"):
        task_emb = embed_instance(Tape(record=False), params, [user], [query],
                                  kg.like_rel)
        ids, scores = rank_items(params, task_emb[TASK_JOINT].data[0],
                                 kg.sorted_items(), top_n=top_n)
        print(f"embedding top-{top_n}:")
        for item, score in zip(ids.tolist(), scores.tolist()):
            print(f"  {kg.entity_vocab.name_of(item)}  {score:.4f}")


def cmd_answer(args) -> int:
    split = kgmod.load_split(args.kg)
    kg = split.train
    params = None
    if args.mode in ("embedding", "both"):
        if not args.checkpoint:
            print("error: --checkpoint required for embedding mode",
                  file=sys.stderr)
            return 2
        params = load_checkpoint(args.checkpoint)
        params.validate_against(kg)
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        try:
            _answer_line(line, kg, params, args.mode)
        except (QuerySyntaxError, UnknownNameError, GraphFormatError) as exc:
            print(f"error: {exc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqrec",
        description="logical-query recommendation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="hold out graph edges")
    p.add_argument("--triples", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--users", required=True)
    p.add_argument("--like", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-dataset", help="sample benchmark instances")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--variant", default=None,
                   choices=["mtl", "shared-bottom", "single-task", "no-al", "no-au"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", default="10,20")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("answer", help="interactive query answering")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--kg", required=True)
    p.add_argument("--mode", default="both",
                   choices=["symbolic", "embedding", "both"])
    p.set_defaults(func=cmd_answer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}"
              + (f" (dump: {exc.dump_path})" if exc.dump_path else ""),
              file=sys.stderr)
        return 3
    except CheckpointMismatchError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return 4
    except SplitInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, UnknownNameError, QuerySyntaxError,
            ds.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
