"""Command-line pipeline: split, build-dataset, train, eval, answer.

Every subcommand is deterministic given its flags; all randomness comes from
explicit seeds. Exit codes: 0 success, 1 partial/sampling failure, 2 usage or
validation error, 3 numeric failure, 4 artifact mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dataset as ds
from . import kg as kgmod
from . import oracle
from .artifacts import ArtifactMismatchError, write_json
from .autodiff import EAGER
from .evaluation import check_cutoffs, evaluate, rank_items
from .kg import GraphFormatError, SplitInfeasibleError, UnknownNameError, load_graph
from .model import (
    VARIANTS,
    Catalog,
    ModelParams,
    embed_instance,
    load_checkpoint,
)
# Answer lines score the catalog inside rank_items; the name stays importable
# here because benchmark/tracing.py wraps it at this attribute.
from .model import catalog_scores  # noqa: F401
from .query import QuerySyntaxError, parse_query
from .training import TrainConfig, TrainingDivergedError, train

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
    kgmod.save_split(split, args.out_dir)
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
    overrides = {k: v for k, v in (("variant", args.variant), ("seed", args.seed))
                 if v is not None}
    config = (TrainConfig.from_file(args.config, **overrides) if args.config
              else TrainConfig(**overrides))
    if config.seed is None:
        print("error: a seed is required (--seed or config)", file=sys.stderr)
        return 2
    split = kgmod.load_split(args.data)
    kg = split.train
    train_instances = ds.load_instances(args.data, "train", kg)
    try:
        valid_instances = ds.load_instances(args.data, "valid", kg)
    except FileNotFoundError:  # validation is optional
        valid_instances = None
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
    instances = ds.load_instances(args.data, "test", kg)
    report = evaluate(instances, params, kg, ks=args.k, target="hard")
    print(report.to_text(), end="")
    if args.out:
        write_json(args.out, report.to_json_dict())
    return 0


def _answer_line(line: str, kg, params, catalog, mode: str):
    """Yield the output lines for one input line; a bad line raises before the first."""
    if "|" not in line:
        raise QuerySyntaxError("expected 'user NAME | QUERY'", 0)
    user_part, query_part = (s.strip() for s in line.split("|", 1))
    if user_part.split(maxsplit=1)[:1] != ["user"]:  # whitespace as between query names
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
        yield f"symbolic ({len(names)}): {' '.join(names) if names else '(none)'}"
    if mode in ("embedding", "both"):
        task_emb = embed_instance(EAGER, params, [user], [query], kg.like_rel, (oracle.TASK_JOINT,))
        ids, scores = rank_items(catalog, task_emb[oracle.TASK_JOINT][0], top_n=10)
        yield "embedding top-10:"
        for item, score in zip(ids.tolist(), scores.tolist()):
            yield f"  {kg.entity_vocab.name_of(item)}  {score:.4f}"


def cmd_answer(args) -> int:
    split = kgmod.load_split(args.kg)
    kg = split.train
    params = catalog = None
    if args.mode in ("embedding", "both"):
        if not args.checkpoint:
            print("error: --checkpoint required for embedding mode",
                  file=sys.stderr)
            return 2
        params = load_checkpoint(args.checkpoint)
        params.validate_against(kg)
        catalog = Catalog(params, kg.sorted_items())  # one per session
    if args.mode in ("symbolic", "both"):
        kg.index_in_edges()
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        try:
            print("\n".join(_answer_line(line, kg, params, catalog, args.mode)))
        except (QuerySyntaxError, UnknownNameError, GraphFormatError) as exc:
            print(f"error: {exc}")
    return 0


def _cutoffs(text: str) -> tuple[int, ...]:
    """``--k``: comma-separated cutoffs, checked before any file is read."""
    try:
        ks = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    try:
        return check_cutoffs(ks)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    p.add_argument("--variant", default=None, choices=VARIANTS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=_cutoffs, default="10,20")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}"
              + (f" (dump: {exc.dump_path})" if exc.dump_path else ""),
              file=sys.stderr)
        return 3
    except ArtifactMismatchError as exc:
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
