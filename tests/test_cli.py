import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

from lqrec import kg as kgmod
from lqrec.cli import main
from lqrec.kg import load_split
from lqrec.query import (Anchor, And, Or, Project, QuerySyntaxError, parse_query,
                         serialize_query)
from lqrec.synth import clustered_world, write_world_files


SPLIT_FILES = ["train.tsv", "heldout.tsv", "items.txt", "users.txt", "manifest.json"]


def dir_hash(path, names):
    h = hashlib.sha256()
    for name in names:
        h.update((path / name).read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Raw files -> split -> dataset -> trained checkpoint, all via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    kg = clustered_world(n_clusters=3, attrs_per_cluster=5, items_per_cluster=12,
                         n_users=18, likes_per_user=6, seed=55)
    raw = write_world_files(kg, str(root / "raw"))

    split_dir = root / "split"
    rc = main([
        "split", "--triples", raw["triples"], "--items", raw["items"],
        "--users", raw["users"], "--like", "likes",
        "--fraction", "0.05", "--seed", "3", "--out", str(split_dir),
    ])
    assert rc == 0

    ds_cfg = root / "dataset.cfg"
    lines = ["seed=11", "answer_cap=60"]
    lines += [f"train.{s}=6" for s in ("1p", "2p", "3p", "2i", "3i")]
    lines += [f"valid.{s}=2" for s in ("1p", "2i")]
    lines += [f"test.{s}=2" for s in
              ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up")]
    ds_cfg.write_text("\n".join(lines) + "\n")

    data_dir = root / "data"
    rc = main(["build-dataset", "--split-dir", str(split_dir),
               "--config", str(ds_cfg), "--out-dir", str(data_dir)])
    assert rc == 0

    train_cfg = root / "train.cfg"
    train_cfg.write_text(
        "d=8\nk=2\ngamma=2.0\nlr=0.005\nepochs=4\nbatch_size=16\nn_neg=4\n"
        "task_weights=1,1,1\npatience=none\neval_every=2\n"
    )
    run_dir = root / "run"
    rc = main(["train", "--data", str(data_dir), "--config", str(train_cfg),
               "--variant", "mtl", "--seed", "5", "--out", str(run_dir)])
    assert rc == 0
    ckpt = run_dir / "checkpoint_best.ckpt"
    assert ckpt.exists()
    return {"root": root, "raw": raw, "split": split_dir, "data": data_dir,
            "ds_cfg": ds_cfg, "train_cfg": train_cfg, "ckpt": ckpt}


def test_split_manifest(pipeline, capsys):
    manifest = json.loads((pipeline["split"] / "manifest.json").read_text())
    assert manifest["n_train"] + manifest["n_held_out"] == manifest["n_triples"]
    assert manifest["n_held_out"] == round(0.05 * manifest["n_triples"])


def test_split_rerun_identical(pipeline):
    out2 = pipeline["root"] / "split2"
    rc = main([
        "split", "--triples", pipeline["raw"]["triples"],
        "--items", pipeline["raw"]["items"], "--users", pipeline["raw"]["users"],
        "--like", "likes", "--fraction", "0.05", "--seed", "3",
        "--out", str(out2),
    ])
    assert rc == 0
    assert dir_hash(pipeline["split"], SPLIT_FILES) == dir_hash(out2, SPLIT_FILES)


def test_split_bad_fraction(pipeline):
    rc = main([
        "split", "--triples", pipeline["raw"]["triples"],
        "--items", pipeline["raw"]["items"], "--users", pipeline["raw"]["users"],
        "--like", "likes", "--fraction", "1.5", "--seed", "3",
        "--out", str(pipeline["root"] / "nope"),
    ])
    assert rc == 2


def test_build_dataset_rerun_identical(pipeline):
    out2 = pipeline["root"] / "data2"
    rc = main(["build-dataset", "--split-dir", str(pipeline["split"]),
               "--config", str(pipeline["ds_cfg"]), "--out-dir", str(out2)])
    assert rc == 0
    names = ["train.jsonl", "valid.jsonl", "test.jsonl", "stats.txt"]
    assert dir_hash(pipeline["data"], names) == dir_hash(out2, names)


def test_build_dataset_writes_canonical_split(pipeline):
    for name in SPLIT_FILES:
        assert (pipeline["data"] / name).read_bytes() == \
            (pipeline["split"] / name).read_bytes(), name


def test_build_dataset_into_split_dir(pipeline):
    # --out-dir may be --split-dir: the split is rewritten with the same bytes
    both = pipeline["root"] / "in_place"
    shutil.copytree(pipeline["split"], both)
    rc = main(["build-dataset", "--split-dir", str(both),
               "--config", str(pipeline["ds_cfg"]), "--out-dir", str(both)])
    assert rc == 0
    assert dir_hash(both, SPLIT_FILES) == dir_hash(pipeline["split"], SPLIT_FILES)
    names = ["train.jsonl", "valid.jsonl", "test.jsonl", "stats.txt"]
    assert dir_hash(both, names) == dir_hash(pipeline["data"], names)
    assert main(["train", "--data", str(both), "--config", str(pipeline["train_cfg"]),
                 "--seed", "5", "--out", str(pipeline["root"] / "in_place_run")]) == 0


def test_build_dataset_canonicalises_crlf_split(pipeline):
    crlf = pipeline["root"] / "crlf_split"
    shutil.copytree(pipeline["split"], crlf)
    manifest = json.loads((crlf / "manifest.json").read_text())
    for name, key in (("train.tsv", "train_sha256"), ("heldout.tsv", "heldout_sha256"),
                      ("items.txt", None), ("users.txt", None)):
        blob = (crlf / name).read_bytes().replace(b"\n", b"\r\n")
        (crlf / name).write_bytes(blob)
        if key:
            manifest[key] = hashlib.sha256(blob).hexdigest()
    (crlf / "manifest.json").write_text(json.dumps(manifest))
    out = pipeline["root"] / "crlf_data"
    rc = main(["build-dataset", "--split-dir", str(crlf),
               "--config", str(pipeline["ds_cfg"]), "--out-dir", str(out)])
    assert rc == 0
    src, copy = load_split(str(crlf)), load_split(str(out))
    for a, b in ((src.full, copy.full), (src.train, copy.train)):
        assert a.entity_vocab.names == b.entity_vocab.names
        assert a.relation_vocab.names == b.relation_vocab.names
        assert a.array.tobytes() == b.array.tobytes() and a.array.shape == b.array.shape
    # the copy is the canonical split (LF line endings, its own hashes)
    assert dir_hash(out, SPLIT_FILES) == dir_hash(pipeline["split"], SPLIT_FILES)


def test_build_dataset_missing_config(pipeline):
    rc = main(["build-dataset", "--split-dir", str(pipeline["split"]),
               "--config", str(pipeline["root"] / "missing.cfg"),
               "--out-dir", str(pipeline["root"] / "x")])
    assert rc == 2


@pytest.mark.parametrize("line", ["max_retries=0", "answer_cap=0", "seed=12"])
def test_build_dataset_config_error_exit_code(pipeline, line, capsys):
    cfg = pipeline["root"] / "bad_dataset.cfg"
    cfg.write_text(pipeline["ds_cfg"].read_text() + line + "\n")
    lineno = len(cfg.read_text().splitlines())
    rc = main(["build-dataset", "--split-dir", str(pipeline["split"]),
               "--config", str(cfg), "--out-dir", str(pipeline["root"] / "x")])
    assert rc == 2
    assert f"{cfg}:{lineno}: " in capsys.readouterr().err


def test_build_dataset_rejected_record_exit_code(pipeline, monkeypatch, capsys):
    # verify reads what was written through the loader, so a record the
    # loader rejects stops the build with the loader's exit code
    from lqrec import dataset

    def empty_hard_joint(inst, kg, write=dataset.instance_to_record):
        record = write(inst, kg)
        if "hard" in record:
            record["hard"]["joint"] = []
        return record

    monkeypatch.setattr(dataset, "instance_to_record", empty_hard_joint)
    out = pipeline["root"] / "rejected"
    rc = main(["build-dataset", "--split-dir", str(pipeline["split"]),
               "--config", str(pipeline["ds_cfg"]), "--out-dir", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"{out / 'valid.jsonl'}:1: hard answers with an empty joint set" in err, err


def test_train_zero_shot_absent_from_train_file(pipeline):
    with open(pipeline["data"] / "train.jsonl") as f:
        shapes = {json.loads(line)["shape"] for line in f if line.strip()}
    assert shapes <= {"1p", "2p", "3p", "2i", "3i"}


def test_train_requires_seed(pipeline):
    rc = main(["train", "--data", str(pipeline["data"]),
               "--variant", "mtl", "--out", str(pipeline["root"] / "r2")])
    assert rc == 2


def test_train_rerun_identical(pipeline):
    out_a = pipeline["root"] / "runA"
    out_b = pipeline["root"] / "runB"
    for out in (out_a, out_b):
        rc = main(["train", "--data", str(pipeline["data"]),
                   "--config", str(pipeline["train_cfg"]),
                   "--variant", "mtl", "--seed", "5", "--out", str(out)])
        assert rc == 0
    assert dir_hash(out_a, ["checkpoint_best.ckpt", "train_log.jsonl"]) == \
        dir_hash(out_b, ["checkpoint_best.ckpt", "train_log.jsonl"])


def test_train_variants_accepted(pipeline):
    for variant in ("shared-bottom", "single-task", "no-al", "no-au"):
        out = pipeline["root"] / f"run_{variant}"
        cfg = pipeline["root"] / f"fast_{variant}.cfg"
        cfg.write_text("d=8\nk=2\ngamma=2.0\nlr=0.005\nepochs=1\n"
                       "batch_size=16\nn_neg=2\npatience=none\n")
        rc = main(["train", "--data", str(pipeline["data"]),
                   "--config", str(cfg), "--variant", variant,
                   "--seed", "5", "--out", str(out)])
        assert rc == 0, variant


def test_eval_table_and_json(pipeline, capsys):
    report_path = pipeline["root"] / "report.json"
    rc = main(["eval", "--data", str(pipeline["data"]),
               "--checkpoint", str(pipeline["ckpt"]),
               "--k", "10,20", "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert header[-10:] == ["1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u",
                            "up", "avg"]
    rows = [line.split()[0] for line in out.splitlines()[1:] if line.strip()]
    assert rows == ["hit@10", "hit@20", "ndcg@10", "ndcg@20"]
    blob = json.loads(report_path.read_text())
    for metric, value in blob["avg"].items():
        assert 0.0 <= value <= 1.0


def test_eval_report_write_is_atomic(pipeline, tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    argv = ["eval", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--out", str(report)]
    assert main(argv + ["--k", "10"]) == 0
    before = report.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(argv + ["--k", "10,20"]) == 2
    assert "disk full" in capsys.readouterr().err
    # the previous report is intact and no temporary file is left
    assert report.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("ks", ["0", "-3", "10,0", "10,10"])
def test_eval_bad_cutoffs_exit_code(pipeline, ks, capsys):
    rc = main(["eval", "--data", str(pipeline["data"]),
               "--checkpoint", str(pipeline["ckpt"]), "--k", ks])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cutoffs must be distinct and at least 1" in captured.err


def test_eval_vocab_mismatch_exit_code(pipeline):
    other = clustered_world(n_clusters=2, attrs_per_cluster=4,
                            items_per_cluster=8, n_users=8, seed=99)
    raw2 = write_world_files(other, str(pipeline["root"] / "raw2"))
    split2 = pipeline["root"] / "othersplit"
    assert main(["split", "--triples", raw2["triples"], "--items", raw2["items"],
                 "--users", raw2["users"], "--like", "likes",
                 "--fraction", "0.1", "--seed", "1", "--out", str(split2)]) == 0
    cfg = pipeline["root"] / "tiny.cfg"
    cfg.write_text("seed=2\ntest.1p=1\n")
    data2 = pipeline["root"] / "otherdata"
    assert main(["build-dataset", "--split-dir", str(split2),
                 "--config", str(cfg), "--out-dir", str(data2)]) == 0
    rc = main(["eval", "--data", str(data2),
               "--checkpoint", str(pipeline["ckpt"]), "--k", "10"])
    assert rc == 4


@pytest.mark.parametrize("command", ["eval", "answer"])
def test_corrupt_checkpoint_exit_code(pipeline, command, capsys):
    blob = pipeline["ckpt"].read_bytes()
    bad = pipeline["root"] / f"cut_header_{command}.ckpt"
    bad.write_bytes(blob[:blob.index(b"\n") // 2])
    argv = (["eval", "--data", str(pipeline["data"])] if command == "eval"
            else ["answer", "--kg", str(pipeline["data"]), "--mode", "embedding"])
    assert main(argv + ["--checkpoint", str(bad)]) == 4
    assert "artifact mismatch" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tampered_data(pipeline):
    """A copy of the dataset directory with one byte of train.tsv changed."""
    data = pipeline["root"] / "tampered"
    shutil.copytree(pipeline["data"], data)
    blob = bytearray((data / "train.tsv").read_bytes())
    at = next(i for i, b in enumerate(blob) if chr(b).isdigit())
    blob[at] = ord("1") if blob[at] != ord("1") else ord("2")
    (data / "train.tsv").write_bytes(bytes(blob))
    return data


@pytest.fixture(scope="module")
def bad_manifests(pipeline):
    """Copies of the dataset directory, each with one corruption of
    manifest.json that ``load_split`` must reject."""
    good = json.loads((pipeline["data"] / "manifest.json").read_text())
    edits = {
        "no_like_rel": {"like_rel": None},
        "like_rel_number": {"like_rel": 7},
        "like_rel_unknown": {"like_rel": "no_such_relation"},
        "no_fraction": {"fraction": None},
        "fraction_string": {"fraction": "0.05"},
        "no_seed": {"seed": None},
        "seed_float": {"seed": 3.5},
        "seed_bool": {"seed": True},
    }
    blobs = {
        "not_json": b"{not json",
        "not_utf8": b'{"like_rel": "\xff"}',
        "json_list": b"[]",
        "deep_nesting": b"[" * 100_000,
    }
    for name, edit in edits.items():
        manifest = {k: v for k, v in {**good, **edit}.items() if v is not None}
        blobs[name] = json.dumps(manifest).encode()
    dirs = {}
    for name, blob in blobs.items():
        dirs[name] = pipeline["root"] / f"manifest_{name}"
        shutil.copytree(pipeline["data"], dirs[name])
        (dirs[name] / "manifest.json").write_bytes(blob)
    return dirs


@pytest.mark.parametrize("command", ["eval", "answer", "train", "build-dataset"])
def test_tampered_split_exit_code(pipeline, tampered_data, bad_manifests,
                                  command, capsys):
    def argv(data):
        return {
            "eval": ["eval", "--data", str(data),
                     "--checkpoint", str(pipeline["ckpt"])],
            "answer": ["answer", "--kg", str(data), "--mode", "symbolic"],
            "train": ["train", "--data", str(data), "--seed", "5",
                      "--out", str(pipeline["root"] / "tampered_run")],
            "build-dataset": ["build-dataset", "--split-dir", str(data),
                              "--config", str(pipeline["ds_cfg"]),
                              "--out-dir", str(pipeline["root"] / "tampered_build")],
        }[command]

    assert main(argv(tampered_data)) == 4
    err = capsys.readouterr().err
    assert "artifact mismatch" in err and "train_sha256" in err
    for name, data in bad_manifests.items():
        assert main(argv(data)) == 4, name
        err = capsys.readouterr().err
        assert "artifact mismatch" in err and "manifest.json" in err, name
    # the untouched directory still loads
    assert len(load_split(str(pipeline["data"])).held_out) > 0


@pytest.fixture(scope="module")
def bad_records(pipeline):
    """Copies of the dataset directory whose train.jsonl and test.jsonl each
    start with one malformed record."""
    def relabelled(lines):
        record = next(r for r in map(json.loads, lines) if r["shape"] == "1p")
        return json.dumps({**record, "shape": "3p"})

    def no_user(lines):
        return json.dumps({k: v for k, v in json.loads(lines[0]).items()
                           if k != "user"})

    def list_as_name(lines):
        record = json.loads(lines[0])
        return json.dumps({**record, "answers": {**record["answers"], "req": [[]]}})

    def with_hard_joint(names):
        def first(lines):
            record = json.loads(lines[0])
            hard = record.get("hard") or {"joint": [], "req": [], "pref": []}
            return json.dumps({**record, "hard": {**hard, "joint": names(record)}})
        return first

    def user_as_answer(lines):
        record = json.loads(lines[0])
        return json.dumps({**record, "answers": {**record["answers"],
                                                 "joint": [record["user"]]}})

    def item_as_user(lines):
        return json.dumps({**json.loads(lines[0]), "user": "item0_0"})

    firsts = {
        "json_list": lambda lines: "[]",
        "deep_nesting": lambda lines: "[" * 100_000,
        "not_utf8": lambda lines: lines[0].replace('"user"', '"\udcffuser"'),
        "utf8_bom": lambda lines: "\ufeff" + lines[0],
        "item_as_user": item_as_user,
        "no_user": no_user,
        "1p_labelled_3p": relabelled,
        "not_json": lambda lines: "{oops",
        "list_as_name": list_as_name,
        "attribute_as_hard": with_hard_joint(lambda record: ["attr0_0"]),
        "user_as_hard": with_hard_joint(lambda record: [record["user"]]),
        "empty_hard_joint": with_hard_joint(lambda record: []),
        "user_as_answer": user_as_answer,
    }
    dirs = {}
    for name, first in firsts.items():
        dirs[name] = pipeline["root"] / f"records_{name}"
        shutil.copytree(pipeline["data"], dirs[name])
        for fname in ("train.jsonl", "test.jsonl"):
            lines = (dirs[name] / fname).read_text().splitlines()
            (dirs[name] / fname).write_text(
                "\n".join([first(lines)] + lines[1:]) + "\n", errors="surrogateescape")
    return dirs


@pytest.mark.parametrize("command", ["eval", "train"])
def test_malformed_record_exit_code(pipeline, bad_records, command, capsys):
    for name, data in bad_records.items():
        argv = (["eval", "--data", str(data), "--checkpoint", str(pipeline["ckpt"])]
                if command == "eval"
                else ["train", "--data", str(data), "--seed", "5",
                      "--out", str(pipeline["root"] / f"bad_run_{name}")])
        assert main(argv) == 4, name
        err = capsys.readouterr().err
        fname = "test.jsonl" if command == "eval" else "train.jsonl"
        assert "artifact mismatch" in err and f"{fname}:1:" in err, (name, err)


@pytest.mark.parametrize("command, fname", [("eval", "test.jsonl"),
                                            ("train", "valid.jsonl")])
def test_held_out_record_without_hard_exit_code(pipeline, command, fname, capsys):
    # valid and test records must carry hard answers; train records never do
    data = pipeline["root"] / f"no_hard_{command}"
    shutil.copytree(pipeline["data"], data)
    lines = (data / fname).read_text().splitlines()
    first = {k: v for k, v in json.loads(lines[0]).items() if k != "hard"}
    (data / fname).write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    argv = (["eval", "--data", str(data), "--checkpoint", str(pipeline["ckpt"])]
            if command == "eval"
            else ["train", "--data", str(data), "--seed", "5",
                  "--config", str(pipeline["train_cfg"]),
                  "--out", str(pipeline["root"] / "no_hard_run")])
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"{data / fname}:1: a valid/test record without hard answers" in err, err


@pytest.mark.parametrize("line", ["lr=-1", "stop_threshold=nan", "gamma=0",
                                  "seed=-1", "task_weights=-1,1,1",
                                  "task_weights=nan,1,1", "task_weights=0,0,0"])
def test_train_config_bad_value_exit_code(pipeline, line, capsys):
    cfg = pipeline["root"] / f"bad_{line.split('=')[0]}.cfg"
    cfg.write_text(pipeline["train_cfg"].read_text() + line + "\n")
    lineno = len(cfg.read_text().splitlines())
    rc = main(["train", "--data", str(pipeline["data"]), "--config", str(cfg),
               "--out", str(pipeline["root"] / "bad_value_run")])
    assert rc == 2
    key = line.split("=")[0]
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}: bad value for {key!r}: " in err, err
    assert not (pipeline["root"] / "bad_value_run").exists()


def test_train_variant_without_weight_exit_code(pipeline, capsys):
    # single-task trains the joint task alone, so a joint weight of 0 leaves
    # it nothing to learn
    cfg = pipeline["root"] / "no_joint.cfg"
    cfg.write_text(pipeline["train_cfg"].read_text().replace("task_weights=1,1,1",
                                                              "task_weights=0,1,1"))
    rc = main(["train", "--data", str(pipeline["data"]), "--config", str(cfg),
               "--variant", "single-task", "--seed", "5",
               "--out", str(pipeline["root"] / "no_joint_run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "task_weights (0.0, 1.0, 1.0) leave variant 'single-task'" in err, err
    assert not (pipeline["root"] / "no_joint_run").exists()


def test_train_negative_seed_flag_exit_code(pipeline, capsys):
    rc = main(["train", "--data", str(pipeline["data"]),
               "--config", str(pipeline["train_cfg"]), "--seed", "-1",
               "--out", str(pipeline["root"] / "negative_seed_run")])
    assert rc == 2
    assert "seed must be at least 0, got -1" in capsys.readouterr().err


def test_answer_repl(pipeline):
    with open(pipeline["data"] / "test.jsonl") as f:
        record = json.loads(f.readline())
    lines = "\n".join([
        f"user {record['user']} | {record['query']}",
        "user nobody | (p tags (e attr0_0))",
        "not a valid line",
        f"user {record['user']} | (p tags (e attr0_0)",
        "quit",
    ])
    proc = subprocess.run(
        [sys.executable, "-m", "lqrec.cli", "answer",
         "--kg", str(pipeline["data"]), "--checkpoint", str(pipeline["ckpt"]),
         "--mode", "both"],
        input=lines, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "symbolic (" in out
    assert "embedding top-10:" in out
    # three malformed lines each produce an error, REPL keeps going
    assert out.count("error:") == 3
    # embedding scores are probabilities
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].startswith("item"):
            assert 0.0 < float(parts[1]) < 1.0


def test_answer_symbolic_omits_hard(pipeline):
    # symbolic answering on the train graph cannot see hard answers
    with open(pipeline["data"] / "test.jsonl") as f:
        record = json.loads(f.readline())
    proc = subprocess.run(
        [sys.executable, "-m", "lqrec.cli", "answer",
         "--kg", str(pipeline["data"]), "--mode", "symbolic"],
        input=f"user {record['user']} | {record['query']}\n",
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    symbolic_line = next(l for l in proc.stdout.splitlines()
                         if l.startswith("symbolic"))
    for hard_item in record["hard"]["joint"]:
        assert hard_item not in symbolic_line.split()


def test_answer_embedding_output_matches_full_ranking(pipeline, monkeypatch,
                                                      capsys):
    # reference: score the whole catalog, sort it with lexsort, print the
    # first ten; the REPL's top-n ranking must print the same bytes
    import io

    import numpy as np

    from lqrec.autodiff import EAGER
    from lqrec.oracle import TASK_JOINT
    from lqrec.kg import load_split
    from lqrec.model import Catalog, catalog_scores, embed_instance, load_checkpoint
    from lqrec.query import parse_query

    kg = load_split(str(pipeline["data"])).train
    params = load_checkpoint(str(pipeline["ckpt"]))
    with open(pipeline["data"] / "test.jsonl") as f:
        records = [json.loads(line) for line in f]
    catalog = Catalog(params, sorted(kg.items))
    ids = catalog.ids
    expected = []
    for record in records:
        user = kg.entity_vocab.id_of(record["user"])
        q = parse_query(record["query"], kg)
        q_star = embed_instance(EAGER, params, [user], [q],
                                kg.like_rel)[TASK_JOINT][0]
        scores = catalog_scores(catalog, q_star)
        expected.append("embedding top-10:\n")
        for j in np.lexsort((ids, -scores))[:10]:
            expected.append(f"  {kg.entity_vocab.name_of(int(ids[j]))}  "
                            f"{scores[j]:.4f}\n")
    session = "".join(f"user {r['user']} | {r['query']}\n" for r in records)
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    rc = main(["answer", "--kg", str(pipeline["data"]),
               "--checkpoint", str(pipeline["ckpt"]), "--mode", "embedding"])
    assert rc == 0
    assert capsys.readouterr().out == "".join(expected)


def test_inference_constructs_no_tape(pipeline, monkeypatch, capsys):
    # evaluation and answer lines embed and score on EAGER, never a Tape
    from lqrec import autodiff
    from lqrec.dataset import load_instances
    from lqrec.oracle import TASK_JOINT
    from lqrec.evaluation import evaluate
    from lqrec.model import load_checkpoint

    kg = load_split(str(pipeline["data"])).train
    params = load_checkpoint(str(pipeline["ckpt"]))
    test = load_instances(str(pipeline["data"]), "test", kg)

    def no_tape(self):
        raise AssertionError("inference constructed a Tape")

    monkeypatch.setattr(autodiff.Tape, "__init__", no_tape)
    for target in ("hard", "answers"):
        records = test if target == "hard" else [i for i in test if i.answers[TASK_JOINT]]
        assert evaluate(records, params, kg, target=target).counts
    session = "".join(f"user {kg.entity_vocab.name_of(i.user)} | "
                      f"{serialize_query(i.requirement, kg)}\n" for i in test[:3])
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    assert main(["answer", "--kg", str(pipeline["data"]),
                 "--checkpoint", str(pipeline["ckpt"]), "--mode", "both"]) == 0
    assert capsys.readouterr().out.count("embedding top-10:") == 3


def test_one_catalog_per_answer_session(pipeline, catalogs_built, monkeypatch,
                                        capsys):
    # the REPL builds the catalog table once, before its first line
    from lqrec.dataset import load_instances

    kg = load_split(str(pipeline["data"])).train
    test = load_instances(str(pipeline["data"]), "test", kg)
    lines = [f"user {kg.entity_vocab.name_of(i.user)} | "
             f"{serialize_query(i.requirement, kg)}" for i in test] * 3
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["answer", "--kg", str(pipeline["data"]),
                 "--checkpoint", str(pipeline["ckpt"]), "--mode", "both"]) == 0
    assert capsys.readouterr().out.count("embedding top-10:") == len(lines) > 40
    assert len(catalogs_built) == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["answer", "--kg", str(pipeline["data"]), "--mode", "symbolic"]) == 0
    assert len(catalogs_built) == 1  # symbolic mode scores nothing


def fuzz_queries(kg, queries, n, seed):
    """``n`` seeded query texts: token soups, valid queries with one token
    spliced in, valid queries under up to 3,000 projections, and random bytes
    read as Latin-1. None is blank, spans lines or is a REPL command."""
    rng = random.Random(seed)
    names = (["(", ")", "((", "))", "p", "e", "and", "or", "|", "user", "\t"]
             + rng.sample(kg.relation_vocab.names, 3)
             + rng.sample(kg.entity_vocab.names, 8))
    texts = []
    while len(texts) < n:
        kind = rng.randrange(4)
        if kind == 0:
            text = "(" + " ".join(rng.choices(names, k=rng.randrange(1, 40)))
        elif kind == 1:
            tokens = re.split(r"(\(|\)|\s+)", rng.choice(queries))
            spliced = rng.choice(names)
            tokens.insert(rng.randrange(len(tokens) + 1),
                          rng.choice([spliced, f" {spliced} "]))
            text = "".join(tokens)
        elif kind == 2:
            depth = rng.choice([rng.randrange(1, 70), rng.randrange(70, 3000)])
            rel = rng.choice(kg.relation_vocab.names)
            text = f"(p {rel} " * depth + rng.choice(queries) + ")" * depth
        else:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 60)))
            text = blob.decode("latin-1")
        text = re.sub(r"[\n\r]", " ", text)
        if text.strip() not in ("", "quit", "exit"):
            texts.append(text)
    return texts


@pytest.fixture(scope="module")
def fuzz_inputs(pipeline):
    kg = load_split(str(pipeline["data"])).train
    with open(pipeline["data"] / "test.jsonl") as f:
        records = [json.loads(line) for line in f]
    queries = [r["query"] for r in records]
    return kg, records[0]["user"], fuzz_queries(kg, queries, 2000, seed=9)


def test_parse_query_fuzz(fuzz_inputs):
    kg, _, texts = fuzz_inputs
    parsed = 0
    for text in texts:
        try:
            assert isinstance(parse_query(text, kg), (Project, And, Or))
            parsed += 1
        except QuerySyntaxError:
            pass
    assert 0 < parsed < len(texts)


def _run_answer(pipeline, lines, monkeypatch, capsys):
    session = "".join(f"{line}\n" for line in lines)
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    rc = main(["answer", "--kg", str(pipeline["data"]),
               "--checkpoint", str(pipeline["ckpt"]), "--mode", "both"])
    return rc, capsys.readouterr().out.split("\n")


def test_answer_repl_fuzz(pipeline, fuzz_inputs, monkeypatch, capsys):
    # every fourth line reaches the REPL raw, the rest after a valid user
    _, user, texts = fuzz_inputs
    lines = [t if i % 4 == 0 else f"user {user} | {t}" for i, t in enumerate(texts)]
    rc, out = _run_answer(pipeline, lines, monkeypatch, capsys)
    assert rc == 0
    answered = sum(line.startswith("symbolic (") for line in out)
    errors = sum(line.startswith("error: ") for line in out)
    assert answered + errors == len(lines)
    assert sum(line == "embedding top-10:" for line in out) == answered > 0


def test_answer_repl_survives_deep_nesting(pipeline, fuzz_inputs, monkeypatch,
                                           capsys):
    _, user, _ = fuzz_inputs
    deep = "(p likes " * 1999 + f"(e {user})" + ")" * 1999
    rc, out = _run_answer(pipeline, [f"user {user} | {deep}",
                                     f"user {user} | (p likes (e {user}))"],
                          monkeypatch, capsys)
    assert rc == 0
    assert out[0].startswith("error: query nested deeper than 64 levels")
    assert out[1].startswith("symbolic (")


# Characters the loader must refuse in a name (every whitespace character,
# the parentheses, the quotes and '|') and some it must accept.
NAME_ALPHABET = ([chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
                 + list("()\"'|") + list("abe_-:#\\/[]{}<>=+~^$*?.,\x00é名")
                 + ["\u200b", "\ufeff", "\u180e", "e", "p", "and", "or", "user"])


def test_loaded_names_round_trip_through_query_and_answer(tmp_path, monkeypatch, capsys):
    """Every name that the loader accepts anchors a query that reads back
    as itself and names a relation and a user in an answer line; the loader
    refuses exactly the names that hold a separator, a quote or '|'."""
    rng = random.Random(17)
    candidates = list(dict.fromkeys(
        "".join(rng.choice(NAME_ALPHABET) for _ in range(rng.randrange(1, 5)))
        for _ in range(3000)))
    names = []
    for name in candidates:
        try:
            if kgmod._parse_fields("users.txt", (name + "\n").encode(), 1) == [name]:
                names.append(name)
        except kgmod.GraphFormatError:
            pass
    refused = set(kgmod.NAME_SEPARATORS + "\"'|")
    assert names == [n for n in candidates if not refused & set(n)]
    assert 200 < len(names) < len(candidates) - 200
    # each name is a user who likes the item and a relation from the hub
    rows = [f"{n}\tlikes\titem" for n in names] + [f"hub\t{n}\titem" for n in names]
    rows += [f"{h}\tr0\t{t}" for h in ("hub", "item", "x") for t in ("hub", "item", "x")]
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "t.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (raw / "items.txt").write_text("item\n", encoding="utf-8")
    (raw / "users.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    kg = kgmod.load_graph(str(raw / "t.tsv"), str(raw / "items.txt"),
                          str(raw / "users.txt"), "likes")
    ev, rv = kg.entity_vocab, kg.relation_vocab
    lines = []
    for n in names:
        for q in (Project(rv.id_of("likes"), Anchor(ev.id_of(n))),
                  Project(rv.id_of(n), Anchor(ev.id_of("hub")))):
            text = serialize_query(q, kg)
            assert parse_query(text, kg) == q, text
            lines.append(f"user {n} | {text}")
    assert main(["split", "--triples", str(raw / "t.tsv"), "--items",
                 str(raw / "items.txt"), "--users", str(raw / "users.txt"),
                 "--like", "likes", "--fraction", "0.001", "--seed", "1",
                 "--out", str(tmp_path / "split")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    assert main(["answer", "--kg", str(tmp_path / "split"), "--mode", "symbolic"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines)
    assert all(line.startswith("symbolic (") for line in out), \
        [line for line in out if not line.startswith("symbolic (")][:5]
