import hashlib
import json
import subprocess
import sys

import pytest

from lqrec.cli import main
from lqrec.synth import clustered_world, write_world_files


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
    names = ["train.tsv", "heldout.tsv", "items.txt", "users.txt",
             "manifest.json"]
    assert dir_hash(pipeline["split"], names) == dir_hash(out2, names)


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


def test_build_dataset_missing_config(pipeline):
    rc = main(["build-dataset", "--split-dir", str(pipeline["split"]),
               "--config", str(pipeline["root"] / "missing.cfg"),
               "--out-dir", str(pipeline["root"] / "x")])
    assert rc == 2


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

    from lqrec.autodiff import Tape
    from lqrec.dataset import TASK_JOINT
    from lqrec.kg import load_split
    from lqrec.model import catalog_scores, embed_instance, load_checkpoint
    from lqrec.query import parse_query

    kg = load_split(str(pipeline["data"])).train
    params = load_checkpoint(str(pipeline["ckpt"]))
    with open(pipeline["data"] / "test.jsonl") as f:
        records = [json.loads(line) for line in f]
    expected = []
    for record in records:
        user = kg.entity_vocab.id_of(record["user"])
        q = parse_query(record["query"], kg)
        q_star = embed_instance(Tape(record=False), params, [user], [q],
                                kg.like_rel)[TASK_JOINT].data[0]
        ids = np.asarray(sorted(kg.items), dtype=np.int64)
        scores = catalog_scores(params, q_star, ids)
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
