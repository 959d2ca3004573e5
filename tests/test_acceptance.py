"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines are written to the real stdout so they appear as the
criteria complete. The generalization sweep (criterion 5) trains ten small
models and dominates the runtime of this module.
"""

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from lqrec.autodiff import EAGER, Tape, Tensor, backward, sigmoid
from lqrec.cli import main as cli_main
from lqrec.dataset import (
    BuildReport,
    DatasetConfig,
    SamplingError,
    build_dataset,
    sample_instance,
    sample_requirement,
    verify_dataset,
    write_dataset,
)
from lqrec.evaluation import evaluate, filtered_rank
from lqrec.kg import split_edges
from lqrec.model import ModelParams, embed_intersection, embed_union
from lqrec.oracle import TASK_JOINT, answer_joint, answer_requirement
from lqrec.query import ALL_SHAPES, BASIC_SHAPES, ZERO_SHOT_SHAPES
from lqrec.synth import clustered_world, random_graph, write_world_files
from lqrec.training import (TrainConfig, compute_loss, pack_answers,
                            sample_negatives, train)

from test_oracle import brute_force_answers, random_shaped_query


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    # written to the real stdout so the line survives pytest's capture
    import sys

    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# --- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def gen_split():
    world = clustered_world(n_clusters=5, attrs_per_cluster=8,
                            items_per_cluster=50, n_users=80, tags_per_item=4,
                            likes_per_user=12, cross_cluster_noise=0.05, seed=77)
    return split_edges(world, 0.05, 77)


@pytest.fixture(scope="module")
def gen_datasets(gen_split):
    counts = {
        "train": {s: 50 for s in BASIC_SHAPES},
        "valid": {s: 8 for s in BASIC_SHAPES},
        "test": {s: 12 for s in ALL_SHAPES},
    }
    datasets, rep = build_dataset(gen_split, DatasetConfig(counts=counts, seed=5))
    assert not rep.shortfalls
    return datasets


@pytest.fixture(scope="module")
def sweep(gen_split, gen_datasets):
    """Five-seed training sweep: full-mtl vs single-task vs untrained."""
    split = gen_split
    test = gen_datasets["test"]
    results = {"mtl": [], "single-task": [], "untrained": []}
    mtl_params_seed1 = None
    for seed in range(1, 6):
        fresh = ModelParams.init(split.train, d=32, k=3, gamma=5.0, seed=seed)
        rep0 = evaluate(test, fresh, split.train, ks=(20,), target="hard")
        results["untrained"].append(rep0.averages["hit@20"])
        for variant in ("mtl", "single-task"):
            cfg = TrainConfig(d=32, k=3, gamma=5.0, lr=1e-2, epochs=250,
                              batch_size=64, n_neg=16, seed=seed,
                              eval_every=50, eval_k=20, patience=None,
                              variant=variant)
            params = ModelParams.init(split.train, d=32, k=3, gamma=5.0,
                                      seed=seed, variant=variant)
            train(gen_datasets["train"], params, split.train, cfg,
                  valid_instances=gen_datasets["valid"])
            rep = evaluate(test, params, split.train, ks=(20,), target="hard")
            results[variant].append(rep.averages["hit@20"])
            if variant == "mtl" and seed == 1:
                mtl_params_seed1 = params
    results["mtl_params"] = mtl_params_seed1
    return results


# --- criterion 1: oracle equivalence ------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1000)
    checked = {s: 0 for s in ALL_SHAPES}
    for trial in range(50):
        # the user names are entities too; keep the total at or under 50
        kg = random_graph(
            n_entities=rng.randint(22, 44),
            n_triples=rng.randint(100, 270),
            n_relations=rng.randint(3, 6),
            n_items=rng.randint(8, 16),
            n_users=rng.randint(3, 6),
            seed=trial,
        )
        assert kg.n_entities <= 50 and len(kg.triples) <= 300
        for shape in ALL_SHAPES:
            queries = [random_shaped_query(kg, shape, rng)]
            try:
                queries.append(sample_requirement(kg, shape, rng))
            except SamplingError:
                queries.append(random_shaped_query(kg, shape, rng))
            for q in queries:
                assert answer_requirement(kg, q) == brute_force_answers(kg, q)
                checked[shape] += 1
    elapsed = time.perf_counter() - t0
    assert all(n >= 100 for n in checked.values())
    report("1 oracle-equivalence", elapsed < 60.0,
           f"{sum(checked.values())} queries, {elapsed:.1f}s")


# --- criterion 2: hard-answer guarantee ---------------------------------------


def test_criterion_2_hard_answer_guarantee(gen_split, tmp_path):
    split = gen_split
    counts = {
        "train": {s: 150 for s in BASIC_SHAPES},
        "valid": {s: 50 for s in BASIC_SHAPES},
        "test": {s: 120 for s in ALL_SHAPES},
    }
    datasets, rep = build_dataset(split, DatasetConfig(counts=counts, seed=9))
    total = sum(len(v) for v in datasets.values())
    assert total >= 2000 and not rep.shortfalls
    violations = 0
    checked_answers = 0
    for split_name in ("valid", "test"):
        for inst in datasets[split_name]:
            train_joint = answer_joint(split.train, inst.user, inst.requirement)
            assert inst.hard is not None and inst.hard[TASK_JOINT]
            for item in inst.hard[TASK_JOINT]:
                checked_answers += 1
                if item in train_joint:
                    violations += 1
    # the full written-file verification pass must also be clean
    write_dataset(datasets, rep, split.full, str(tmp_path))
    assert verify_dataset(split, str(tmp_path)) == []
    report("2 hard-answer-guarantee", violations == 0,
           f"{total} records, {checked_answers} hard answers checked")


# --- criterion 3: gradient fidelity -------------------------------------------


# Relative error allowed between the backward gradient and central differences.
GRAD_TOL = 1e-4


def gradient_fixture():
    """(instances, negative samples, params, graph, task weights): one train
    instance of every shape on a small world, with d=8 and k=3."""
    world = clustered_world(n_clusters=2, attrs_per_cluster=4,
                            items_per_cluster=8, n_users=10, tags_per_item=3,
                            likes_per_user=5, seed=13)
    split = split_edges(world, 0.05, 13)
    kg = split.train
    cfg = DatasetConfig(counts={}, seed=0, max_retries=500)
    rng = random.Random(17)
    instances = [sample_instance(split, shape, "train", rng, cfg)
                 for shape in ALL_SHAPES]
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=3)
    weights = (1.0, 1.0, 1.0)
    pack = pack_answers(instances, kg.sorted_items(), weights, 4)
    samples = sample_negatives(pack, np.arange(len(instances)), 4,
                               np.random.default_rng(23))
    return instances, samples, params, kg, weights


def worst_gradient_error(instances, samples, params, kg, weights, names=None):
    """(worst relative error, where, elements checked, elements re-checked)
    of the backward gradient against central differences, over every element
    of the tensors in ``names`` (all by default).

    Each element is compared at step 1e-5. One that fails there may have a
    relu or L1 kink inside the step, so it is compared again at 1e-6 and at
    1e-7 and passes only if it passes at both; its error is the larger of
    those two.
    """
    def loss_value() -> float:
        return float(compute_loss(Tape(), instances, samples, params, kg,
                                  weights).data)

    def rel_err(flat, i, grad, h) -> float:
        orig = flat[i]
        flat[i] = orig + h
        up = loss_value()
        flat[i] = orig - h
        down = loss_value()
        flat[i] = orig
        fd = (up - down) / (2.0 * h)
        return abs(fd - grad) / max(abs(fd), abs(grad), 1e-4)

    tape = Tape()
    loss = compute_loss(tape, instances, samples, params, kg, weights)
    params.zero_grads()
    backward(tape, loss)

    worst, worst_at, n_elements, n_rechecked = 0.0, "", 0, 0
    for name, tensor in params.named().items():
        if names is not None and name not in names:
            continue
        flat = tensor.data.reshape(-1)
        grad = tensor.dense_grad().reshape(-1)
        for i in range(flat.size):
            n_elements += 1
            err = rel_err(flat, i, grad[i], 1e-5)
            if err >= GRAD_TOL:
                n_rechecked += 1
                err = max(rel_err(flat, i, grad[i], 1e-6),
                          rel_err(flat, i, grad[i], 1e-7))
            if err > worst:
                worst, worst_at = err, f"{name}[{i}]"
    return worst, worst_at, n_elements, n_rechecked


def test_criterion_3_gradient_fidelity():
    t0 = time.perf_counter()
    worst, worst_at, n_elements, n_rechecked = worst_gradient_error(
        *gradient_fixture())
    elapsed = time.perf_counter() - t0
    report("3 gradient-fidelity", worst < GRAD_TOL and elapsed < 120.0,
           f"{n_elements} elements, {n_rechecked} re-checked at h=1e-6 and 1e-7, "
           f"max rel err {worst:.2e} at {worst_at}, {elapsed:.1f}s")


def test_gradient_check_rejects_planted_relu_error(monkeypatch):
    # relu's backward scaled by 1 + 1e-3: the re-check at smaller steps
    # forgives a kink inside the step, never a wrong gradient
    relu = Tape.relu

    def planted(self, x):
        out = relu(self, x)
        node, grad_fn = self.nodes[-1]
        self.nodes[-1] = (node, lambda g: grad_fn(g * (1.0 + 1e-3)))
        return out

    monkeypatch.setattr(Tape, "relu", planted)
    worst, worst_at, _, n_rechecked = worst_gradient_error(
        *gradient_fixture(), names=("experts",))
    assert worst >= GRAD_TOL and n_rechecked > 0, (worst, worst_at)


# --- criterion 4: overfit fixture ---------------------------------------------


def test_criterion_4_overfit_fixture():
    t0 = time.perf_counter()
    world = clustered_world(n_clusters=4, attrs_per_cluster=6,
                            items_per_cluster=30, n_users=40, tags_per_item=3,
                            likes_per_user=8, seed=42)
    assert 150 <= world.n_entities <= 250
    assert 600 <= len(world.triples) <= 1200
    split = split_edges(world, 0.05, 42)
    counts = {"train": {s: 40 for s in BASIC_SHAPES}}
    datasets, _ = build_dataset(split, DatasetConfig(counts=counts, seed=9))
    instances = datasets["train"]
    assert len(instances) == 200
    cfg = TrainConfig(d=32, k=4, gamma=5.0, lr=1e-2, epochs=500, batch_size=32,
                      n_neg=32, seed=3, eval_every=10, eval_k=10,
                      stop_threshold=0.95, patience=None)
    params = ModelParams.init(split.train, d=32, k=4, gamma=5.0, seed=3)
    result = train(instances, params, split.train, cfg,
                   valid_instances=instances, valid_target="answers")
    elapsed = time.perf_counter() - t0
    ok = (result.best_metric is not None and result.best_metric >= 0.95
          and result.epochs_run <= 500 and elapsed < 600.0)
    report("4 overfit-fixture", ok,
           f"train hit@10 {result.best_metric:.3f} after "
           f"{result.epochs_run} epochs, {elapsed:.0f}s")


# --- criterion 5: generalization direction -------------------------------------


def test_criterion_5_generalization_direction(sweep):
    mtl_mean = sum(sweep["mtl"]) / len(sweep["mtl"])
    st_mean = sum(sweep["single-task"]) / len(sweep["single-task"])
    untrained_mean = sum(sweep["untrained"]) / len(sweep["untrained"])
    ok = mtl_mean >= 3.0 * untrained_mean and mtl_mean >= st_mean
    report("5 generalization-direction", ok,
           f"untrained {untrained_mean:.4f}, single-task {st_mean:.4f}, "
           f"full-mtl {mtl_mean:.4f}")


# --- criterion 6: operator invariants ------------------------------------------


def test_criterion_6_operator_invariants(gen_split):
    kg = gen_split.train
    params = ModelParams.init(kg, d=16, k=4, gamma=5.0, seed=8)
    rng = np.random.default_rng(12)
    tape = Tape()
    failures = []

    for _ in range(200):
        a = Tensor(rng.standard_normal(16) * 2)
        b = Tensor(rng.standard_normal(16) * 2)
        c = Tensor(rng.standard_normal(16) * 2)
        ab = embed_union(tape, a, b)
        if ab.data.tobytes() != embed_union(tape, b, a).data.tobytes():
            failures.append("union commutativity")
        left = embed_union(tape, embed_union(tape, a, b), c)
        right = embed_union(tape, a, embed_union(tape, b, c))
        if left.data.tobytes() != right.data.tobytes():
            failures.append("union associativity")
        if embed_union(tape, a, a).data.tobytes() != a.data.tobytes():
            failures.append("union idempotence")

        inter = embed_intersection(tape, params, a, b).data
        lo = np.minimum(a.data, b.data) - 1e-12
        hi = np.maximum(a.data, b.data) + 1e-12
        if not (np.all(inter >= lo) and np.all(inter <= hi)):
            failures.append("intersection convexity")

        x = np.concatenate([a.data, b.data])
        hidden = EAGER.relu(EAGER.affine(params.inter_w1.data, x))
        w = sigmoid(EAGER.affine(params.inter_w2.data, hidden))
        if (not np.all((w >= 0.0) & (w <= 1.0))
                or np.max(np.abs(inter - (w * a.data + (1.0 - w) * b.data))) > 1e-12):
            failures.append("branch weight normalization")
        g = tape.softmax_last_dim(tape.affine(params.gate_joint, a)).data
        if abs(g.sum() - 1.0) > 1e-12:
            failures.append("gate normalization")

    zero = ModelParams.init(kg, d=16, k=4, gamma=5.0, seed=8)
    zero.inter_w1.data[...] = 0.0
    zero.inter_w2.data[...] = 0.0
    a = Tensor(rng.standard_normal(16))
    b = Tensor(rng.standard_normal(16))
    mean = embed_intersection(tape, zero, a, b).data
    if np.max(np.abs(mean - (a.data + b.data) / 2.0)) > 1e-15:
        failures.append("zero-parameter intersection mean")

    report("6 operator-invariants", not failures,
           "all invariants" if not failures else ", ".join(sorted(set(failures))))


# --- criterion 7: metric correctness --------------------------------------------


def test_criterion_7_metric_correctness():
    from lqrec.evaluation import _record_metrics
    from test_evaluation import brute_force_rank

    failures = []
    m = _record_metrics([2], (2,))
    if abs(m["ndcg@2"] - 1.0 / math.log2(3.0)) > 1e-12:
        failures.append("ndcg@2 closed form")
    if _record_metrics([5], (20,))["hit@20"] != 1.0:
        failures.append("hit inside cutoff")
    if _record_metrics([21], (20,))["hit@20"] != 0.0:
        failures.append("hit beyond cutoff")
    if _record_metrics([21], (20,))["ndcg@20"] != 0.0:
        failures.append("ndcg beyond cutoff")
    if abs(_record_metrics([1], (10,))["ndcg@10"] - 1.0) > 1e-12:
        failures.append("ndcg at rank 1")

    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        ids = np.sort(rng.choice(np.arange(60), size=n, replace=False))
        scores = np.round(rng.random(n), 1)
        target = int(rng.choice(ids))
        others = [int(i) for i in ids if i != target]
        rng.shuffle(others)
        cut = int(rng.integers(0, len(others) + 1))
        filt = frozenset(others[:cut])
        got = filtered_rank(scores, ids, np.array([target]),
                            np.array(sorted(filt | {target})))
        if got.tolist() != [brute_force_rank(scores, ids, target, filt)]:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} filtered-rank mismatches")
    report("7 metric-correctness", not failures,
           "unit cases exact, 500 reranks" if not failures else str(failures))


# --- criterion 8: determinism ----------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    world = clustered_world(n_clusters=3, attrs_per_cluster=5,
                            items_per_cluster=10, n_users=15, seed=21)
    raw = write_world_files(world, str(tmp_path / "raw"))

    def file_hashes(d, names):
        h = hashlib.sha256()
        for n in names:
            h.update((d / n).read_bytes())
        return h.hexdigest()

    split_hashes = []
    data_hashes = []
    train_hashes = []
    ds_cfg = tmp_path / "ds.cfg"
    ds_cfg.write_text(
        "seed=4\n" + "\n".join(f"train.{s}=4" for s in ("1p", "2p", "2i"))
        + "\nvalid.1p=2\n" + "\n".join(
            f"test.{s}=2" for s in ("1p", "ip", "2u")) + "\n"
    )
    tr_cfg = tmp_path / "tr.cfg"
    tr_cfg.write_text("d=8\nk=2\ngamma=2.0\nlr=0.005\nepochs=3\nbatch_size=8\n"
                      "n_neg=4\npatience=none\n")
    def run_cli(args, in_process):
        if in_process:
            assert cli_main(args) == 0
        else:
            import subprocess
            import sys

            proc = subprocess.run([sys.executable, "-m", "lqrec.cli"] + args,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr

    # second leg runs in a fresh interpreter: reruns must be reproducible
    # across processes, not just within one
    for run, in_process in (("x", True), ("y", False)):
        sd = tmp_path / f"split_{run}"
        run_cli(["split", "--triples", raw["triples"], "--items",
                 raw["items"], "--users", raw["users"], "--like",
                 "likes", "--fraction", "0.08", "--seed", "6",
                 "--out", str(sd)], in_process)
        split_hashes.append(file_hashes(sd, ["train.tsv", "heldout.tsv",
                                             "manifest.json"]))
        dd = tmp_path / f"data_{run}"
        run_cli(["build-dataset", "--split-dir", str(sd), "--config",
                 str(ds_cfg), "--out-dir", str(dd)], in_process)
        data_hashes.append(file_hashes(dd, ["train.jsonl", "valid.jsonl",
                                            "test.jsonl", "stats.txt"]))
        rd = tmp_path / f"run_{run}"
        run_cli(["train", "--data", str(dd), "--config", str(tr_cfg),
                 "--variant", "mtl", "--seed", "2", "--out", str(rd)],
                in_process)
        train_hashes.append(file_hashes(rd, ["checkpoint_best.ckpt",
                                             "train_log.jsonl"]))
    ok = (split_hashes[0] == split_hashes[1]
          and data_hashes[0] == data_hashes[1]
          and train_hashes[0] == train_hashes[1])
    report("8 determinism", ok,
           f"split {split_hashes[0][:8]}, dataset {data_hashes[0][:8]}, "
           f"checkpoint {train_hashes[0][:8]}")


# --- criterion 9: zero-shot discipline --------------------------------------------


def test_criterion_9_zero_shot_discipline(gen_split, gen_datasets, sweep,
                                          tmp_path):
    datasets = gen_datasets
    for split_name in ("train", "valid"):
        for inst in datasets[split_name]:
            assert inst.shape not in ZERO_SHOT_SHAPES
    # and on disk
    write_dataset(datasets, BuildReport(requested={}, datasets=datasets), gen_split.full,
                  str(tmp_path))
    for line in (tmp_path / "train.jsonl").read_text().splitlines():
        assert json.loads(line)["shape"] in {s.value for s in BASIC_SHAPES}

    params = sweep["mtl_params"]
    report_eval = evaluate(datasets["test"], params, gen_split.train,
                           ks=(10, 20), target="hard")
    finite = True
    for shape in ZERO_SHOT_SHAPES:
        metrics = report_eval.per_shape.get(shape.value)
        if metrics is None or not all(np.isfinite(v) for v in metrics.values()):
            finite = False
    zero_shot_hits = {s.value: round(report_eval.per_shape[s.value]["hit@20"], 3)
                      for s in ZERO_SHOT_SHAPES}
    report("9 zero-shot-discipline", finite, f"zero-shot hit@20 {zero_shot_hits}")
