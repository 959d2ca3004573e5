import hashlib
import json
import os
import random
import re
from collections import Counter

import pytest

from lqrec import dataset, oracle
from lqrec.artifacts import ArtifactMismatchError
from lqrec.dataset import (
    BASIC_SHAPES,
    DatasetConfig,
    ConfigError,
    DATASET_FILES,
    STATS_FILE,
    SamplingError,
    _likers,
    build_dataset,
    instance_to_record,
    load_instances,
    record_to_instance,
    sample_instance,
    sample_requirement,
    verify_dataset,
    write_dataset,
)
from lqrec.kg import graph_from_names
from lqrec.oracle import TASK_JOINT, TASK_PREF, TASK_REQ
from lqrec.query import (ALL_SHAPES, ZERO_SHOT_SHAPES, And, QueryShape, classify_shape,
                         parse_query, serialize_query)
from lqrec.synth import clustered_world
from lqrec.training import TrainConfig

from source_checks import literal_comparisons
from test_oracle import random_shaped_query, reference_requirement


def small_counts(n_train=5, n_valid=2, n_test=3):
    return {
        "train": {s: n_train for s in BASIC_SHAPES},
        "valid": {s: n_valid for s in BASIC_SHAPES},
        "test": {s: n_test for s in ALL_SHAPES},
    }


def test_config_rejects_zero_shot_in_train():
    with pytest.raises(ConfigError, match="reserved for testing"):
        DatasetConfig(counts={"train": {QueryShape.IP: 1}}, seed=0)


def test_config_rejects_zero_shot_in_valid():
    with pytest.raises(ConfigError):
        DatasetConfig(counts={"valid": {QueryShape.TWO_U: 1}}, seed=0)


def test_config_rejects_unclassified_shape_for_what_it_is():
    # no split holds `other`; the zero-shot reason is not its reason
    with pytest.raises(ConfigError, match="shape other not allowed in split 'test'") as exc:
        DatasetConfig(counts={"test": {QueryShape.UNCLASSIFIED: 1}}, seed=0)
    assert "reserved for testing" not in str(exc.value)


def test_config_rejects_shape_name_as_key():
    # counts are keyed by QueryShape; a shape's name is refused, naming it
    with pytest.raises(ConfigError, match="shape key '1p' of split 'train'"):
        DatasetConfig(counts={"train": {"1p": 3}}, seed=0)


def test_splits_are_decided_only_by_the_table():
    # which shapes a split holds and which graph grounds it are read from
    # dataset.SPLITS; no module branches on a split's name
    assert literal_comparisons(dataset.SPLIT_NAMES) == []


def test_config_from_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("seed=7\nanswer_cap=50\ntrain.1p=10\ntest.ip=4  # zero-shot\n")
    cfg = DatasetConfig.from_file(str(p))
    assert cfg.seed == 7
    assert cfg.answer_cap == 50
    assert cfg.counts["train"][QueryShape.ONE_P] == 10
    assert cfg.counts["test"][QueryShape.IP] == 4


def test_config_file_requires_seed(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("train.1p=10\n")
    with pytest.raises(ConfigError, match="seed"):
        DatasetConfig.from_file(str(p))


@pytest.mark.parametrize("from_file", [DatasetConfig.from_file, TrainConfig.from_file],
                         ids=["dataset", "train"])
@pytest.mark.parametrize("line, message", [
    ("nonsense=3", "unknown key 'nonsense'"),
    ("seed 3", "expected key=value"),
    ("seed=abc", "bad value for 'seed'"),
    ("seed=2", "duplicate key 'seed'"),
    # Values only a range or cross-field check rejects; the other config
    # does not know the key at all.
    *(pytest.param(f"{key}={value}",
                   {owner: f"bad value for {key!r}", other: f"unknown key {key!r}"},
                   id=f"{key}={value}")
      for key, value, owner, other in [
          ("task_weights", "1,2", TrainConfig, DatasetConfig),
          ("train.1p", "-1", DatasetConfig, TrainConfig),
          ("train.2u", "3", DatasetConfig, TrainConfig),
          *((key, value, DatasetConfig, TrainConfig) for key, value in [
              ("max_retries", "-1"), ("max_retries", "0"),
              ("answer_cap", "0"), ("answer_cap", "-5"),
          ]),
          *((key, value, TrainConfig, DatasetConfig) for key, value in [
              ("d", "0"), ("d", "-3"), ("k", "0"), ("batch_size", "0"),
              ("batch_size", "-5"), ("eval_every", "0"), ("eval_k", "0"),
              ("n_neg", "-1"), ("epochs", "-1"), ("patience", "-1"),
          ]),
      ]),
])
def test_config_errors_name_location(tmp_path, from_file, line, message):
    p = tmp_path / "cfg"
    p.write_text(f"# comment\n\nseed=1\n{line}\n")
    if isinstance(message, dict):
        message = message[from_file.__self__]
    with pytest.raises(ConfigError, match=re.escape(f"{p}:4: {message}")):
        from_file(str(p))


@pytest.mark.parametrize("from_file", [DatasetConfig.from_file, TrainConfig.from_file],
                         ids=["dataset", "train"])
def test_config_not_utf8_names_location(tmp_path, from_file):
    # lines are numbered as a text-mode reader splits them: CRLF, CR and LF
    p = tmp_path / "cfg"
    p.write_bytes(b"# comment\r\n\rseed=1\nd=\xff\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}:4: not UTF-8")):
        from_file(str(p))
    # a file saved with a UTF-8 byte-order mark
    p.write_bytes(b"\xef\xbb\xbfseed=1\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}:1: U+FEFF byte-order mark")):
        from_file(str(p))


def sampled_queries(kg, shape, rng, n, attempts_per_query=20):
    """``n`` requirements of ``shape``, skipping dead ends; fails, rather
    than looping on, a sampler that dead-ends on nearly every draw."""
    queries, budget = [], n * attempts_per_query
    for _ in range(budget):
        try:
            queries.append(sample_requirement(kg, shape, rng))
        except SamplingError:
            continue
        if len(queries) == n:
            return queries
    pytest.fail(f"{shape.value}: {len(queries)} of {n} requirements in {budget} draws")


def test_sampled_requirement_contains_seed_semantics(world):
    # backward construction guarantees a nonempty answer set
    rng = random.Random(11)
    for shape in ALL_SHAPES:
        for q in sampled_queries(world, shape, rng, 20):
            assert classify_shape(q) == shape
            assert oracle.answer_requirement(world, q)


def test_thousand_three_hop_samples_all_answerable(world):
    rng = random.Random(71)
    for q in sampled_queries(world, QueryShape.THREE_P, rng, 1000):
        assert oracle.answer_requirement(world, q)


def test_intersection_needs_enough_distinct_in_edges():
    kg = graph_from_names(
        [("a", "r1", "x"), ("u", "likes", "x")], ["x"], ["u"], "likes"
    )
    rng = random.Random(0)
    # x has exactly the in-pairs (r1, a) and (likes, u), so a 2i is the
    # largest satisfiable intersection; a 3i must dead-end
    assert sample_requirement(kg, QueryShape.TWO_I, rng)
    with pytest.raises(SamplingError):
        sample_requirement(kg, QueryShape.THREE_I, rng)


def test_train_instance_fields(world_split):
    rng = random.Random(3)
    cfg = DatasetConfig(counts=small_counts(), seed=1)
    inst = sample_instance(world_split, QueryShape.TWO_I, "train", rng, cfg)
    assert inst.hard is None
    kg = world_split.train
    assert inst.answers[TASK_JOINT] == (
        inst.answers[TASK_REQ] & inst.answers[TASK_PREF]
    )
    assert inst.answers[TASK_REQ] == oracle.answer_requirement(kg, inst.requirement)
    assert inst.answers[TASK_PREF] == oracle.answer_preference(kg, inst.user)
    assert inst.answers[TASK_JOINT] <= kg.items


def test_test_instance_has_hard_answer(world_split):
    rng = random.Random(5)
    cfg = DatasetConfig(counts=small_counts(), seed=1)
    inst = sample_instance(world_split, QueryShape.ONE_P, "test", rng, cfg)
    assert inst.hard is not None and inst.hard[TASK_JOINT]
    train_joint = oracle.answer_joint(world_split.train, inst.user,
                                      inst.requirement)
    for item in inst.hard[TASK_JOINT]:
        assert item not in train_joint


@pytest.mark.parametrize("graph", ["train", "full"])
def test_likers_are_the_users_with_joint_answers(world_split, graph):
    # The sampler's user pool against the predicate of a scan over every
    # user: a nonempty joint answer set. The requirements of every shape are
    # backward-grounded ones and uniformly random ones (mostly unsatisfiable).
    kg = getattr(world_split, graph)
    rng = random.Random(31)
    queries = []
    for shape in ALL_SHAPES:
        for _ in range(25):
            queries.append(random_shaped_query(kg, shape, rng))
            try:
                queries.append(sample_requirement(kg, shape, rng))
            except SamplingError:
                pass
    sizes = []
    for q in queries:
        want = sorted(u for u in kg.users if oracle.answer_joint(kg, u, q))
        assert _likers(kg, oracle.answer_requirement(kg, q)) == want, q
        sizes.append(len(want))
    assert 0 in sizes and any(0 < n < len(kg.users) for n in sizes)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_likers_match_a_scan_of_the_interaction_triples(seed):
    # Random sets of items, and of any entities, of every size from empty
    # to the whole catalog, against a scan of every interaction triple.
    kg = clustered_world(seed=seed)
    likes = [(t.head, t.tail) for t in kg.triples if t.rel == kg.like_rel]
    rng = random.Random(seed)
    for pool in (kg.sorted_items(), range(kg.n_entities)):
        for n in (0, 1, 5, 50, len(pool)):
            for _ in range(10):
                chosen = frozenset(rng.sample(pool, n))
                want = sorted({u for u, item in likes if item in chosen})
                assert _likers(kg, chosen) == want, (seed, n)


def test_sampled_user_covers_exactly_the_qualifying_users(world_split, monkeypatch):
    # With the requirement held fixed, seeded draws reach every user whose
    # joint answer set is nonempty, about equally often, and no other user.
    kg = world_split.train
    rng = random.Random(8)
    while True:
        q = sample_requirement(kg, QueryShape.ONE_P, rng)
        qualifying = {u for u in kg.users if oracle.answer_joint(kg, u, q)}
        if 5 <= len(qualifying) < len(kg.users):
            break
    monkeypatch.setattr(dataset, "sample_requirement", lambda kg, shape, rng: q)
    cfg = DatasetConfig(counts={}, seed=0)
    n = 100 * len(qualifying)
    drawn = Counter(sample_instance(world_split, QueryShape.ONE_P, "train", rng, cfg).user
                    for _ in range(n))
    assert set(drawn) == qualifying
    assert min(drawn.values()) > 50 and max(drawn.values()) < 150


def test_build_dataset_deterministic(world_split, tmp_path):
    cfg = DatasetConfig(counts=small_counts(), seed=42)
    d1, r1 = build_dataset(world_split, cfg)
    d2, r2 = build_dataset(world_split, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    write_dataset(d1, r1, world_split.full, str(out1))
    write_dataset(d2, r2, world_split.full, str(out2))
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "stats.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_write_dataset_is_atomic(world_split, tmp_path, monkeypatch):
    first = build_dataset(world_split, DatasetConfig(counts=small_counts(), seed=3))
    write_dataset(*first, world_split.full, str(tmp_path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    second = build_dataset(world_split, DatasetConfig(counts=small_counts(), seed=4))
    assert second[0]["train"] != first[0]["train"]
    with pytest.raises(OSError, match="disk full"):
        write_dataset(*second, world_split.full, str(tmp_path))
    # the previous train.jsonl is intact and no temporary file is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_sampling_stream_pinned(world_split, tmp_path):
    # The bytes written for every allowed cell. Any change to the number or
    # order of the sampler's RNG calls, or to what it grounds, changes them.
    cfg = DatasetConfig(counts=small_counts(n_train=4, n_valid=2, n_test=3), seed=5)
    datasets, report = build_dataset(world_split, cfg)
    assert report.shortfalls == []
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    h = hashlib.sha256()
    for name in (*DATASET_FILES.values(), STATS_FILE):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == (
        "adfc296fb0a2f2e13ec320056de31ff77b411191e820187f24799a160e9a97df")


def test_zero_count_shape_absent(world_split, tmp_path):
    counts = small_counts()
    counts["test"][QueryShape.TWO_U] = 0
    cfg = DatasetConfig(counts=counts, seed=2)
    datasets, report = build_dataset(world_split, cfg)
    assert all(i.shape != QueryShape.TWO_U for i in datasets["test"])


def test_zero_shot_discipline(world_split):
    cfg = DatasetConfig(counts=small_counts(), seed=3)
    datasets, _ = build_dataset(world_split, cfg)
    for split_name in ("train", "valid"):
        for inst in datasets[split_name]:
            assert inst.shape not in ZERO_SHOT_SHAPES


def test_stats_match_emitted_files(world_split, tmp_path):
    cfg = DatasetConfig(counts=small_counts(), seed=4)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    assert report.shortfalls == []
    rows = [line.split() for line in (tmp_path / STATS_FILE).read_text().splitlines()[1:]]
    emitted = {(split_name, shape): int(n) for split_name, shape, _, n, *_ in rows}
    counted = Counter((split_name, rec.shape.value)
                      for split_name in ("train", "valid", "test")
                      for rec in load_instances(str(tmp_path), split_name, world_split.full))
    assert counted == {cell: n for cell, n in emitted.items() if n}


def test_record_roundtrip(world_split):
    cfg = DatasetConfig(counts=small_counts(), seed=6)
    rng = random.Random(8)
    inst = sample_instance(world_split, QueryShape.PI, "test", rng, cfg)
    record = instance_to_record(inst, world_split.full)
    again = record_to_instance(record, world_split.full)
    assert again == inst
    # record is JSON-serializable with the fixed field names
    blob = json.loads(json.dumps(record))
    assert set(blob) == {"user", "query", "shape", "answers", "hard"}
    assert set(blob["answers"]) == {TASK_JOINT, TASK_REQ, TASK_PREF}


def test_answer_cap_respected(world_split):
    cfg = DatasetConfig(counts=small_counts(), seed=9, answer_cap=5)
    rng = random.Random(10)
    for _ in range(10):
        inst = sample_instance(world_split, QueryShape.ONE_P, "train", rng, cfg)
        assert len(inst.answers[TASK_REQ]) <= 5


def test_build_equals_reference_oracle_build(world_split, tmp_path, monkeypatch):
    # The same records, split by split, as a build whose oracle is the
    # reference traversal with a cap check on each finished answer set; the
    # cap here stops some projections early.
    cfg = DatasetConfig(counts=small_counts(), seed=21, answer_cap=12)
    project, stopped = oracle._project, []

    def spy(*args):
        out = project(*args)
        stopped.append(out is None)
        return out

    monkeypatch.setattr(oracle, "_project", spy)
    datasets, report = build_dataset(world_split, cfg)
    assert any(stopped)
    monkeypatch.setattr(oracle, "_project", project)
    monkeypatch.setattr(oracle, "answer_requirement", reference_requirement)
    ref_datasets, ref_report = build_dataset(world_split, cfg)
    assert all(datasets.values())
    for split_name in datasets:
        assert datasets[split_name] == ref_datasets[split_name], split_name
    assert report.to_text() == ref_report.to_text()
    monkeypatch.undo()
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    assert verify_dataset(world_split, str(tmp_path)) == []


def test_verify_pass_on_built_dataset(world_split, tmp_path):
    cfg = DatasetConfig(counts=small_counts(), seed=12)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    assert verify_dataset(world_split, str(tmp_path)) == []


def test_verify_flags_corruption(world_split, tmp_path):
    cfg = DatasetConfig(counts=small_counts(0, 0, 2), seed=13)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    path = tmp_path / "test.jsonl"
    lines = path.read_text().splitlines(keepends=True)

    def corrupt_first(edit):
        record = json.loads(lines[0])
        edit(record)
        path.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))

    # a record the loader accepts but the oracle does not
    corrupt_first(lambda record: record["answers"][TASK_REQ].pop())
    assert verify_dataset(world_split, str(tmp_path)) == [
        "test:1: answer sets disagree with oracle"]
    # a record the loader rejects
    corrupt_first(lambda record: record["hard"][TASK_JOINT].clear())
    with pytest.raises(ArtifactMismatchError, match=re.escape(f"{path}:1: ")):
        verify_dataset(world_split, str(tmp_path))


def test_verify_names_file_lines(world_split, tmp_path):
    # a blank line 2 puts the second record on line 3; verify names line 3
    cfg = DatasetConfig(counts=small_counts(0, 0, 2), seed=13)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    path = tmp_path / "test.jsonl"
    first, second, *rest = path.read_text().splitlines(keepends=True)
    record = json.loads(second)
    record["answers"][TASK_REQ].pop()
    path.write_text(first + "\n" + json.dumps(record) + "\n" + "".join(rest))
    assert verify_dataset(world_split, str(tmp_path)) == [
        "test:3: answer sets disagree with oracle"]


def _edit_first_record(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    edit(record)
    path.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))


@pytest.mark.parametrize("task", [TASK_JOINT, TASK_REQ, TASK_PREF])
def test_verify_flags_hard_set_off_by_one(world_split, tmp_path, task):
    cfg = DatasetConfig(counts=small_counts(0, 0, 2), seed=13)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    items = sorted(world_split.full.entity_vocab.name_of(i) for i in world_split.full.items)

    def add_one(record):
        hard = record["hard"][task]
        hard.append(next(name for name in items if name not in hard))

    _edit_first_record(tmp_path / "test.jsonl", add_one)
    assert verify_dataset(world_split, str(tmp_path)) == [
        "test:1: hard answer sets disagree with oracle"]


def unclassified_record(record, kg):
    """``record`` of a 2i query ``(and X Y)`` turned into one of the
    untemplated query ``(and X (and X Y))``: the same answer sets, shape
    ``other``."""
    x, y = parse_query(record["query"], kg).children
    record.update(query=serialize_query(And((x, And((x, y)))), kg), shape="other")
    return record


def test_verify_rejects_unclassified_record(world_split, tmp_path):
    cfg = DatasetConfig(counts={"test": {QueryShape.TWO_I: 2}}, seed=13)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    path = tmp_path / "test.jsonl"
    _edit_first_record(path, lambda record: unclassified_record(record, world_split.full))
    query = json.loads(path.read_text().splitlines()[0])["query"]
    assert classify_shape(parse_query(query, world_split.full)) == QueryShape.UNCLASSIFIED
    with pytest.raises(ArtifactMismatchError, match=re.escape(
            f"{path}:1: shape other not allowed in split 'test'")):
        verify_dataset(world_split, str(tmp_path))


def test_verify_flags_train_record_with_hard(world_split, tmp_path):
    cfg = DatasetConfig(counts=small_counts(2, 0, 0), seed=13)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))

    def add_hard(record):
        record["hard"] = {TASK_JOINT: record["answers"][TASK_JOINT][:1],
                          TASK_REQ: [], TASK_PREF: []}

    # the loader refuses the record before verify compares it with the oracle
    path = tmp_path / "train.jsonl"
    _edit_first_record(path, add_hard)
    with pytest.raises(ArtifactMismatchError, match=re.escape(
            f"{path}:1: a train record with hard answers")):
        verify_dataset(world_split, str(tmp_path))


def test_shortfall_stats_pinned(world_split, tmp_path):
    # A cap of 3 answers leaves some cells empty and some part-filled; their
    # report rows and the shortfalls lines are part of the pinned bytes.
    cfg = DatasetConfig(counts=small_counts(), seed=17, answer_cap=3)
    datasets, report = build_dataset(world_split, cfg)
    assert report.shortfalls
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    stats = (tmp_path / STATS_FILE).read_bytes()
    assert b"\nshortfalls:\n" in stats
    assert hashlib.sha256(stats).hexdigest() == (
        "f70f6d77ead6be5b49b71774de28cfc6b46efed9931412e2d9c53fec25e65855")


def test_load_instances(world_split, tmp_path):
    cfg = DatasetConfig(counts=small_counts(), seed=14)
    datasets, report = build_dataset(world_split, cfg)
    write_dataset(datasets, report, world_split.full, str(tmp_path))
    loaded = load_instances(str(tmp_path), "test", world_split.full)
    assert loaded == datasets["test"]
