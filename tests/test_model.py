import json
import math
import os
import re

import numpy as np
import pytest

from lqrec import model
from lqrec.artifacts import ArtifactMismatchError
from lqrec.autodiff import EAGER, OpShapeError, Tape, Tensor, backward, sigmoid
from lqrec.evaluation import rank_items
from lqrec.kg import graph_from_names
from lqrec.model import (
    VARIANTS,
    Catalog,
    ModelParams,
    catalog_scores,
    embed_instance,
    embed_intersection,
    embed_projection,
    embed_requirement,
    embed_union,
    embed_user_preference,
    load_checkpoint,
    model_variant,
    param_shapes,
    save_checkpoint,
    score_items,
)
from lqrec.oracle import TASK_JOINT, TASK_PREF, TASK_REQ, TASKS
from lqrec.query import parse_query
from conftest import traced
from source_checks import SRC_DIR, gathers_not_from_params, literal_comparisons
from test_autodiff import reduce_sum


@pytest.fixture
def params(world):
    return ModelParams.init(world, d=8, k=4, gamma=2.0, seed=0)


def make_vec(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def test_variant_validation():
    assert model_variant("mtl") == "mtl"
    with pytest.raises(ValueError) as exc:
        model_variant("bogus")
    assert str(exc.value) == ("unknown variant 'bogus'; expected one of "
                              "('mtl', 'shared-bottom', 'single-task', 'no-al', 'no-au')")


def test_model_gathers_only_from_parameter_tables():
    # a gather's row gradient then lands only in a parameter table, so its
    # scatter could wait until the reverse sweep ends; batch rows are put in
    # place by place_rows instead
    assert gathers_not_from_params() == []


def test_training_gathers_only_from_parameter_tables():
    # every instance trains every task the loss scores, so each task scores
    # its whole batch embedding and the loss gathers no rows of it
    assert gathers_not_from_params(SRC_DIR / "training.py") == []


def test_variants_are_decided_only_by_the_table():
    # what a variant means (its head, its trained tasks) is read from
    # model.VARIANTS; no module branches on a variant's name
    assert literal_comparisons(model.VARIANTS) == []


def test_projection_is_translation(params):
    tape = Tape()
    base = make_vec(np.zeros(8))
    out = embed_projection(tape, params, base, 0)
    np.testing.assert_array_equal(out.data, params.relation_emb.data[0])
    # zero base and zero relation give the zero vector
    params.relation_emb.data[1] = 0.0
    out0 = embed_projection(tape, params, make_vec(np.zeros(8)), 1)
    np.testing.assert_array_equal(out0.data, np.zeros(8))


def test_two_hop_chain_is_summed_relations(tiny_kg):
    p = ModelParams.init(tiny_kg, d=2, k=1, gamma=1.0, seed=0)
    p.entity_emb.data[0] = [1.0, 2.0]
    p.relation_emb.data[0] = [0.5, -1.0]
    p.relation_emb.data[1] = [0.0, 1.0]
    tape = Tape()
    base = tape.gather(p.entity_emb, 0)
    out = embed_projection(tape, p, embed_projection(tape, p, base, 0), 1)
    np.testing.assert_allclose(out.data, [1.5, 2.0])
    # associativity of the chain sum
    direct = p.entity_emb.data[0] + (p.relation_emb.data[0] + p.relation_emb.data[1])
    np.testing.assert_allclose(out.data, direct)


def test_intersection_zero_params_is_mean(params):
    params.inter_w1.data[...] = 0.0
    params.inter_w2.data[...] = 0.0
    tape = Tape()
    q1 = make_vec(np.arange(8.0))
    q2 = make_vec(-np.arange(8.0) + 3.0)
    out = embed_intersection(tape, params, q1, q2)
    np.testing.assert_allclose(out.data, (q1.data + q2.data) / 2.0, atol=1e-15)


def test_intersection_weights_sum_to_one(params):
    """The gate ``w`` lies in [0, 1] and the output is ``w * q1 + (1 - w) * q2``:
    in every dimension the two operands' weights sum to one."""
    rng = np.random.default_rng(4)
    params.inter_w2.data[...] = rng.standard_normal(params.inter_w2.shape) * 3.0
    tape = Tape()
    gates = []
    for _ in range(20):
        q1 = make_vec(rng.standard_normal(8))
        q2 = make_vec(rng.standard_normal(8))
        x = np.concatenate([q1.data, q2.data])
        hidden = EAGER.relu(EAGER.affine(params.inter_w1.data, x))
        w = sigmoid(EAGER.affine(params.inter_w2.data, hidden))
        assert np.all((w >= 0.0) & (w <= 1.0))
        out = embed_intersection(tape, params, q1, q2).data
        np.testing.assert_allclose(out, w * q1.data + (1.0 - w) * q2.data,
                                   rtol=0, atol=1e-12)
        gates.append(w)
    # the gates lean both ways, so a swapped mix would fail above
    assert np.min(gates) < 0.1 and np.max(gates) > 0.9


def test_intersection_convex_combination(params):
    rng = np.random.default_rng(9)
    tape = Tape()
    for _ in range(50):
        q1 = make_vec(rng.standard_normal(8) * 3)
        q2 = make_vec(rng.standard_normal(8) * 3)
        out = embed_intersection(tape, params, q1, q2).data
        lo = np.minimum(q1.data, q2.data)
        hi = np.maximum(q1.data, q2.data)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_union_examples_and_laws():
    tape = Tape()
    a = make_vec([1.0, -2.0])
    b = make_vec([0.0, 3.0])
    c = make_vec([-1.0, 5.0])
    np.testing.assert_array_equal(embed_union(tape, a, b).data, [1.0, 3.0])
    # idempotent, commutative, associative, all bitwise
    assert embed_union(tape, a, a).data.tobytes() == a.data.tobytes()
    ab = embed_union(tape, a, b)
    ba = embed_union(tape, b, a)
    assert ab.data.tobytes() == ba.data.tobytes()
    left = embed_union(tape, embed_union(tape, a, b), c)
    right = embed_union(tape, a, embed_union(tape, b, c))
    assert left.data.tobytes() == right.data.tobytes()


def test_user_preference_identity(world, params):
    u = sorted(world.users)[0]
    tape = Tape()
    pref = embed_user_preference(tape, params, u, world.like_rel)
    base = tape.gather(params.entity_emb, u)
    proj = embed_projection(tape, params, base, world.like_rel)
    np.testing.assert_array_equal(pref.data, proj.data)


def test_preferences_differ_across_users(world, params):
    users = sorted(world.users)[:5]
    tape = Tape()
    embs = [embed_user_preference(tape, params, u, world.like_rel).data
            for u in users]
    for i in range(len(embs)):
        for j in range(i + 1, len(embs)):
            assert not np.array_equal(embs[i], embs[j])


def test_joint_uses_same_network(world):
    # single-task scores the joint query itself: the requirement and
    # preference embeddings mixed by the intersection network
    p = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=3, variant="single-task")
    q = parse_query("(p tags (e attr0_0))", world)
    user = sorted(world.users)[0]
    tape = Tape()
    inter = embed_intersection(
        tape, p, embed_requirement(tape, p, [q]),
        embed_user_preference(tape, p, [user], world.like_rel))
    joint = embed_instance(Tape(), p, [user], [q], world.like_rel, (TASK_JOINT,))[TASK_JOINT]
    assert joint.data.tobytes() == inter.data.tobytes()


def test_mtl_single_expert_gates_trivial(world):
    p = ModelParams.init(world, d=8, k=1, gamma=2.0, seed=1)
    rng = np.random.default_rng(0)
    q = make_vec(rng.standard_normal(8))
    q_l = make_vec(rng.standard_normal(8))
    q_u = make_vec(rng.standard_normal(8))
    tape = Tape()
    out = VARIANTS[p.variant].head(tape, p, q, q_l, q_u, TASKS)
    expert = tape.relu(tape.affine(p.experts, q))
    for task in (TASK_JOINT, TASK_REQ, TASK_PREF):
        np.testing.assert_allclose(out[task].data, expert.data, atol=1e-15)


def test_mtl_zero_gate_logits_uniform(world):
    p = ModelParams.init(world, d=8, k=4, gamma=2.0, seed=1)
    for gate in (p.gate_joint, p.gate_req, p.gate_pref):
        gate.data[...] = 0.0
    q = make_vec(np.linspace(-1, 1, 8))
    tape = Tape()
    weights = tape.softmax_last_dim(tape.affine(p.gate_joint, q))
    np.testing.assert_allclose(weights.data, np.full(4, 0.25), atol=1e-15)


def test_gate_weights_normalized(world, params):
    rng = np.random.default_rng(8)
    tape = Tape()
    for _ in range(10):
        q = make_vec(rng.standard_normal(8) * 4)
        w = tape.softmax_last_dim(tape.affine(params.gate_joint, q))
        assert abs(w.data.sum() - 1.0) < 1e-12


def test_shared_bottom_one_representation(world):
    p = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=2,
                         variant="shared-bottom")
    rng = np.random.default_rng(1)
    tape = Tape()
    out = VARIANTS[p.variant].head(tape, p, make_vec(rng.standard_normal(8)),
                                   make_vec(rng.standard_normal(8)),
                                   make_vec(rng.standard_normal(8)), TASKS)
    assert out[TASK_JOINT] is out[TASK_REQ] is out[TASK_PREF]


def test_single_task_skips_head(world):
    p = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=2,
                         variant="single-task")
    rng = np.random.default_rng(1)
    q = make_vec(rng.standard_normal(8))
    tape = Tape()
    out = VARIANTS[p.variant].head(tape, p, q, q, q, (TASK_JOINT,))
    assert list(out) == [TASK_JOINT]
    assert out[TASK_JOINT] is q
    assert not tape.nodes  # no experts or gates evaluated


def test_full_mtl_distinct_task_embeddings(world):
    p = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=3)
    rng = np.random.default_rng(2)
    tape = Tape()
    out = VARIANTS[p.variant].head(tape, p, make_vec(rng.standard_normal(8)),
                                   make_vec(rng.standard_normal(8)),
                                   make_vec(rng.standard_normal(8)), TASKS)
    assert not np.array_equal(out[TASK_JOINT].data, out[TASK_REQ].data)
    assert not np.array_equal(out[TASK_JOINT].data, out[TASK_PREF].data)


def test_score_closed_forms(world):
    p = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=4)
    item = sorted(world.items)[0]
    # distance exactly 2 -> logit gamma - 2 = 0
    q = Tensor(p.entity_emb.data[item] + np.array([2.0] + [0.0] * 7))
    tape = Tape()
    assert float(score_items(tape, p, q, [item]).data[0]) == pytest.approx(0.0, abs=1e-12)
    # zero distance -> logit gamma = 2
    q0 = Tensor(p.entity_emb.data[item].copy())
    assert float(score_items(tape, p, q0, [item]).data[0]) == 2.0


def test_score_monotone_in_distance(world):
    p = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=4)
    item = sorted(world.items)[0]
    tape = Tape()
    prev = 1.0
    for offset in (0.0, 0.5, 1.0, 2.0, 4.0):
        q = Tensor(p.entity_emb.data[item] + offset / 8.0)
        s = float(score_items(tape, p, q, [item]).data[0])
        assert s < prev or offset == 0.0
        prev = s


def test_scores_in_unit_interval(world, params):
    rng = np.random.default_rng(5)
    ids = world.sorted_items()
    scores = catalog_scores(Catalog(params, ids), rng.standard_normal(8))
    assert np.all(scores > 0) and np.all(scores < 1)


def test_catalog_scores_equal_taped_score_items(world, params):
    # inference scores the catalog on EAGER; training scores on a tape
    ids = np.asarray(world.sorted_items())
    q = np.random.default_rng(4).standard_normal(8)
    taped = score_items(Tape(), params, Tensor(q), ids).data
    assert score_items(EAGER, params, q, ids).tobytes() == taped.tobytes()
    # the column-table kernel sums in another order: equal to rounding
    probs = sigmoid(taped)
    assert np.max(np.abs(catalog_scores(Catalog(params, ids), q) - probs)) <= 1e-12


@pytest.mark.parametrize("n_items", [1, 250, 10_000])
@pytest.mark.parametrize("d", [3, 8, 32, 64])
def test_catalog_scores_match_score_items(d, n_items):
    # differential check of the column-table kernel against the row gather
    # of score_items on random tables
    rng = np.random.default_rng(1_000 * d + n_items)
    shapes = param_shapes(d, 1, n_items + 7, 2)
    params = ModelParams({name: rng.uniform(-0.5, 0.5, size=shape) / math.sqrt(d)
                          for name, shape in shapes.items()},
                         k=1, gamma=2.0, variant="mtl", seed=0)
    ids = np.sort(rng.choice(n_items + 7, size=n_items, replace=False))
    catalog = Catalog(params, ids)
    for _ in range(3):
        q = params.entity_emb.data[rng.choice(ids)] + rng.normal(0, 0.3, d) / math.sqrt(d)
        want = sigmoid(score_items(EAGER, params, q, ids))
        got = catalog_scores(catalog, q)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert len(np.unique(want)) == n_items  # tie-free input
        np.testing.assert_array_equal(np.lexsort((ids, -got)), np.lexsort((ids, -want)))
    if n_items == 1:
        return
    # duplicated embedding rows tie exactly and rank by ascending id
    twins = rng.choice(ids, size=5, replace=False)
    params.entity_emb.data[twins] = params.entity_emb.data[twins[0]]
    q = params.entity_emb.data[twins[0]] + rng.normal(0, 0.3, d) / math.sqrt(d)
    ranked, scores = rank_items(Catalog(params, ids), q)
    at = np.flatnonzero(np.isin(ranked, twins))
    assert at.tolist() == list(range(at[0], at[0] + 5))
    assert ranked[at].tolist() == sorted(twins.tolist())
    assert len(set(scores[at].tolist())) == 1


def reference_catalog_scores(catalog, q):
    """The one-query scorer that block scoring replaced: one (d, n_items)
    difference array, summed over its rows."""
    return sigmoid(catalog.gamma - np.abs(catalog.cols - q[:, None]).sum(axis=0))


@pytest.mark.parametrize("scratch", [model.SCORE_SCRATCH, 0])  # 0: rows stream
@pytest.mark.parametrize("n_items", [0, 1, 2, 45, 3_000])
@pytest.mark.parametrize("d", [8, 32])
def test_catalog_scores_blocks_equal_one_query_reference(monkeypatch, d, n_items,
                                                         scratch):
    # every row of a block's scores has the bytes of the one-query formula,
    # whether the block forms its differences in one go or streams its rows
    monkeypatch.setattr(model, "SCORE_SCRATCH", scratch)
    rng = np.random.default_rng(7 * d + n_items)
    shapes = param_shapes(d, 1, n_items + 3, 2)
    params = ModelParams({name: rng.uniform(-0.5, 0.5, size=shape) / math.sqrt(d)
                          for name, shape in shapes.items()},
                         k=1, gamma=2.0, variant="mtl", seed=0)
    ids = np.arange(n_items)
    twins = ids[::7]  # duplicated embedding columns must still tie
    params.entity_emb.data[twins] = params.entity_emb.data[0]
    catalog = Catalog(params, ids)
    queries = params.entity_emb.data[rng.integers(0, n_items + 3, size=9)]
    queries += rng.normal(0, 0.3, size=queries.shape) / math.sqrt(d)
    want = [reference_catalog_scores(catalog, q) for q in queries]
    for q, row in zip(queries, want):
        assert catalog_scores(catalog, q).tobytes() == row.tobytes()
    for block in (1, 2, 7, len(queries)):
        got = [row for start in range(0, len(queries), block)
               for row in catalog_scores(catalog, queries[start:start + block])]
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want]
    for row in want:
        assert len(set(row[twins].tolist())) <= 1


def test_catalog_scores_rejects_query_shapes(world, params):
    catalog = Catalog(params, world.sorted_items())
    for q in (np.float64(0.5), np.zeros((1, 2, 8)), np.zeros(7), np.zeros((3, 9))):
        with pytest.raises(OpShapeError):
            catalog_scores(catalog, q)


def test_margin_shift_preserves_ranking(world):
    ids = np.asarray(world.sorted_items())
    rng = np.random.default_rng(6)
    q = rng.standard_normal(8)
    p1 = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=4)
    p2 = ModelParams.init(world, d=8, k=2, gamma=9.5, seed=4)
    s1 = catalog_scores(Catalog(p1, ids), q)
    s2 = catalog_scores(Catalog(p2, ids), q)
    assert np.all(s2 >= s1)  # larger margin shifts scores up
    np.testing.assert_array_equal(np.argsort(-s1, kind="stable"),
                                  np.argsort(-s2, kind="stable"))


def test_score_gradient_matches_fd(world):
    p = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=7)
    item = sorted(world.items)[3]
    rng = np.random.default_rng(8)
    q_data = rng.standard_normal(8)

    def run():
        tape = Tape()
        return float(score_items(tape, p, Tensor(q_data), [item]).data[0])

    tape = Tape()
    out = reduce_sum(tape, score_items(tape, p, Tensor(q_data), [item]))
    p.zero_grads()
    backward(tape, out)
    grad = p.entity_emb.dense_grad()[item]
    h = 1e-6
    fd = np.zeros(8)
    for j in range(8):
        orig = p.entity_emb.data[item, j]
        p.entity_emb.data[item, j] = orig + h
        up = run()
        p.entity_emb.data[item, j] = orig - h
        down = run()
        p.entity_emb.data[item, j] = orig
        fd[j] = (up - down) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-8)


def test_embed_requirement_deterministic(world, params):
    q = parse_query("(and (p tags (e attr0_0)) (p marks (e attr0_1)))", world)
    t1, t2 = Tape(), Tape()
    a = embed_requirement(t1, params, [q])
    b = embed_requirement(t2, params, [q])
    assert a.data.tobytes() == b.data.tobytes()


def test_init_deterministic(world):
    a = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=11)
    b = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=11)
    assert a.params_hash() == b.params_hash()
    c = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=12)
    assert a.params_hash() != c.params_hash()


def test_checkpoint_roundtrip(world, params, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.params_hash() == params.params_hash()
    assert loaded.gamma == params.gamma
    assert loaded.k == params.k
    assert loaded.variant == params.variant
    loaded.validate_against(world)


def test_checkpoint_arrays_are_views_of_one_buffer(tmp_path):
    """The body is read once: the load peaks at the arrays it returns plus
    the finiteness check's one-byte mask of the largest (1/8 of it), where
    reading the body and then copying each array out of it took 2.1x."""
    rng = np.random.default_rng(0)
    params = ModelParams({name: rng.uniform(-1, 1, shape) for name, shape
                          in param_shapes(32, 3, 20_000, 7).items()},
                         k=3, gamma=5.0, variant="mtl", seed=0)
    path = tmp_path / "large.ckpt"
    save_checkpoint(params, str(path))
    loaded, peak, _ = traced(lambda: load_checkpoint(str(path)))
    arrays = [t.data for t in loaded.named().values()]
    assert loaded.params_hash() == params.params_hash()
    assert all(a.dtype == np.float64 and a.flags.writeable and a.flags.aligned
               for a in arrays)
    assert peak < 1.15 * sum(a.nbytes for a in arrays), peak


def test_checkpoint_save_is_atomic(world, params, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(ModelParams.init(world, d=8, k=3, gamma=2.0, seed=1), str(path))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_vocab_mismatch(tmp_path, world):
    params = ModelParams.init(world, d=4, k=2, gamma=1.0, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    other = graph_from_names(
        [("a", "r", "b"), ("u", "likes", "b")], ["b"], ["u"], "likes"
    )
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(str(path)).validate_against(other)


def test_init_draws_in_spec_order(world, tmp_path):
    """Init equals the draws written out in the documented order, and
    save -> load -> save reproduces the checkpoint bytes."""
    d, k, seed = 6, 3, 5
    params = ModelParams.init(world, d=d, k=k, gamma=2.0, seed=seed)
    rng = np.random.default_rng(seed)

    def emb(n):
        bound = 0.5 / math.sqrt(d)
        return rng.uniform(-bound, bound, size=(n, d))

    def affine(d_in, d_out):
        w = np.zeros((d_in + 1, d_out))
        bound = 1.0 / math.sqrt(d_in)
        w[:-1] = rng.uniform(-bound, bound, size=(d_in, d_out))
        return w

    expected = {"entity_emb": emb(world.n_entities),
                "relation_emb": emb(world.n_relations),
                "inter_w1": affine(2 * d, d),
                "inter_w2": affine(d, d)}
    expected["experts"] = np.hstack([affine(d, d) for _ in range(k)])  # expert by expert
    for task in ("joint", "req", "pref"):
        expected[f"gate_{task}"] = affine(d, k)
    named = params.named()
    assert list(named) == list(expected)
    for name, array in expected.items():
        assert named[name].data.tobytes() == array.tobytes(), name
    assert params.experts is named["experts"]
    assert params.gate_pref is named["gate_pref"]

    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(params, str(first))
    save_checkpoint(load_checkpoint(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture
def small_ckpt(tiny_kg, tmp_path):
    path = tmp_path / "small.ckpt"
    save_checkpoint(ModelParams.init(tiny_kg, d=2, k=1, gamma=1.0, seed=0), str(path))
    return path


def test_checkpoint_every_truncation_rejected(small_ckpt):
    blob = small_ckpt.read_bytes()
    for cut in range(len(blob)):
        small_ckpt.write_bytes(blob[:cut])
        with pytest.raises(ArtifactMismatchError):
            load_checkpoint(str(small_ckpt))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_checkpoint_loads_from_a_pipe(small_ckpt):
    """A pipe has no size to read ahead by: ``--checkpoint <(...)`` loads too."""
    r, w = os.pipe()
    with open(w, "wb") as f:
        f.write(small_ckpt.read_bytes())  # fits in the pipe's buffer
    try:
        loaded = load_checkpoint(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert loaded.params_hash() == load_checkpoint(str(small_ckpt)).params_hash()


def _with_header(header, body):
    return json.dumps(header).encode("utf-8") + b"\n" + body


def _transpose_inter_w1(header):
    arrays = [[name, shape[::-1] if name == "inter_w1" else shape]
              for name, shape in header["arrays"]]
    return {**header, "arrays": arrays}


CORRUPTIONS = {
    "appended byte": lambda h, body: _with_header(h, body + b"\0"),
    "nan": lambda h, body: _with_header(h, body[:-8] + np.float64(np.nan).tobytes()),
    "inf": lambda h, body: _with_header(h, np.float64(np.inf).tobytes() + body[8:]),
    "inter_w1 transposed": lambda h, body: _with_header(_transpose_inter_w1(h), body),
    "header d disagrees": lambda h, body: _with_header({**h, "d": h["d"] + 1}, body),
    "header lacks arrays": lambda h, body: _with_header(
        {key: v for key, v in h.items() if key != "arrays"}, body),
    "header lacks k": lambda h, body: _with_header(
        {key: v for key, v in h.items() if key != "k"}, body),
    "header not an object": lambda h, body: b"[]\n" + body,
    "header not JSON": lambda h, body: b"{not json\n" + body,
    "header not UTF-8": lambda h, body: b"\xff\xfe\n" + body,
    "header deeply nested": lambda h, body: b"[" * 100_000 + b"\n" + body,
    "gamma infinite": lambda h, body: _with_header({**h, "gamma": math.inf}, body),
    # the two-logit intersection's checkpoints, inter_w2 (d + 1, 2d)
    "format v1": lambda h, body: _with_header({**h, "format": "lqrec-checkpoint-v1"}, body),
    # k expert tensors expert_0 .. expert_{k-1}, each (d + 1, d)
    "format v2": lambda h, body: _with_header({**h, "format": "lqrec-checkpoint-v2"}, body),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checkpoint_corruption_rejected(small_ckpt, corruption):
    head, body = small_ckpt.read_bytes().split(b"\n", 1)
    load_checkpoint(str(small_ckpt))
    small_ckpt.write_bytes(CORRUPTIONS[corruption](json.loads(head), body))
    with pytest.raises(ArtifactMismatchError, match=re.escape(str(small_ckpt))):
        load_checkpoint(str(small_ckpt))


def test_embed_instance_full_pipeline(world, params):
    q = parse_query("(p tags (e attr1_2))", world)
    u = sorted(world.users)[0]
    tape = Tape()
    out = embed_instance(tape, params, [u], [q], world.like_rel, TASKS)
    assert set(out) == {TASK_JOINT, TASK_REQ, TASK_PREF}
    for t in out.values():
        assert t.data.shape == (1, 8)
        assert np.all(np.isfinite(t.data))
