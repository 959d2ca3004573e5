import math

import numpy as np
import pytest

from lqrec.autodiff import Tape, Tensor, backward
from lqrec.dataset import TASK_JOINT, TASK_PREF, TASK_REQ
from lqrec.kg import graph_from_names
from lqrec.model import (
    CheckpointMismatchError,
    ModelParams,
    catalog_scores,
    embed_instance,
    embed_intersection,
    embed_joint,
    embed_projection,
    embed_requirement,
    embed_union,
    embed_user_preference,
    load_checkpoint,
    model_variant,
    mtl_transform,
    save_checkpoint,
    score_items,
)
from lqrec.query import parse_query


@pytest.fixture
def params(world):
    return ModelParams.init(world, d=8, k=4, gamma=2.0, seed=0)


def make_vec(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def test_variant_validation():
    assert model_variant("mtl") == "mtl"
    with pytest.raises(ValueError):
        model_variant("bogus")


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
    rng = np.random.default_rng(4)
    tape = Tape()
    for _ in range(20):
        q1 = make_vec(rng.standard_normal(8))
        q2 = make_vec(rng.standard_normal(8))
        x = tape.concat_last_dim(q1, q2)
        hidden = tape.relu(tape.affine(params.inter_w1, x))
        logits = tape.affine(params.inter_w2, hidden)
        l1, l2 = tape.split_halves(logits)
        w1 = tape.sigmoid(tape.sub(l1, l2))
        w2 = tape.sigmoid(tape.sub(l2, l1))
        np.testing.assert_allclose(w1.data + w2.data, np.ones(8), atol=1e-12)


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


def test_joint_uses_same_network(params):
    rng = np.random.default_rng(3)
    q_l = make_vec(rng.standard_normal(8))
    q_u = make_vec(rng.standard_normal(8))
    t1, t2 = Tape(), Tape()
    joint = embed_joint(t1, params, q_l, q_u)
    inter = embed_intersection(t2, params, q_l, q_u)
    np.testing.assert_array_equal(joint.data, inter.data)


def test_mtl_single_expert_gates_trivial(world):
    p = ModelParams.init(world, d=8, k=1, gamma=2.0, seed=1)
    rng = np.random.default_rng(0)
    q = make_vec(rng.standard_normal(8))
    q_l = make_vec(rng.standard_normal(8))
    q_u = make_vec(rng.standard_normal(8))
    tape = Tape()
    out = mtl_transform(tape, p, q, q_l, q_u)
    expert = tape.relu(tape.affine(p.experts[0], q))
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
    out = mtl_transform(tape, p, make_vec(rng.standard_normal(8)),
                        make_vec(rng.standard_normal(8)),
                        make_vec(rng.standard_normal(8)))
    assert out[TASK_JOINT] is out[TASK_REQ] is out[TASK_PREF]


def test_single_task_skips_head(world):
    p = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=2,
                         variant="single-task")
    rng = np.random.default_rng(1)
    q = make_vec(rng.standard_normal(8))
    tape = Tape()
    out = mtl_transform(tape, p, q, q, q)
    assert list(out) == [TASK_JOINT]
    assert out[TASK_JOINT] is q
    assert not tape.nodes  # no experts or gates evaluated


def test_full_mtl_distinct_task_embeddings(world):
    p = ModelParams.init(world, d=8, k=3, gamma=2.0, seed=3)
    rng = np.random.default_rng(2)
    tape = Tape()
    out = mtl_transform(tape, p, make_vec(rng.standard_normal(8)),
                        make_vec(rng.standard_normal(8)),
                        make_vec(rng.standard_normal(8)))
    assert not np.array_equal(out[TASK_JOINT].data, out[TASK_REQ].data)
    assert not np.array_equal(out[TASK_JOINT].data, out[TASK_PREF].data)


def test_score_closed_forms(world):
    p = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=4)
    item = sorted(world.items)[0]
    # distance exactly 2 -> sigma(0) = 0.5
    q = Tensor(p.entity_emb.data[item] + np.array([2.0] + [0.0] * 7))
    tape = Tape()
    assert float(score_items(tape, p, q, [item]).data[0]) == pytest.approx(
        0.5, abs=1e-12)
    # zero distance -> sigma(gamma) = sigma(2)
    q0 = Tensor(p.entity_emb.data[item].copy())
    s = float(score_items(tape, p, q0, [item]).data[0])
    assert s == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
    assert s == pytest.approx(0.8808, abs=1e-4)


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
    scores = catalog_scores(params, rng.standard_normal(8), np.asarray(ids))
    assert np.all(scores > 0) and np.all(scores < 1)


def test_margin_shift_preserves_ranking(world):
    ids = np.asarray(world.sorted_items())
    rng = np.random.default_rng(6)
    q = rng.standard_normal(8)
    p1 = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=4)
    p2 = ModelParams.init(world, d=8, k=2, gamma=9.5, seed=4)
    s1 = catalog_scores(p1, q, ids)
    s2 = catalog_scores(p2, q, ids)
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
    out = tape.reduce_sum(score_items(tape, p, Tensor(q_data), [item]))
    p.zero_grads()
    backward(tape, out)
    grad = p.entity_emb.grad[item]
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


def test_checkpoint_vocab_mismatch(tmp_path, world):
    params = ModelParams.init(world, d=4, k=2, gamma=1.0, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    other = graph_from_names(
        [("a", "r", "b"), ("u", "likes", "b")], ["b"], ["u"], "likes"
    )
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path)).validate_against(other)


def test_embed_instance_full_pipeline(world, params):
    q = parse_query("(p tags (e attr1_2))", world)
    u = sorted(world.users)[0]
    tape = Tape()
    out = embed_instance(tape, params, [u], [q], world.like_rel)
    assert set(out) == {TASK_JOINT, TASK_REQ, TASK_PREF}
    for t in out.values():
        assert t.data.shape == (1, 8)
        assert np.all(np.isfinite(t.data))
