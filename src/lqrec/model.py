"""Learnable query-embedding model with multi-task knowledge sharing.

Queries embed into the entity space: projections add the relation vector,
intersections mix their operands by a learned two-branch attention, unions
take the elementwise max. A joint query is the intersection (same network)
of the requirement embedding and the user-preference embedding. A bank of k
expert transforms of the joint embedding, mixed by per-task softmax gates,
produces one embedding per task; an item's probability for a task is
sigmoid(margin - L1(task embedding, item embedding)).

The forward pass always runs on a batch of (user, requirement) pairs; a lone
query is a batch of one. Requirements are grouped by skeleton (the query
with its anchor and relation ids erased; the two child orders of a shape
are two skeletons). Each group's ids become (B,) columns and go through one
recursion on (B, d) tensors: a projection is one gather plus one add, an
intersection one attention network on (B, 2d), a union one max. The group
outputs return to batch order, and the preference, joint intersection,
expert bank and gates then run once over the whole batch. Training,
evaluation and ``answer`` all embed through this one path; inference uses a
non-recording tape.

Variants:
  mtl            experts + per-task gates (the full model)
  shared-bottom  experts mixed uniformly into one shared representation
  single-task    no experts/gates, joint task only
  no-al / no-au  full model with the requirement / preference loss dropped
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence

import numpy as np

from .autodiff import Tape, Tensor, stable_sigmoid
from .dataset import TASK_JOINT, TASK_PREF, TASK_REQ
from .kg import KnowledgeGraph
from .query import And, Anchor, Or, Project, QueryNode

VARIANTS = ("mtl", "shared-bottom", "single-task", "no-al", "no-au")

CHECKPOINT_FORMAT = "lqrec-checkpoint-v1"


class CheckpointMismatchError(RuntimeError):
    """Checkpoint and graph vocabularies disagree."""


def model_variant(name: str) -> str:
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {VARIANTS}")
    return name


def _affine_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """Fan-in-scaled uniform weights with a zero bias row."""
    w = np.zeros((d_in + 1, d_out))
    bound = 1.0 / math.sqrt(d_in)
    w[:-1] = rng.uniform(-bound, bound, size=(d_in, d_out))
    return w


class ModelParams:
    """All learnable tensors plus the margin hyperparameter.

    The intersection network maps the 2d concatenation of two operands
    through a d-wide relu layer to 2d logits, split into the two per-branch
    attention vectors. Experts are (d+1, d) relu affines over the joint
    embedding; gates are (d+1, k) softmax affines, one per task.
    """

    def __init__(
        self,
        entity_emb: Tensor,
        relation_emb: Tensor,
        inter_w1: Tensor,
        inter_w2: Tensor,
        experts: list[Tensor],
        gate_joint: Tensor,
        gate_req: Tensor,
        gate_pref: Tensor,
        gamma: float,
        variant: str,
        seed: int,
        entity_vocab_hash: str = "",
        relation_vocab_hash: str = "",
    ):
        if gamma <= 0:
            raise ValueError("margin gamma must be positive")
        self.entity_emb = entity_emb
        self.relation_emb = relation_emb
        self.inter_w1 = inter_w1
        self.inter_w2 = inter_w2
        self.experts = experts
        self.gate_joint = gate_joint
        self.gate_req = gate_req
        self.gate_pref = gate_pref
        self.gamma = float(gamma)
        self.variant = model_variant(variant)
        self.seed = seed
        self.entity_vocab_hash = entity_vocab_hash
        self.relation_vocab_hash = relation_vocab_hash
        self.d = entity_emb.data.shape[1]
        self.k = len(experts)

    @classmethod
    def init(
        cls,
        kg: KnowledgeGraph,
        d: int,
        k: int,
        gamma: float,
        seed: int,
        variant: str = "mtl",
    ) -> "ModelParams":
        """Random initialization: embeddings uniform in +-0.5/sqrt(d), affine
        weights fan-in-scaled uniform. Deterministic in ``seed``."""
        if k < 1:
            raise ValueError("need at least one expert")
        rng = np.random.default_rng(seed)
        bound = 0.5 / math.sqrt(d)

        def emb(n):
            return rng.uniform(-bound, bound, size=(n, d))

        return cls(
            entity_emb=Tensor(emb(kg.n_entities), requires_grad=True, name="entity_emb"),
            relation_emb=Tensor(
                emb(kg.n_relations), requires_grad=True, name="relation_emb"
            ),
            inter_w1=Tensor(_affine_init(rng, 2 * d, d), requires_grad=True,
                            name="inter_w1"),
            inter_w2=Tensor(_affine_init(rng, d, 2 * d), requires_grad=True,
                            name="inter_w2"),
            experts=[
                Tensor(_affine_init(rng, d, d), requires_grad=True, name=f"expert_{s}")
                for s in range(k)
            ],
            gate_joint=Tensor(_affine_init(rng, d, k), requires_grad=True,
                              name="gate_joint"),
            gate_req=Tensor(_affine_init(rng, d, k), requires_grad=True,
                            name="gate_req"),
            gate_pref=Tensor(_affine_init(rng, d, k), requires_grad=True,
                             name="gate_pref"),
            gamma=gamma,
            variant=variant,
            seed=seed,
            entity_vocab_hash=kg.entity_vocab.content_hash(),
            relation_vocab_hash=kg.relation_vocab.content_hash(),
        )

    def named(self) -> dict[str, Tensor]:
        """Trainable tensors in a fixed order (checkpoint and Adam layout)."""
        out = {
            "entity_emb": self.entity_emb,
            "relation_emb": self.relation_emb,
            "inter_w1": self.inter_w1,
            "inter_w2": self.inter_w2,
        }
        for s, e in enumerate(self.experts):
            out[f"expert_{s}"] = e
        out["gate_joint"] = self.gate_joint
        out["gate_req"] = self.gate_req
        out["gate_pref"] = self.gate_pref
        return out

    def zero_grads(self) -> None:
        for t in self.named().values():
            t.zero_grad()

    def params_hash(self) -> str:
        h = hashlib.sha256()
        for name, t in self.named().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()

    def validate_against(self, kg: KnowledgeGraph) -> None:
        if (
            self.entity_vocab_hash != kg.entity_vocab.content_hash()
            or self.relation_vocab_hash != kg.relation_vocab.content_hash()
        ):
            raise CheckpointMismatchError(
                "checkpoint vocabulary hashes do not match the graph"
            )


# --- logical operators ------------------------------------------------------
#
# Every operator is written once over the last axis: the same code embeds a
# single (d,) operand or a (B, d) group.


def embed_projection(tape: Tape, params: ModelParams, base: Tensor, rel) -> Tensor:
    """Relation application is translation: base + relation vector.

    ``rel`` is one relation id for a (d,) base or a (B,) id column for a
    (B, d) base.
    """
    return tape.add(base, tape.gather(params.relation_emb, rel))


def embed_intersection(tape: Tape, params: ModelParams, q1: Tensor, q2: Tensor) -> Tensor:
    """Attention-weighted mix of the two operands.

    The attention network produces one logit vector per operand; weights are
    normalized per dimension across the two branches (a two-way softmax,
    computed as sigmoids of the logit difference), so the output is a
    per-dimension convex combination of the operands. With all-zero
    parameters the weights are exactly 0.5/0.5.
    """
    x = tape.concat_last_dim(q1, q2)
    hidden = tape.relu(tape.affine(params.inter_w1, x))
    logits = tape.affine(params.inter_w2, hidden)
    l1, l2 = tape.split_halves(logits)
    w1 = tape.sigmoid(tape.sub(l1, l2))
    w2 = tape.sigmoid(tape.sub(l2, l1))
    return tape.add(tape.elementwise_mul(w1, q1), tape.elementwise_mul(w2, q2))


def embed_union(tape: Tape, q1: Tensor, q2: Tensor) -> Tensor:
    return tape.elementwise_max(q1, q2)


def _skeleton(q: QueryNode, ids: list[int]) -> tuple:
    """The query's structure with its ids erased; appends the anchor and
    relation ids to ``ids`` in the order ``_embed_skeleton`` consumes them.

    Children keep their order, so the two child orders of a shape are two
    skeletons.
    """
    if isinstance(q, Anchor):
        ids.append(q.entity)
        return ("e",)
    if isinstance(q, Project):
        child = _skeleton(q.child, ids)
        ids.append(q.rel)
        return ("p", child)
    if isinstance(q, (And, Or)):
        kind = "and" if isinstance(q, And) else "or"
        return (kind, tuple(_skeleton(c, ids) for c in q.children))
    raise TypeError(f"not a query node: {q!r}")


def _embed_skeleton(tape: Tape, params: ModelParams, skel: tuple, columns) -> Tensor:
    """(B, d) embeddings of one skeleton group; ``columns`` yields the
    group's (B,) id columns in ``_skeleton`` order. n-ary nodes fold left
    over their child order."""
    kind = skel[0]
    if kind == "e":
        return tape.gather(params.entity_emb, next(columns))
    if kind == "p":
        base = _embed_skeleton(tape, params, skel[1], columns)
        return embed_projection(tape, params, base, next(columns))
    children = [_embed_skeleton(tape, params, c, columns) for c in skel[1]]
    acc = children[0]
    for child in children[1:]:
        acc = (embed_intersection(tape, params, acc, child) if kind == "and"
               else embed_union(tape, acc, child))
    return acc


def embed_requirement(
    tape: Tape, params: ModelParams, requirements: Sequence[QueryNode]
) -> Tensor:
    """(B, d) embeddings of B requirements, one recursion per skeleton group.

    Each group's anchor and relation ids are gathered as (B_g,) columns, and
    the group outputs are put back into input order.
    """
    groups: dict[tuple, tuple[list[int], list[list[int]]]] = {}
    for row, q in enumerate(requirements):
        ids: list[int] = []
        rows, id_rows = groups.setdefault(_skeleton(q, ids), ([], []))
        rows.append(row)
        id_rows.append(ids)
    if not groups:
        raise ValueError("no requirements to embed")
    parts, order = [], []
    for skel, (rows, id_rows) in groups.items():
        columns = iter(np.array(id_rows, dtype=np.int64).T)
        parts.append(_embed_skeleton(tape, params, skel, columns))
        order.extend(rows)
    if len(parts) == 1:
        return parts[0]
    return tape.gather(tape.stack_rows(parts), np.argsort(order))


def embed_user_preference(tape: Tape, params: ModelParams, users, like_rel: int) -> Tensor:
    """The preference is a one-hop query: user + interaction relation.

    ``users`` is one user id or a (B,) id column.
    """
    base = tape.gather(params.entity_emb, users)
    return embed_projection(tape, params, base, np.full(np.shape(users), like_rel))


def embed_joint(tape: Tape, params: ModelParams, q_l: Tensor, q_u: Tensor) -> Tensor:
    """Requirement x preference intersection; shares the intersection net."""
    return embed_intersection(tape, params, q_l, q_u)


# --- multi-task head -------------------------------------------------------


def mtl_transform(
    tape: Tape, params: ModelParams, q: Tensor, q_l: Tensor, q_u: Tensor
) -> dict[str, Tensor]:
    """Task embeddings from the expert bank.

    Experts consume only the joint embedding; each task's gate consumes that
    task's own query embedding and mixes the shared expert outputs, which sit
    side by side along the last axis. The single-task variant bypasses the
    head entirely (plain base-model scoring); shared-bottom mixes experts
    uniformly into one representation for all tasks.
    """
    if params.variant == "single-task":
        return {TASK_JOINT: q}
    stack = tape.concat_last_dim(
        *[tape.relu(tape.affine(theta, q)) for theta in params.experts]
    )
    if params.variant == "shared-bottom":
        uniform = Tensor(np.full(q.shape[:-1] + (params.k,), 1.0 / params.k))
        shared = tape.weighted_sum(uniform, stack)
        return {TASK_JOINT: shared, TASK_REQ: shared, TASK_PREF: shared}
    gates = (
        (TASK_JOINT, params.gate_joint, q),
        (TASK_REQ, params.gate_req, q_l),
        (TASK_PREF, params.gate_pref, q_u),
    )
    out = {}
    for task, gate, gate_input in gates:
        weights = tape.softmax_last_dim(tape.affine(gate, gate_input))
        out[task] = tape.weighted_sum(weights, stack)
    return out


def embed_instance(
    tape: Tape,
    params: ModelParams,
    users: Sequence[int],
    requirements: Sequence[QueryNode],
    like_rel: int,
) -> dict[str, Tensor]:
    """Full forward pass for a batch of (user, requirement) pairs: per-task
    (B, d) embeddings, row b for pair b. A lone query is a batch of one."""
    if len(users) != len(requirements):
        raise ValueError("one user per requirement")
    q_l = embed_requirement(tape, params, requirements)
    q_u = embed_user_preference(tape, params, np.asarray(users, dtype=np.int64),
                                like_rel)
    q = embed_joint(tape, params, q_l, q_u)
    return mtl_transform(tape, params, q, q_l, q_u)


# --- scoring ---------------------------------------------------------------


def score_items(tape: Tape, params: ModelParams, q_task: Tensor, ids) -> Tensor:
    """sigmoid(gamma - L1 distance to each item embedding), in (0, 1).

    ``q_task`` (d,) with ids (m,) gives (m,); ``q_task`` (B, d) with ids
    (B, m) scores row b's items against ``q_task[b]``, shape (B, m).
    """
    dist = tape.gather_l1(params.entity_emb, ids, q_task)
    return tape.sigmoid(tape.scale_shift(dist, -1.0, params.gamma))


def catalog_scores(
    params: ModelParams, q_task: np.ndarray, item_ids: np.ndarray
) -> np.ndarray:
    """Inference-only scores of one query over an item catalog (no tape)."""
    dist = np.abs(params.entity_emb.data[item_ids] - q_task).sum(axis=1)
    return stable_sigmoid(params.gamma - dist)


# --- checkpoint i/o ----------------------------------------------------------
#
# One JSON header line (dims, margin, variant, seed, vocab hashes, array
# manifest) followed by the named arrays as raw little-endian float64 bytes.


def save_checkpoint(params: ModelParams, path: str) -> None:
    named = params.named()
    header = {
        "format": CHECKPOINT_FORMAT,
        "d": params.d,
        "k": params.k,
        "gamma": params.gamma,
        "variant": params.variant,
        "seed": params.seed,
        "entity_vocab_hash": params.entity_vocab_hash,
        "relation_vocab_hash": params.relation_vocab_hash,
        "arrays": [[name, list(t.data.shape)] for name, t in named.items()],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, t in named.items():
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointMismatchError(f"{path}: not a known checkpoint format")
        arrays = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * 8)
            if len(buf) != count * 8:
                raise CheckpointMismatchError(f"{path}: truncated array {name}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").astype(
                np.float64
            ).reshape(shape)
    k = header["k"]
    try:
        return ModelParams(
            entity_emb=Tensor(arrays["entity_emb"], requires_grad=True,
                              name="entity_emb"),
            relation_emb=Tensor(arrays["relation_emb"], requires_grad=True,
                                name="relation_emb"),
            inter_w1=Tensor(arrays["inter_w1"], requires_grad=True, name="inter_w1"),
            inter_w2=Tensor(arrays["inter_w2"], requires_grad=True, name="inter_w2"),
            experts=[
                Tensor(arrays[f"expert_{s}"], requires_grad=True, name=f"expert_{s}")
                for s in range(k)
            ],
            gate_joint=Tensor(arrays["gate_joint"], requires_grad=True,
                              name="gate_joint"),
            gate_req=Tensor(arrays["gate_req"], requires_grad=True, name="gate_req"),
            gate_pref=Tensor(arrays["gate_pref"], requires_grad=True,
                             name="gate_pref"),
            gamma=header["gamma"],
            variant=header["variant"],
            seed=header["seed"],
            entity_vocab_hash=header["entity_vocab_hash"],
            relation_vocab_hash=header["relation_vocab_hash"],
        )
    except KeyError as exc:
        raise CheckpointMismatchError(f"{path}: missing array {exc}") from None
