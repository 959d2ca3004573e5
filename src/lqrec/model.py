"""Learnable query-embedding model with multi-task knowledge sharing.

Queries embed into the entity space: projections add the relation vector,
intersections mix their operands by a learned per-dimension sigmoid gate,
unions take the elementwise max. A joint query is the intersection (same
network) of the requirement embedding and the user-preference embedding. A
bank of k expert transforms of the joint embedding, mixed by per-task softmax
gates, produces the embedding of each task asked for (inference asks for the
joint task only); an item's logit for a task is margin - L1(task embedding,
item embedding), and its probability the sigmoid of that logit.

The forward pass always runs on a batch of (user, requirement) pairs; a lone
query is a batch of one. Requirements are grouped by skeleton (the query with
its anchor and relation ids erased; the two child orders of a shape are two
skeletons). Each group's queries are walked level by level on (B, d) tensors:
a projection is one gather plus one add, an intersection one ``intersect``
op, a union one max. One op, ``place_rows``, puts the group outputs at
their batch rows, and the preference, joint intersection, expert bank and
gates then run once over the whole batch. Training, evaluation and ``answer``
all embed through this one path: training runs it on a ``Tape``, inference on
``autodiff.EAGER``, which records nothing. Training takes the logits of its
sampled items by gathering their rows, one op per task (``score_items``);
inference ranks the whole catalog by probability from a ``Catalog``, a
column copy of the item table made once per ``evaluate`` call or ``answer``
session (``catalog_scores``), for one query (an ``answer`` line) or a block
of queries (``evaluate``'s records) per call. ``VARIANTS`` lists the full
model and its ablations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .artifacts import ArtifactMismatchError, atomic_write, parse_json
from .autodiff import Eager, OpShapeError, Tape, Tensor, Value, sigmoid
from .kg import KnowledgeGraph
from .oracle import TASK_JOINT, TASK_PREF, TASK_REQ, TASKS
from .query import Anchor, And, Project, QueryNode, skeleton

CHECKPOINT_FORMAT = "lqrec-checkpoint-v3"


def model_variant(name: str) -> str:
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {tuple(VARIANTS)}")
    return name


def param_shapes(d: int, k: int, n_entities: int, n_relations: int) -> dict[str, tuple[int, int]]:
    """Name and shape of every trainable tensor, in the order of the init
    draws, the checkpoint, the Adam state and ``params_hash``.

    Affine weights carry their bias as the last row. The intersection network
    maps the 2d concatenation of two operands through a d-wide relu layer to
    d gate logits, one per dimension. ``experts`` is the bank of k relu
    affines over the joint embedding, expert s in columns s*d to (s+1)*d;
    gates are softmax affines, one per task.
    """
    shapes = {
        "entity_emb": (n_entities, d),
        "relation_emb": (n_relations, d),
        "inter_w1": (2 * d + 1, d),
        "inter_w2": (d + 1, d),
        "experts": (d + 1, k * d),
    }
    for task in TASKS:
        shapes[f"gate_{task}"] = (d + 1, k)
    return shapes


def _affine_init(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Fan-in-scaled uniform weights with a zero bias row."""
    w = np.zeros(shape)
    bound = 1.0 / math.sqrt(shape[0] - 1)
    w[:-1] = rng.uniform(-bound, bound, size=(shape[0] - 1, shape[1]))
    return w


class ModelParams:
    """All learnable tensors (``param_shapes``) plus the margin hyperparameter.

    Each tensor is also an attribute of its name (``params.entity_emb``,
    ``params.gate_joint``); ``params.experts`` is the one tensor of all k
    experts, side by side.
    """

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        k: int,
        gamma: float,
        variant: str,
        seed: int,
        entity_vocab_hash: str = "",
        relation_vocab_hash: str = "",
    ):
        if not 0 < gamma < math.inf:
            raise ValueError(f"margin gamma must be positive and finite, is {gamma!r}")
        if k < 1:
            raise ValueError("need at least one expert")
        n_entities, d = np.shape(arrays["entity_emb"])
        n_relations, _ = np.shape(arrays["relation_emb"])
        spec = param_shapes(d, k, n_entities, n_relations)
        got = {name: np.shape(a) for name, a in arrays.items()}
        bad = {n: got.get(n) for n in spec.keys() | got.keys() if got.get(n) != spec.get(n)}
        if bad:
            raise ArtifactMismatchError(f"array shapes {bad} do not fit d={d}, k={k}")
        self._tensors = {name: Tensor(arrays[name]) for name in spec}
        vars(self).update(self._tensors)
        self.gamma = float(gamma)
        self.variant = model_variant(variant)
        self.seed = seed
        self.entity_vocab_hash = entity_vocab_hash
        self.relation_vocab_hash = relation_vocab_hash
        self.d = d
        self.k = k

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
        """Random initialization in ``param_shapes`` order: embeddings uniform
        in +-0.5/sqrt(d), affine weights fan-in-scaled uniform, ``experts``
        one (d + 1, d) expert after another. Deterministic in ``seed``."""
        rng = np.random.default_rng(seed)
        bound = 0.5 / math.sqrt(d)
        arrays = {
            name: (rng.uniform(-bound, bound, size=shape) if name.endswith("_emb")
                   else np.hstack([_affine_init(rng, (d + 1, d)) for _ in range(k)])
                   if name == "experts" else _affine_init(rng, shape))
            for name, shape in param_shapes(d, k, kg.n_entities, kg.n_relations).items()
        }
        return cls(
            arrays,
            k=k,
            gamma=gamma,
            variant=variant,
            seed=seed,
            entity_vocab_hash=kg.entity_vocab.content_hash(),
            relation_vocab_hash=kg.relation_vocab.content_hash(),
        )

    def named(self) -> dict[str, Tensor]:
        """Trainable tensors in ``param_shapes`` order."""
        return self._tensors

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
            raise ArtifactMismatchError(
                "checkpoint vocabulary hashes do not match the graph"
            )


# --- logical operators ------------------------------------------------------
#
# Every operator is written once over the last axis: the same code embeds a
# single (d,) operand or a (B, d) group. ``ex`` is the executor that runs the
# ops: a ``Tape`` for training, ``EAGER`` for inference.


def embed_projection(ex: Tape | Eager, params: ModelParams, base: Value, rel) -> Value:
    """Relation application is translation: base + relation vector.

    ``rel`` is one relation id for a (d,) base or B relation ids for a
    (B, d) base.
    """
    return ex.add(base, ex.gather(ex.param(params.relation_emb), rel))


def embed_intersection(ex: Tape | Eager, params: ModelParams, q1: Value, q2: Value) -> Value:
    """Per-dimension convex mix of the two operands: the gate ``w`` of
    ``Eager.intersect`` weighs ``q1`` and ``1 - w`` weighs ``q2``. With all-zero
    parameters ``w`` is exactly 0.5, so the output is the mean of the operands
    up to rounding."""
    return ex.intersect(ex.param(params.inter_w1), ex.param(params.inter_w2), q1, q2)


def embed_union(ex: Tape | Eager, q1: Value, q2: Value) -> Value:
    return ex.elementwise_max(q1, q2)


def _embed_group(ex: Tape | Eager, params: ModelParams, nodes: Sequence[QueryNode]) -> Value:
    """(B, d) embeddings of B queries of one skeleton, row b for ``nodes[b]``;
    each level reads its ids from the group's nodes at that level. n-ary
    nodes fold left over their child order."""
    q = nodes[0]
    if isinstance(q, Anchor):
        return ex.gather(ex.param(params.entity_emb), [n.entity for n in nodes])
    if isinstance(q, Project):
        base = _embed_group(ex, params, [n.child for n in nodes])
        return embed_projection(ex, params, base, [n.rel for n in nodes])
    children = [_embed_group(ex, params, level) for level in zip(*[n.children for n in nodes])]
    acc = children[0]
    for child in children[1:]:
        acc = (embed_intersection(ex, params, acc, child) if isinstance(q, And)
               else embed_union(ex, acc, child))
    return acc


def embed_requirement(
    ex: Tape | Eager, params: ModelParams, requirements: Sequence[QueryNode]
) -> Value:
    """(B, d) embeddings of B requirements, one walk per skeleton group; the
    group outputs are placed at their input rows."""
    groups: dict[tuple, list[int]] = {}
    for row, q in enumerate(requirements):
        groups.setdefault(skeleton(q), []).append(row)
    if not groups:
        raise ValueError("no requirements to embed")
    parts = [_embed_group(ex, params, [requirements[row] for row in rows])
             for rows in groups.values()]
    if len(parts) == 1:
        return parts[0]
    return ex.place_rows(parts, list(groups.values()))


def embed_user_preference(ex: Tape | Eager, params: ModelParams, users, like_rel: int) -> Value:
    """The preference is a one-hop query: user + interaction relation.

    ``users`` is one user id or a (B,) id column.
    """
    base = ex.gather(ex.param(params.entity_emb), users)
    return embed_projection(ex, params, base, np.full(np.shape(users), like_rel))


# --- multi-task head -------------------------------------------------------


def _expert_bank(ex: Tape | Eager, params: ModelParams, q: Value) -> Value:
    """The k experts' outputs for the joint embedding, side by side along
    the last axis: one relu affine through ``experts``, whose column blocks
    are the experts' weights."""
    return ex.relu(ex.affine(ex.param(params.experts), q))


def _gated_head(ex, params, q, q_l, q_u, tasks):
    """Each task's softmax gate reads that task's own query embedding and
    mixes the shared experts (MMoE); only the gates of ``tasks`` run."""
    stack = _expert_bank(ex, params, q)
    gates = (ex.param(getattr(params, f"gate_{task}")) for task in TASKS)
    return {task: ex.weighted_sum(ex.softmax_last_dim(ex.affine(gate, x)), stack)
            for task, gate, x in zip(TASKS, gates, (q, q_l, q_u)) if task in tasks}


def _uniform_head(ex, params, q, q_l, q_u, tasks):
    """The experts mixed uniformly into one representation for all tasks."""
    uniform = ex.const(np.full(q.shape[:-1] + (params.k,), 1.0 / params.k))
    return dict.fromkeys(tasks, ex.weighted_sum(uniform, _expert_bank(ex, params, q)))


def _no_head(ex, params, q, q_l, q_u, tasks):
    """The joint embedding as it is: plain base-model scoring, no other task."""
    if bad := [task for task in tasks if task != TASK_JOINT]:
        raise ValueError(f"variant {params.variant!r} has no {bad[0]!r} task")
    return dict.fromkeys(tasks, q)


class Variant(NamedTuple):
    """``head(ex, params, q, q_l, q_u, tasks)`` maps the joint, requirement and
    preference embeddings to the embeddings of ``tasks`` (names from ``TASKS``)
    only; ``trains`` names the tasks whose loss is trained."""

    head: Callable[..., dict[str, Value]]
    trains: tuple[str, ...]


# The full model, then the paper's ablations; no-al / no-au drop the req / pref loss.
VARIANTS: dict[str, Variant] = {
    "mtl": Variant(_gated_head, TASKS),
    "shared-bottom": Variant(_uniform_head, TASKS),
    "single-task": Variant(_no_head, (TASK_JOINT,)),
    "no-al": Variant(_gated_head, (TASK_JOINT, TASK_PREF)),
    "no-au": Variant(_gated_head, (TASK_JOINT, TASK_REQ)),
}


def embed_instance(
    ex: Tape | Eager,
    params: ModelParams,
    users: Sequence[int],
    requirements: Sequence[QueryNode],
    like_rel: int,
    tasks: Sequence[str],
) -> dict[str, Value]:
    """Forward pass for a batch of (user, requirement) pairs: the (B, d)
    embeddings of ``tasks``, row b for pair b. A lone query is a batch of one."""
    if len(users) != len(requirements):
        raise ValueError("one user per requirement")
    q_l = embed_requirement(ex, params, requirements)
    q_u = embed_user_preference(ex, params, np.asarray(users, dtype=np.int64),
                                like_rel)
    q = embed_intersection(ex, params, q_l, q_u)
    return VARIANTS[params.variant].head(ex, params, q, q_l, q_u, tasks)


# --- scoring ---------------------------------------------------------------


def score_items(ex: Tape | Eager, params: ModelParams, q_task: Value, ids) -> Value:
    """The logit gamma - L1 distance to each item embedding, as one op; its
    sigmoid is the item's probability.

    ``q_task`` (d,) with ids (m,) gives (m,); ``q_task`` (B, d) with ids
    (B, m) scores row b's items against ``q_task[b]``, shape (B, m).
    """
    return ex.gather_margin(ex.param(params.entity_emb), ids, q_task, params.gamma)


# Elements (512 KB) of the largest (B, d, n_items) difference array that
# ``catalog_scores`` forms in one go; past it, rows stream through a
# (B, n_items) accumulator instead of filling the per-core L2 cache.
SCORE_SCRATCH = 2**16


class Catalog:
    """The item table of one parameter state, laid out for ranking.

    ``ids`` holds the item ids (int64) in the order given and ``cols`` a
    (d, n_items) copy of their embeddings, one column per item. The copy
    does not follow later updates of ``params``: inference builds one per
    ``evaluate`` call or ``answer`` session.
    """

    def __init__(self, params: ModelParams, item_ids):
        self.ids = np.asarray(item_ids, dtype=np.int64)
        self.cols = np.ascontiguousarray(params.entity_emb.data[self.ids].T)
        self.gamma = params.gamma


def catalog_scores(catalog: Catalog, q_task: np.ndarray) -> np.ndarray:
    """The sigmoid of ``score_items``'s logits over the whole catalog: each
    item's probability, in catalog order. (n_items,) for one (d,) query,
    (B, n_items) for a (B, d) block of queries.

    The L1 distance adds the d rows of ``|cols - q|`` one after another,
    vectorised over items, instead of summing each item's row; the scores
    can therefore differ from the sigmoid of ``score_items`` in the last
    bits, while items with equal embeddings still get equal scores. When the
    (B, d, n_items) differences fit in ``SCORE_SCRATCH`` they are formed in
    one go; otherwise the rows stream through a (B, n_items) accumulator.
    Both add in the same order, so a query's scores have the same bytes for
    every B.
    A one-item catalog always goes in one go: numpy sums a single column
    pairwise, not row by row.
    """
    cols, q_task = catalog.cols, np.asarray(q_task)
    d, n_items = cols.shape
    if q_task.ndim not in (1, 2) or q_task.shape[-1] != d:
        raise OpShapeError("catalog_scores", cols.shape, q_task.shape)
    q = q_task.reshape(-1, d)
    if q.size * n_items <= SCORE_SCRATCH or n_items == 1:
        diff = cols - q[:, :, None]
        dist = np.abs(diff, out=diff).sum(axis=1)
    else:
        dist = np.abs(cols[0] - q[:, :1])
        diff = np.empty_like(dist)
        for j in range(1, d):
            np.subtract(cols[j], q[:, j, None], out=diff)
            dist += np.abs(diff, out=diff)
    del diff  # before the sigmoid's temporaries, each as large as dist
    scores = sigmoid(np.subtract(catalog.gamma, dist, out=dist))
    return scores.reshape(q_task.shape[:-1] + (n_items,))


# --- checkpoint i/o ----------------------------------------------------------
#
# One JSON header line (dims, margin, variant, seed, vocab hashes, array
# manifest) followed by the named arrays as raw little-endian float64 bytes.


def _header(params: ModelParams) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "d": params.d,
        "k": params.k,
        "gamma": params.gamma,
        "variant": params.variant,
        "seed": params.seed,
        "entity_vocab_hash": params.entity_vocab_hash,
        "relation_vocab_hash": params.relation_vocab_hash,
        "arrays": [[name, list(t.data.shape)] for name, t in params.named().items()],
    }


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Write through :func:`artifacts.atomic_write`, so an interrupted save leaves
    the previous file intact."""
    with atomic_write(path) as f:
        f.write(json.dumps(_header(params), sort_keys=True).encode("utf-8") + b"\n")
        for t in params.named().values():
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    """Read a ``save_checkpoint`` file; anything else (a header that is not
    UTF-8 JSON of that form, array names or shapes off ``param_shapes``, a
    wrong byte count, a non-finite value) raises ``ArtifactMismatchError``.
    The body is read into one buffer, and each array is a writable view of it.
    """
    with open(path, "rb") as f:
        head = f.readline()
        body = bytearray(max(os.fstat(f.fileno()).st_size - len(head), 0))
        del body[f.readinto(body):]
        body += f.read()  # what a pipe, or a file that grew, holds beyond its size
    header = parse_json(head, path)
    try:
        if header["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"format {header['format']!r} is not {CHECKPOINT_FORMAT!r}")
        arrays, offset = {}, 0
        for name, shape in header["arrays"]:  # [name, shape] pairs that fill the body
            n = math.prod(shape)
            arrays[name] = np.frombuffer(body, "<f8", n, offset).astype(
                np.float64, copy=False).reshape(shape)
            offset += 8 * n
        if offset != len(body):
            raise ValueError(f"{len(body) - offset} bytes after the last array")
        params = ModelParams(
            arrays,
            k=header["k"],
            gamma=header["gamma"],
            variant=header["variant"],
            seed=header["seed"],
            entity_vocab_hash=header["entity_vocab_hash"],
            relation_vocab_hash=header["relation_vocab_hash"],
        )
    except (ArtifactMismatchError, KeyError, TypeError, ValueError) as exc:
        # Whatever the header holds: missing fields, wrong value types or sizes.
        raise ArtifactMismatchError(f"{path}: not a valid checkpoint: {exc!r}") from None
    if _header(params) != header:
        raise ArtifactMismatchError(f"{path}: header does not describe its arrays")
    if not all(np.isfinite(t.data).all() for t in params.named().values()):
        raise ArtifactMismatchError(f"{path}: non-finite parameter values")
    return params
