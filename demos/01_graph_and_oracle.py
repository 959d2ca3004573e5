# Build a small knowledge graph, pose requirement queries in the
# s-expression syntax, and answer them exactly by traversal.
#
# The graph: attributes tag items, users like items. A requirement such as
# "items tagged by attr0_1 AND marked by attr0_2" is a 2i query; joint
# answering intersects it with what the user already likes.

import random

from lqrec import (
    DatasetConfig,
    QueryShape,
    answer_joint,
    answer_preference,
    answer_requirement,
    classify_shape,
    parse_query,
    serialize_query,
    split_edges,
)
from lqrec.dataset import sample_instance
from lqrec.oracle import TASK_JOINT
from lqrec.synth import clustered_world

kg = clustered_world(n_clusters=3, attrs_per_cluster=5, items_per_cluster=10,
                     n_users=12, seed=7)
print(f"graph: {kg.n_entities} entities, {kg.n_relations} relations, "
      f"{len(kg.triples)} triples, {len(kg.items)} items, {len(kg.users)} users")

names = kg.entity_vocab.name_of

for text in [
    "(p tags (e attr0_1))",
    "(and (p tags (e attr0_1)) (p marks (e attr0_2)))",
    "(or (p tags (e attr0_1)) (p tags (e attr1_0)))",
    "(p tags (p contains (e cat0)))",
]:
    q = parse_query(text, kg)
    answers = sorted(answer_requirement(kg, q))
    print(f"\n{serialize_query(q, kg)}")
    print(f"  shape: {classify_shape(q).value}")
    print(f"  answers ({len(answers)}): {[names(i) for i in answers[:8]]}"
          + (" ..." if len(answers) > 8 else ""))

user = sorted(kg.users)[0]
q = parse_query("(p tags (e attr0_1))", kg)
print(f"\nuser {names(user)} likes: "
      f"{sorted(names(i) for i in answer_preference(kg, user))}")
print(f"joint answers: {sorted(names(i) for i in answer_joint(kg, user, q))}")

# Holding out 5% of the edges makes some answers unreachable by traversal:
# those are the hard answers a learned model is evaluated on: the full-graph
# answers of each task minus those still reachable on the train graph. A test
# instance is resampled until its user has at least one hard joint answer.
split = split_edges(kg, 0.05, seed=1)
print(f"\nheld out {len(split.held_out)} of {len(kg.triples)} edges")
inst = sample_instance(split, QueryShape.ONE_P, "test", random.Random(1),
                       DatasetConfig(counts={}, seed=1))
print(f"user {names(inst.user)}, requirement {serialize_query(inst.requirement, kg)}")
print(f"  easy joint answers: {sorted(names(i) for i in inst.answers[TASK_JOINT])}")
print(f"  hard joint answers: {sorted(names(i) for i in inst.hard[TASK_JOINT])}")
