"""Logical-query recommendation over knowledge graphs.

Answers (user, logical requirement) queries two ways: exactly, by graph
traversal, and approximately, by learned query embeddings with a multi-task
knowledge-sharing head that exploits the requirement-only and
preference-only answer sets alongside the joint one. Includes the benchmark
construction pipeline (edge hold-out, backward query sampling, hard-answer
filtering) and ranking evaluation.
"""

from .kg import KgSplit, KnowledgeGraph, Triple, load_graph, split_edges
from .query import QueryShape, classify_shape, parse_query, serialize_query
from .oracle import answer_joint, answer_preference, answer_requirement, record_answers
from .dataset import DatasetConfig, RecInstance, build_dataset, sample_requirement
from .model import ModelParams, load_checkpoint, save_checkpoint
from .training import TrainConfig, train
from .evaluation import EvalReport, evaluate

__version__ = "0.1.0"

__all__ = [
    "DatasetConfig",
    "EvalReport",
    "KgSplit",
    "KnowledgeGraph",
    "ModelParams",
    "QueryShape",
    "RecInstance",
    "TrainConfig",
    "Triple",
    "answer_joint",
    "answer_preference",
    "answer_requirement",
    "build_dataset",
    "classify_shape",
    "evaluate",
    "load_checkpoint",
    "load_graph",
    "parse_query",
    "record_answers",
    "sample_requirement",
    "save_checkpoint",
    "serialize_query",
    "split_edges",
    "train",
]
