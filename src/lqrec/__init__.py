"""Logical-query recommendation over knowledge graphs.

Answers (user, logical requirement) queries two ways: exactly, by graph
traversal, and approximately, by learned query embeddings with a multi-task
knowledge-sharing head that exploits the requirement-only and
preference-only answer sets alongside the joint one. Includes the benchmark
construction pipeline (edge hold-out, backward query sampling, hard-answer
filtering) and ranking evaluation.

On glibc, importing the package pins two of the process's ``malloc``
thresholds (see ``_pin_malloc_thresholds``).
"""

import ctypes
import os

from .kg import KgSplit, KnowledgeGraph, Triple, load_graph, split_edges
from .query import QueryShape, classify_shape, parse_query, serialize_query
from .oracle import answer_joint, answer_preference, answer_requirement, record_answers
from .dataset import DatasetConfig, RecInstance, build_dataset, sample_requirement
from .model import ModelParams, load_checkpoint, save_checkpoint
from .training import TrainConfig, train
from .evaluation import EvalReport, evaluate

# glibc's mallopt parameter numbers (malloc.h) and the values pinned to them.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its dynamic mmap threshold (64-bit)
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio glibc keeps when it moves the threshold


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the values its dynamic rule
    reaches once a 32 MiB block has been freed, whatever the process did
    before. Left dynamic, a training step's arrays of hundreds of KB to a
    few MB are mmapped and unmapped on every step, or the heap top is
    trimmed and regrown: hundreds of minor faults a step, until some large
    free raises the thresholds; then the same step takes about two. No-op
    off glibc."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_pin_malloc_thresholds()

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
