"""Workload definitions: the seeded world, the dataset, and the work per phase.

Every workload runs the same five phases (setup, build, train, eval, answer)
on a ``synth.clustered_world`` with the criterion-5 per-cluster structure; the
catalog size and the share of the run each phase gets differ, so each
workload stresses a different layer. README.md records why each was chosen.

Work per phase is fixed for a given ``--seconds`` (it scales linearly from
the reference below), so counts such as ``answer.model.catalog_scores_calls``
and the trained model repeat exactly across runs of one seed. The reference
sizes take 35-55 s a run on a 2-vCPU x86-64 virtual machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from lqrec.query import ALL_SHAPES, BASIC_SHAPES

REFERENCE_SECONDS = 15

# Seeds 1-10 were used while sizing this benchmark; this one was not, so a
# later performance claim can be confirmed on inputs it was not tuned on.
HELD_OUT_SEED = 4242

SPLIT_FRACTION = 0.05

# The criterion-5 training configuration of tests/test_acceptance.py.
TRAIN_CONFIG = dict(d=32, k=3, gamma=5.0, lr=1e-2, batch_size=64, n_neg=16,
                    patience=None)

# Criterion-5 dataset cells without the validation split (training here runs
# without one): 250 train and 108 test records.
DATASET_COUNTS = {
    "train": {s: 50 for s in BASIC_SHAPES},
    "test": {s: 12 for s in ALL_SHAPES},
}

# A p99 needs at least ten samples beyond it.
MIN_ANSWER_LINES = 1000
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One round runs every phase once: set-up, a dataset build, one
    ``training.train`` call, ``evals_per_round`` evaluations and one REPL
    session. Rounds spread each phase's samples over the whole run, not one
    window of it. The sessions share out ``answer_lines`` distinct lines
    sent ``answer_passes`` times."""

    name: str
    n_clusters: int
    n_users: int
    rounds: int
    epochs_per_call: int
    evals_per_round: int
    answer_lines: int
    answer_passes: int

    def world_kwargs(self, seed: int) -> dict:
        """Criterion-5 clusters; the catalog grows by cluster count only,
        because larger clusters push 2p/3p/ip/up answer sets past
        ``answer_cap`` and those cells fall short."""
        return dict(n_clusters=self.n_clusters, attrs_per_cluster=8,
                    items_per_cluster=50, n_users=self.n_users,
                    tags_per_item=4, likes_per_user=12,
                    cross_cluster_noise=0.05, seed=seed)

    def scaled(self, seconds: int) -> "Workload":
        def scale(n: int, floor: int) -> int:
            return max(floor, round(n * seconds / REFERENCE_SECONDS))

        return replace(self, rounds=scale(self.rounds, MIN_ROUNDS),
                       answer_lines=scale(self.answer_lines, MIN_ANSWER_LINES))


WORKLOADS = {
    w.name: w
    for w in (
        # 250 items: training is bound by Python dispatch on the tape, so
        # most of the run trains.
        Workload("pipeline-250", n_clusters=5, n_users=80,
                 rounds=20, epochs_per_call=4, evals_per_round=4,
                 answer_lines=2000, answer_passes=5),
        # 10,000 items: the O(catalog) paths (negative sampling, catalog
        # scoring, backward sampling's user scans) dominate.
        Workload("pipeline-10k", n_clusters=200, n_users=3200,
                 rounds=4, epochs_per_call=1, evals_per_round=2,
                 answer_lines=1000, answer_passes=1),
    )
}
