"""The five phases a workload runs, each timed from outside the package and
checked for correct outputs.

Every phase calls lqrec through module attributes (``dataset.build_dataset``,
``cli.main``) so that a traced run sees the same calls. Each call adds its
timings to a ``PhaseResult`` with the number of operations it attempted
and the number that failed; a failed operation is an answer line that prints
``error:``, raises or disagrees with the oracle, a requested record that was
not emitted or that ``verify_dataset`` rejects, an evaluation whose per-shape
counts differ from the test set, or a training call that diverged.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import re
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from lqrec import cli, dataset, evaluation, kg, model, oracle, synth, training
from lqrec.query import ALL_SHAPES, serialize_query

from workloads import DATASET_COUNTS, SPLIT_FRACTION, TRAIN_CONFIG, Workload

TOP_N = 10  # the REPL prints an embedding top-10


@dataclass
class PhaseResult:
    seconds: list[float] = field(default_factory=list)  # per repetition or line
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


# --- driving the REPL --------------------------------------------------------


class TimedLines:
    """stdin for the ``answer`` REPL: stamps every read and where the output
    stood at that moment, so the work of line i lies between reads i and i+1."""

    def __init__(self, lines: list[str], out: io.StringIO):
        self.lines = lines
        self.out = out
        self.reads: list[float] = []
        self.marks: list[int] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        self.reads.append(time.perf_counter())
        self.marks.append(self.out.tell())
        i = len(self.reads) - 1
        if i < len(self.lines):
            return self.lines[i] + "\n"
        raise StopIteration


@dataclass
class Session:
    source: TimedLines
    output: str
    exit_code: int | None
    crash: str | None


def run_answer_session(split_dir: str, ckpt: str, lines: list[str]) -> Session:
    out = io.StringIO()
    source = TimedLines(lines, out)
    saved_stdin = sys.stdin
    sys.stdin = source
    exit_code, crash = None, None
    try:
        with redirect_stdout(out):
            exit_code = cli.main(["answer", "--kg", split_dir, "--checkpoint", ckpt,
                                  "--mode", "both"])
    except Exception as exc:  # an uncaught error in the REPL is a failed line
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return Session(source, out.getvalue(), exit_code, crash)


def new_model(seed: int, train_graph: kg.KnowledgeGraph) -> model.ModelParams:
    return model.ModelParams.init(train_graph, d=TRAIN_CONFIG["d"],
                                  k=TRAIN_CONFIG["k"], gamma=TRAIN_CONFIG["gamma"],
                                  seed=seed)


# --- setup -------------------------------------------------------------------


@dataclass
class World:
    split: kg.KgSplit
    split_dir: str
    ckpt: str


def setup(wl: Workload, seed: int, work_dir: str, res: PhaseResult) -> World:
    """World generation, edge split, the split written and reloaded as every
    CLI command reloads it, a seeded untrained checkpoint on disk, and REPL
    start-up (``load_split`` + ``load_checkpoint``, up to its first stdin
    read). Every round repeats it and gets the same bytes."""
    split_dir = os.path.join(work_dir, "split")
    ckpt = os.path.join(work_dir, "model.ckpt")
    t0 = time.perf_counter()
    world = synth.clustered_world(**wl.world_kwargs(seed))
    kg.save_split(kg.split_edges(world, SPLIT_FRACTION, seed), split_dir)
    split = kg.load_split(split_dir)
    model.save_checkpoint(new_model(seed, split.train), ckpt)
    session = run_answer_session(split_dir, ckpt, [])
    res.attempted += 1
    if session.crash or session.exit_code != 0 or not session.source.reads:
        res.fail(1, f"REPL did not start: exit {session.exit_code}, {session.crash}")
    else:
        res.seconds.append(session.source.reads[0] - t0)
    return World(split, split_dir, ckpt)


# --- build, train, eval: one repetition per call --------------------------------


def _dataset_hash(out_dir: str) -> str:
    h = hashlib.sha256()
    for fname in sorted(os.listdir(out_dir)):
        h.update(fname.encode() + b"\0")
        with open(os.path.join(out_dir, fname), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@dataclass
class Built:
    datasets: dict
    records: int
    fingerprint: str  # sha256 of the files written


def build(seed: int, round_: int, world: World, work_dir: str,
          res: PhaseResult) -> Built:
    """``build_dataset`` + ``write_dataset`` + ``verify_dataset``, the work of
    ``lqrec build-dataset``. Each round draws a dataset of its own, so the
    build rate averages over that many datasets' sampling luck."""
    cfg = dataset.DatasetConfig(counts=DATASET_COUNTS, seed=seed * 1000 + round_)
    requested = sum(sum(cells.values()) for cells in DATASET_COUNTS.values())
    out_dir = os.path.join(work_dir, "dataset")
    t0 = time.perf_counter()
    datasets, report = dataset.build_dataset(world.split, cfg)
    dataset.write_dataset(datasets, report, world.split.full, out_dir)
    violations = dataset.verify_dataset(world.split, out_dir)
    res.seconds.append(time.perf_counter() - t0)

    emitted = sum(len(v) for v in datasets.values())
    res.attempted += requested
    if emitted < requested:
        res.fail(requested - emitted, f"build shortfall: {report.shortfalls}")
    if violations:
        res.fail(len(violations), f"verify_dataset: {violations[:3]}")
    return Built(datasets, emitted, _dataset_hash(out_dir))


def train(wl: Workload, seed: int, round_: int, world: World, built: Built,
          params: model.ModelParams, res: PhaseResult) -> None:
    """One ``training.train`` call of ``epochs_per_call`` epochs without a
    validation set, continuing from the parameters of the previous call."""
    cfg = training.TrainConfig(**TRAIN_CONFIG, epochs=wl.epochs_per_call,
                               seed=seed * 1000 + round_)
    res.attempted += 1
    t0 = time.perf_counter()
    try:
        training.train(built.datasets["train"], params, world.split.train, cfg)
    except training.TrainingDivergedError as exc:
        res.fail(1, f"training diverged: {exc}")
        return
    res.seconds.append(time.perf_counter() - t0)


def evaluate(world: World, built: Built, params, res: PhaseResult) -> float:
    """``evaluation.evaluate`` on the test split, target ``hard``; returns
    the average hit@20."""
    test = built.datasets["test"]
    t0 = time.perf_counter()
    report = evaluation.evaluate(test, params, world.split.train, ks=(10, 20),
                                 target="hard")
    res.seconds.append(time.perf_counter() - t0)
    res.attempted += len(test)
    expected = Counter(inst.shape.value for inst in test)
    got = Counter(report.counts)
    wrong = sum(((got - expected) + (expected - got)).values())
    if wrong:
        res.fail(wrong, f"eval counts {dict(got)} != test set {dict(expected)}")
    return report.averages["hit@20"]


# --- answer --------------------------------------------------------------------


@dataclass
class AnswerLine:
    text: str
    expected: frozenset[str]  # symbolic answer names on the train graph


def answer_lines(wl: Workload, seed: int, world: World) -> list[AnswerLine]:
    """``sample_requirement`` draws round-robin over the nine shapes, each
    with a uniform user, plus their oracle answers; made before timing."""
    g = world.split.train
    rng = random.Random(f"{seed}:answer")
    users = sorted(g.users)
    name = g.entity_vocab.name_of
    lines = []
    for i in range(wl.answer_lines):
        shape = ALL_SHAPES[i % len(ALL_SHAPES)]
        while True:
            try:
                q = dataset.sample_requirement(g, shape, rng)
                break
            except dataset.SamplingError:
                continue
        user = users[rng.randrange(len(users))]
        expected = frozenset(name(e) for e in oracle.answer_joint(g, user, q))
        lines.append(AnswerLine(f"user {name(user)} | {serialize_query(q, g)}",
                                expected))
    return lines


_SYMBOLIC = re.compile(r"symbolic \((\d+)\): (.*)")


def _check_output(text: str, line: AnswerLine, items: frozenset[str]) -> str | None:
    """Why the REPL output for one line is wrong, or None when it is right."""
    rows = text.splitlines()
    if any(r.startswith("error:") for r in rows):
        return f"{line.text!r}: {text.strip()}"
    if len(rows) != 2 + TOP_N or rows[1] != f"embedding top-{TOP_N}:":
        return f"{line.text!r}: unexpected output {rows[:3]}"
    m = _SYMBOLIC.fullmatch(rows[0])
    names = set() if m is None or m.group(2) == "(none)" else set(m.group(2).split())
    if m is None or names != line.expected or int(m.group(1)) != len(names):
        return f"{line.text!r}: symbolic set differs from oracle.answer_joint"
    top = [r.split() for r in rows[2:]]
    scores = [float(s) for _, s in top]
    if (len({n for n, _ in top}) != TOP_N or not {n for n, _ in top} <= items
            or any(a < b for a, b in zip(scores, scores[1:]))):
        return f"{line.text!r}: top-{TOP_N} is not {TOP_N} catalog items by score"
    return None


def answer(world: World, lines: list[AnswerLine], res: PhaseResult) -> None:
    """One closed-loop client on ``lqrec answer --mode both``: the latency of
    line i is the gap between stdin reads i and i+1."""
    session = run_answer_session(world.split_dir, world.ckpt,
                                 [line.text for line in lines])
    reads, marks = session.source.reads, session.source.marks
    g = world.split.train
    items = frozenset(g.entity_vocab.name_of(e) for e in g.items)
    res.attempted += len(lines)
    done = max(0, min(len(lines), len(reads) - 1))
    for i in range(done):
        problem = _check_output(session.output[marks[i]:marks[i + 1]], lines[i],
                                items)
        if problem:
            res.fail(1, problem)
        else:
            res.seconds.append(reads[i + 1] - reads[i])
    if done < len(lines) or session.crash or session.exit_code != 0:
        res.fail(max(1, len(lines) - done), f"REPL stopped after {done} lines: "
                 f"exit {session.exit_code}, {session.crash}")
