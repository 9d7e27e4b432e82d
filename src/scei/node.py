"""Per-node protocol behaviour: local training, candidate evaluation, personalization.

Attacks corrupt only the uploaded vector; the node's own weights stay honest,
so an attacked node keeps training from uncorrupted state round after round.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .contract import NegotiationGrid, mix
from .data import NodeDataSplit
from .model import MlpArchitecture, TrainingConfig, evaluate_split, sgd_train, split_first_layer

# stream tags for per-node, per-round derived seeds
_TRAIN_TAG = 11
_NOISE_TAG = 12

# Most parameter bytes one stacked sgd_train call takes: a memory guard, not
# a speed rule. A stack holds its nodes' parameters and gradients at once, so
# the cap bounds that memory. Speed barely depends on it (the benchmark's
# wide shape: 199,210 parameters, 10 nodes, seed 1, 2-vCPU box, one BLAS
# thread, median of 15 alternating reps): one local_round took 41, 38, 39
# and 50 ms at 1, 2 (this cap), 5 and 10 nodes per stack in one process, and
# 27, 25, 26 and 27 ms with one trainer process beside it, whose shares hold
# 5 nodes each; the uploads were the same. With no cap and one trainer, a
# wide run's max RSS rose 271.9 -> 280.8 MiB in one process at seed 1; in
# one process alone, the benchmark's wide_mlp_ledger had run 2.6% more
# rounds per second with no cap, and peaked at 307 MB against 276.
_STACK_BYTES = 4 * 2**20


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of integers."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


class _Attack:
    """An attack acts on uploads from round start_round (>= 1) onward."""

    def __post_init__(self):
        if self.start_round < 1:
            raise ValueError(f"start_round must be >= 1, got {self.start_round}")


@dataclass(frozen=True)
class AdditiveNoise(_Attack):
    """Upload corrupted with i.i.d. Gaussian noise from start_round onward."""

    sigma: float
    start_round: int

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        super().__post_init__()


@dataclass(frozen=True)
class SignFlip(_Attack):
    """Upload negated elementwise from start_round onward."""

    start_round: int


@dataclass
class NodeState:
    node_id: int
    split: NodeDataSplit
    personalized: np.ndarray  # the deployed model, w_P
    local_weights: np.ndarray  # the latest honestly trained model, w_L
    attack: AdditiveNoise | SignFlip | None = None


def _attack_active(attack, round_no: int) -> bool:
    return attack is not None and round_no >= attack.start_round


class NonFiniteWeights(ArithmeticError):
    """Local training left inf or nan in some nodes' weights."""

    def __init__(self, node_ids):
        self.node_ids = tuple(node_ids)
        super().__init__(f"node(s) {', '.join(map(str, self.node_ids))} trained to non-finite weights")


class TrainerExited(RuntimeError):
    """A trainer process ended before it answered for its share."""


class Trainers:
    """Processes that train shares of a round's nodes beside the caller.

    One per usable CPU beyond the first, at most one fewer than the nodes,
    forked when this is made, so each holds the nodes' training sets and the
    caller's BLAS settings. None where none can be forked: the platform has
    no fork or cannot say which CPUs the process may run on, or this is a
    daemonic process, such as a multiprocessing pool's worker, which
    multiprocessing lets start no process.

    The stacks travel in one shared anonymous mmap made before the fork, a
    row per node: the caller writes a share's starting rows, its trainer
    trains them in place, and the caller copies them out. The caller
    releases its mapping of the rows after writing them and after copying
    each stack, so it holds at most one stack of them at a time. close()
    stops and reaps the trainers.
    """

    def __init__(self, nodes, arch: MlpArchitecture):
        self._procs, self._conns, self._region, self._rows = [], [], None, None
        # imported here, not with the module: it adds about 4 ms to the start
        # of every process that imports scei, and most of them train nothing
        import multiprocessing

        getaffinity = getattr(os, "sched_getaffinity", None)
        if (
            getaffinity is None
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
        ):
            return
        count = min(len(getaffinity(0)), len(nodes)) - 1
        if count < 1:
            return
        self._region = mmap.mmap(-1, 8 * arch.param_count * len(nodes))
        self._rows = np.frombuffer(self._region).reshape(len(nodes), arch.param_count)
        context = multiprocessing.get_context("fork")
        train_sets = {node.node_id: node.split.train for node in nodes}
        try:
            for _ in range(count):
                here, there = context.Pipe()
                self._conns.append(here)
                # the child closes every caller end it inherits, so each
                # trainer reads end-of-file once the caller closes its end
                proc = context.Process(
                    target=_serve, args=(there, tuple(self._conns), self._rows, arch, train_sets), daemon=True
                )
                try:
                    proc.start()
                finally:
                    there.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self._procs)

    def __enter__(self) -> "Trainers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def train(self, train_cfg: TrainingConfig, shares, train_own) -> list:
        """Start each trainer on its share, run train_own() here meanwhile,
        and return (group, trained stack) for every stack of the trainers'
        shares, in order, each stack a view of its rows in the region.

        shares holds one list of node groups per trainer. Every trainer is
        answered for before this returns or raises, so none is left busy:
        an exception of train_own wins, then the first trainer's, in trainer
        order; a trainer that died raises TrainerExited with its exit code.
        """
        placed, slot = [], 0
        for conn, share in zip(self._conns, shares):
            job = []
            for group in share:
                rows = np.stack([node.personalized for node in group], out=self._rows[slot : slot + len(group)])
                job.append((slot, [node.node_id for node in group]))
                placed.append((group, rows))
                slot += len(group)
            # a trainer that is gone answers with its exit code below
            with contextlib.suppress(OSError):
                conn.send((train_cfg, job))
        self.release()
        try:
            train_own()
        finally:
            answers = [_answer(proc, conn) for proc, conn in zip(self._procs, self._conns)]
        for error in answers:
            if error is not None:
                raise error
        return placed

    def release(self) -> None:
        """Drop this process's mapping of the region's pages. The rows stay in
        the shared memory, for the trainers and for a later read here. With
        no trainers there is no region, and this does nothing."""
        if self._region is not None:
            self._region.madvise(mmap.MADV_DONTNEED)

    def close(self) -> None:
        """Close every pipe, so each idle trainer returns, and reap them all;
        one still running a second later is killed."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(1.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        self._procs, self._conns = [], []
        # views of the rows may outlive this in a traceback, so the mapping
        # goes when the last of them does
        self._region = self._rows = None


def _answer(proc, conn):
    """A trainer's answer for its share: None, the exception that stopped
    it, caused by a RuntimeError that carries the trainer's traceback, or
    TrainerExited when it died before answering. The process's own sentinel
    tells of its death, whoever else holds an end of its pipe."""
    from multiprocessing.connection import wait  # loaded by the Pipe already

    wait([conn, proc.sentinel])
    with contextlib.suppress(EOFError, OSError):
        if conn.poll():
            answer = conn.recv()
            if answer is None:
                return None
            error, trace = answer
            error.__cause__ = RuntimeError(f"in trainer process {proc.pid}:\n{trace}")
            return error
    proc.join()
    return TrainerExited(f"trainer process exited with code {proc.exitcode}")


def _serve(conn, caller_ends, rows, arch: MlpArchitecture, train_sets) -> None:
    """A trainer's loop: train each share it is sent in place in rows and
    answer None, or the exception that stopped the share with its formatted
    traceback; return once the caller's end is closed."""
    # ^C reaches the whole process group; the caller stops its trainers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in caller_ends:
        end.close()
    with contextlib.suppress(EOFError, OSError):
        while True:
            train_cfg, job = conn.recv()
            try:
                for slot, node_ids in job:
                    sgd_train(rows[slot : slot + len(node_ids)], arch, train_cfg, [train_sets[i] for i in node_ids])
                answer = None
            except Exception as exc:
                answer = (exc, traceback.format_exc())
            conn.send(answer)


def local_round(
    nodes, arch: MlpArchitecture, cfg: TrainingConfig, round_no: int, trainers: Trainers | None = None
) -> Iterator[np.ndarray]:
    """Train each node from its personal model and return the vectors to upload.

    `nodes` are the round's active nodes in ascending id order; the uploads
    come back in that order, each built only when the iterator reaches it,
    so a caller that stores each as it comes holds one at a time. Nodes with
    equal train sizes form a group; each group splits into one contiguous
    share per process, the caller's first and one per process of
    `trainers`, and each share trains in stacked sgd_train calls of at most
    _STACK_BYTES of parameters. A row trains as it would alone, so the
    uploads do not depend on the number of trainers. sgd_train trains a fresh
    stack of the personal models in place, and each node gets its own copy
    of its row. The shuffle seed derives from (cfg.rng_seed, round), the
    attack noise seed from (cfg.rng_seed, node_id, round), so runs replay
    exactly. An active attack corrupts only the returned upload;
    node.local_weights stays honest. Raises NonFiniteWeights if training
    diverged for any node, and TrainerExited if a trainer process died.
    """
    train_cfg = replace(cfg, rng_seed=derive_seed(cfg.rng_seed, round_no, _TRAIN_TAG))
    per_stack = max(1, _STACK_BYTES // (8 * arch.param_count))
    processes = 1 + (len(trainers) if trainers is not None else 0)
    same_length = {}
    for node in nodes:
        same_length.setdefault(len(node.split.train), []).append(node)
    shares = [[] for _ in range(processes)]
    for group in same_length.values():
        cuts = [len(group) * k // processes for k in range(processes + 1)]
        for share, start, stop in zip(shares, cuts, cuts[1:]):
            share += [group[i : min(i + per_stack, stop)] for i in range(start, stop, per_stack)]

    diverged = []

    def keep(group, stack):
        """Each node's own copy of its trained row; non-finite rows noted."""
        if not np.isfinite(stack).all():
            diverged.extend(node.node_id for node, row in zip(group, stack) if not np.isfinite(row).all())
        for node, row in zip(group, stack):
            node.local_weights = row.copy()

    def train_own():
        for group in shares[0]:
            stack = np.stack([node.personalized for node in group])
            keep(group, sgd_train(stack, arch, train_cfg, [node.split.train for node in group]))

    if processes == 1:
        train_own()
    else:
        for group, stack in trainers.train(train_cfg, shares[1:], train_own):
            keep(group, stack)
            trainers.release()
    if diverged:
        raise NonFiniteWeights(sorted(diverged))
    return (_upload(node, cfg, round_no) for node in nodes)


def _upload(node: NodeState, cfg: TrainingConfig, round_no: int) -> np.ndarray:
    if not _attack_active(node.attack, round_no):
        return node.local_weights.copy()
    if isinstance(node.attack, SignFlip):
        return -node.local_weights
    rng = np.random.default_rng([cfg.rng_seed, node.node_id, round_no, _NOISE_TAG])
    noise = rng.normal(0.0, node.attack.sigma, size=node.local_weights.shape)
    return node.local_weights + noise


def evaluate_candidates(
    node: NodeState,
    arch: MlpArchitecture,
    global_weights: np.ndarray,
    grid: NegotiationGrid,
) -> tuple:
    """Mix the node's weights with the global model at every grid alpha and
    score each candidate on the node's local test set; the accuracies come
    back in grid order.

    The first layer's product with the test features is linear in its
    weights, so each side's product is taken once and the products are mixed,
    along with the rest of the weights; alpha 0 and 1 score exactly as
    evaluate() of the global and the local model do.
    """
    test = node.split.test
    local_product, local_tail = split_first_layer(node.local_weights, arch, test)
    global_product, global_tail = split_first_layer(global_weights, arch, test)
    return tuple(
        evaluate_split(mix(local_product, global_product, alpha), mix(local_tail, global_tail, alpha), arch, test)
        for alpha in grid.alphas
    )


def apply_alpha(node: NodeState, global_weights: np.ndarray, alpha: float) -> NodeState:
    """Set the personal model to the negotiated mix of local and global weights."""
    node.personalized = mix(node.local_weights, global_weights, alpha)
    return node
