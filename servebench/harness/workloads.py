"""The four workloads: seeded inputs, registration, and reply references.

Each workload draws every tensor, vector and update from ``--seed``;
the server only ever receives those generated inputs. Why each one is
in the benchmark is stated in its ``why`` line (copied into
``BENCHMARK.json``) and at more length in ``servebench/README.md``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.plans import BlockedPlan, sequential_plan
from repro.machine.machine import Machine
from repro.steiner import spherical_steiner_system
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size
from repro.tensor.packed import PackedSymmetricTensor, packed_size
from repro.tensor.symk import SymKTensor

from .checks import bitwise_equal, close_enough

#: Open-loop UPDATE rate of ``symk_stream`` (writes per second).
WRITE_RATE = 50.0


@dataclass
class Target:
    """One registered tensor and how its replies are checked."""

    tensor_id: str
    n: int
    mode: str
    register: Callable[[object], Dict]
    #: ``check(x, y, epoch) -> bool`` against a local reference.
    check: Callable[[np.ndarray, np.ndarray, Optional[int]], bool]
    #: Reads carry ``min_epoch`` = the last acknowledged write.
    fenced: bool = False
    #: Words per processor every served Algorithm-5 run must send.
    expected_words: Optional[int] = None


@dataclass
class Writer:
    """The open-loop rank-1 update stream of ``symk_stream``."""

    tensor_id: str
    weights: np.ndarray
    vectors: np.ndarray
    initial_rank: int


@dataclass
class Instance:
    """A workload's inputs for one seed and window length."""

    targets: List[Target]
    writer: Optional[Writer] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fleet: bool
    #: Client connections: 1 closed loop, 2 closed loops, or (with a
    #: writer) one closed-loop reader beside the open-loop writer.
    connections: int
    build: Callable[[int, float], Instance] = field(repr=False)


def _dense_tensor(rng: np.random.Generator, n: int) -> PackedSymmetricTensor:
    return PackedSymmetricTensor(n, rng.standard_normal(packed_size(n)))


def _plan_target(tensor_id: str, tensor: PackedSymmetricTensor) -> Target:
    """A dense order-3 tensor served in ``mode=plan``, checked with
    ``allclose`` against a local compiled plan."""
    plan = functools.cache(lambda: sequential_plan(tensor))
    return Target(
        tensor_id, tensor.n, "plan",
        register=lambda client: client.register(tensor_id, tensor, q=2),
        check=lambda x, y, epoch: close_enough(y, plan().apply(x)),
    )


def _plan_dense(seed: int, seconds: float) -> Instance:
    tensor = _dense_tensor(np.random.default_rng([seed, 0]), 300)
    return Instance([_plan_target("dense300", tensor)])


def _alg5_parallel(seed: int, seconds: float) -> Instance:
    n = 120
    tensor = _dense_tensor(np.random.default_rng([seed, 1]), n)
    partition = TetrahedralPartition(spherical_steiner_system(2))
    algo = ParallelSTTSV(partition, n)

    @functools.cache
    def machine() -> Machine:
        local = Machine(partition.P, fusion=True)
        algo.load_tensor(local, tensor)
        return local

    def check(x, y, epoch) -> bool:
        """Bitwise against a direct run on a local machine, whose ledger
        must match the closed form too."""
        local = machine()
        local.reset_ledger()
        algo.load_vector(local, x)
        algo.run(local)
        direct = algo.gather_result(local)
        return (
            bitwise_equal(y, direct)
            and local.ledger.max_words_sent()
            == algo.expected_words_per_processor()
        )

    return Instance(
        [
            Target(
                "dense120", n, "parallel",
                register=lambda client: client.register("dense120", tensor, q=2),
                check=check,
                expected_words=algo.expected_words_per_processor(),
            )
        ]
    )


def _symk_target(tensor_id: str, tensor: SymKTensor) -> Target:
    return Target(
        tensor_id, tensor.n, "plan",
        register=lambda client: client.register_symk(tensor_id, tensor, q=2),
        check=lambda x, y, epoch: bitwise_equal(y, tensor.ttsv(x)),
    )


def _gateway_mixed(seed: int, seconds: float) -> Instance:
    rng = np.random.default_rng([seed, 2])
    dense = _dense_tensor(rng, 60)
    order4 = NdPackedSymmetricTensor(
        24, 4, rng.standard_normal(nd_packed_size(24, 4))
    )
    blocked = functools.cache(lambda: BlockedPlan(order4))
    symk = SymKTensor(rng.standard_normal(4), rng.standard_normal((200, 4)))
    return Instance(
        [
            _plan_target("dense3", dense),
            Target(
                "order4", 24, "plan",
                register=lambda client: client.register(
                    "order4", order4, q=3, order=4
                ),
                check=lambda x, y, epoch: close_enough(y, blocked().apply(x)),
            ),
            _symk_target("symk", symk),
        ]
    )


def _symk_stream(seed: int, seconds: float) -> Instance:
    n, rank = 2000, 8
    rng = np.random.default_rng([seed, 3])
    lambda0 = rng.standard_normal(rank)
    V0 = rng.standard_normal((n, rank))
    # Separate streams, so a shorter window replays a prefix of the
    # same updates.
    writes = int(round(WRITE_RATE * seconds))
    weights = np.random.default_rng([seed, 4]).standard_normal(writes)
    vectors = np.random.default_rng([seed, 5]).standard_normal((writes, n))
    tensor = SymKTensor(lambda0, V0)

    @functools.cache
    def factors() -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.concatenate([lambda0, weights]),
            np.concatenate([V0, vectors.T], axis=1),
        )

    def check(x, y, epoch) -> bool:
        """Bitwise against the tensor rebuilt at the reply's epoch."""
        if epoch is None or not 0 <= epoch <= writes:
            return False
        lam, V = factors()
        rebuilt = SymKTensor(lam[: rank + epoch], V[:, : rank + epoch])
        return bitwise_equal(y, rebuilt.ttsv(x))

    return Instance(
        [
            Target(
                "stream", n, "plan",
                register=lambda client: client.register_symk(
                    "stream", tensor, q=2
                ),
                check=check,
                fenced=True,
            )
        ],
        Writer("stream", weights, vectors, initial_rank=rank),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "plan_dense",
            "kernel-bound: one closed loop of n=300 dense plan applies, each"
            " streaming a 108 MB operator (more than L3); kernel changes show"
            " here",
            fleet=False,
            connections=1,
            build=_plan_dense,
        ),
        Workload(
            "alg5_parallel",
            "one closed loop where every request runs Algorithm 5 (n=120,"
            " P=10, simulated p2p, fused); exchange and machine overhead"
            " dominate, a kernel change should not move it",
            fleet=False,
            connections=1,
            build=_alg5_parallel,
        ),
        Workload(
            "gateway_mixed",
            "gateway + 2 shards, dense order-3, order-4 BCSS and symk round"
            " robin; ~1 ms requests where framing, event loop, gateway hop"
            " and dispatch dominate",
            fleet=True,
            connections=2,
            build=_gateway_mixed,
        ),
        Workload(
            "symk_stream",
            "open-loop rank-1 UPDATEs at 50/s beside closed-loop fenced"
            " reads on one symk tensor (n=2000, r=8 rising); read cost grows"
            " with rank",
            fleet=False,
            connections=2,
            build=_symk_stream,
        ),
    )
}
