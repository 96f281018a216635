"""RunVerdict bundle: PASS on healthy runs, FAIL on injected faults."""

import pytest

import numpy as np

from repro.core.bounds import sttsv_lower_bound
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.parallel_symk import ParallelSymKTTSV
from repro.core.partition_ndim import QuadruplePartition
from repro.core.sttsv_ndim import sttsv_ndim, sttsv_ndim_lower_bound
from repro.core.sttsv_sequential import sttsv_packed
from repro.core.verification import verify_sttsv_run
from repro.steiner import boolean_steiner_system
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import nd_random_symmetric
from repro.tensor.symk import random_symk


def _verify(partition, tensor, x, backend=CommBackend.POINT_TO_POINT, **kw):
    """Algorithm 5 against the packed oracle and the §7.2.2 closed
    form, as ``repro analyze`` checks dense-3."""
    engine = ParallelSTTSV(partition, tensor.n, backend)
    return verify_sttsv_run(
        engine, tensor, x, sttsv_packed,
        [engine.expected_words_per_processor()] * partition.P,
        sttsv_lower_bound(engine.n_padded, partition.P),
        **kw,
    )


class TestHealthyRuns:
    @pytest.mark.parametrize("backend", list(CommBackend))
    def test_pass(self, partition_q2, backend, rng):
        tensor = random_symmetric(30, seed=0)
        verdict = _verify(partition_q2, tensor, rng.normal(size=30), backend)
        assert verdict.ok, verdict.summary()
        assert "PASS" in verdict.summary()
        assert verdict.words_per_processor == verdict.expected_words
        assert verdict.words_per_processor >= verdict.lower_bound

    def test_padded_run_passes(self, partition_sqs8, rng):
        tensor = random_symmetric(50, seed=1)
        verdict = _verify(partition_sqs8, tensor, rng.normal(size=50))
        assert verdict.ok
        assert verdict.n_padded == 56


class TestFaultDetection:
    def test_impossible_tolerance_fails(self, partition_q2, rng):
        tensor = random_symmetric(30, seed=2)
        verdict = _verify(
            partition_q2, tensor, rng.normal(size=30), tolerance=0.0
        )
        assert not verdict.ok
        assert any("numerical" in p for p in verdict.problems)
        assert "FAIL" in verdict.summary()


class TestEveryEngine:
    def test_order4_pair_map_words_pass_with_nonuniform_volumes(self, rng):
        partition = QuadruplePartition(boolean_steiner_system(3))
        engine = ParallelSTTSV(partition, 56)
        words = engine.words_per_processor()
        assert len(set(words)) > 1  # order-4 pair maps are irregular
        verdict = verify_sttsv_run(
            engine, nd_random_symmetric(56, 4, seed=3), rng.normal(size=56),
            sttsv_ndim, words, sttsv_ndim_lower_bound(56, partition.P, 4),
        )
        assert verdict.ok, verdict.summary()
        assert verdict.expected_words == max(words)
        assert verdict.bitwise is None

    def test_symk_checks_the_bitwise_replay(self, rng):
        engine = ParallelSymKTTSV(10, 50)
        tensor = random_symk(50, 4, seed=4)
        verdict = verify_sttsv_run(
            engine, tensor, rng.normal(size=50),
            lambda t, x: t.ttsv(x), [9 * 4] * 10,
            replay=engine.serial_reference,
        )
        assert verdict.ok, verdict.summary()
        assert verdict.bitwise is True
        assert "bound -" in verdict.summary()

    def test_replay_mismatch_fails(self, rng):
        engine = ParallelSymKTTSV(10, 50)
        verdict = verify_sttsv_run(
            engine, random_symk(50, 4, seed=5), rng.normal(size=50),
            lambda t, x: t.ttsv(x), [36] * 10,
            replay=lambda x: np.zeros(50),
        )
        assert verdict.bitwise is False
        assert not verdict.ok
        assert any("serial replay" in p for p in verdict.problems)

    def test_wrong_expected_words_fail(self, partition_q2, rng):
        engine = ParallelSTTSV(partition_q2, 30)
        verdict = verify_sttsv_run(
            engine, random_symmetric(30, seed=6), rng.normal(size=30),
            sttsv_packed, [1] * partition_q2.P,
        )
        assert not verdict.ok
        assert any("ledger" in p for p in verdict.problems)
