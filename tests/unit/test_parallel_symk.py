"""Unit surface of the parallel low-rank TTSV: construction, loading,
the closed-form cost helpers, streamed updates, and the serial replay.

The randomized cross-backend / fault / fusion conformance lives in
``tests/properties/test_prop_symk.py``; this file pins the small exact
behaviours those properties build on.
"""

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend
from repro.core.parallel_symk import (
    ParallelSymKTTSV,
    symk_words_per_processor,
)
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.tensor.symk import random_symk


def _machine(P):
    return Machine(P, transport=make_transport("simulated", P))


class TestClosedForm:
    def test_words_formula(self):
        assert symk_words_per_processor(10, 4) == 36
        assert symk_words_per_processor(1, 7) == 0
        assert symk_words_per_processor(2, 1) == 1

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            symk_words_per_processor(0, 3)
        with pytest.raises(ConfigurationError):
            symk_words_per_processor(3, 0)

    def test_expected_helpers_track_resident_rank(self):
        algo = ParallelSymKTTSV(5, 12)
        tensor = random_symk(12, 3, seed=0)
        with _machine(5) as machine:
            algo.load_tensor(machine, tensor)
            assert algo.expected_words_per_processor() == 4 * 3
            assert algo.expected_rounds() == 4
            algo.rank1_update(1.0, np.ones(12))
            assert algo.expected_words_per_processor() == 4 * 4


class TestConstruction:
    def test_padding(self):
        algo = ParallelSymKTTSV(4, 10)
        assert (algo.b, algo.n_padded) == (3, 12)

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            ParallelSymKTTSV(0, 10)
        with pytest.raises(ConfigurationError):
            ParallelSymKTTSV(4, 0)
        with pytest.raises(ConfigurationError):
            ParallelSymKTTSV(4, 10, order=1)

    def test_rejects_mismatched_tensor_and_machine(self):
        algo = ParallelSymKTTSV(3, 9)
        with _machine(3) as machine:
            with pytest.raises(ConfigurationError, match="built for"):
                algo.load_tensor(machine, random_symk(8, 2, seed=0))
            with pytest.raises(ConfigurationError, match="built for"):
                algo.load_tensor(
                    machine, random_symk(9, 2, order=4, seed=0)
                )
        with _machine(4) as machine:
            with pytest.raises(ConfigurationError, match="processors"):
                algo.load(machine, random_symk(9, 2, seed=0), np.ones(9))

    def test_run_requires_loads(self):
        algo = ParallelSymKTTSV(2, 6)
        with _machine(2) as machine:
            with pytest.raises(ConfigurationError, match="no factors"):
                algo.run(machine)
            algo.load_tensor(machine, random_symk(6, 2, seed=1))
            with pytest.raises(ConfigurationError, match="no vector"):
                algo.run(machine)
            with pytest.raises(
                ConfigurationError, match="not produced a result"
            ):
                algo.gather_result(machine)


class TestExecution:
    @pytest.mark.parametrize(
        "backend", [CommBackend.POINT_TO_POINT, CommBackend.ALL_TO_ALL]
    )
    @pytest.mark.parametrize("P", [1, 3, 5])
    def test_matches_fast_path_and_serial_replay(self, backend, P):
        tensor = random_symk(13, 3, seed=2)
        x = np.random.default_rng(3).standard_normal(13)
        algo = ParallelSymKTTSV(P, 13, backend=backend)
        with _machine(P) as machine:
            algo.load(machine, tensor, x)
            algo.run(machine)
            y = algo.gather_result(machine)
            assert machine.ledger.max_words_sent() == (
                algo.expected_words_per_processor()
            )
            assert machine.ledger.round_count() == algo.expected_rounds()
        assert np.array_equal(y, algo.serial_reference(x))
        assert np.allclose(y, tensor.ttsv(x))

    def test_single_processor_sends_nothing(self):
        tensor = random_symk(7, 2, seed=4)
        x = np.random.default_rng(5).standard_normal(7)
        algo = ParallelSymKTTSV(1, 7)
        with _machine(1) as machine:
            algo.load(machine, tensor, x)
            algo.run(machine)
            y = algo.gather_result(machine)
            assert machine.ledger.round_count() == 0
        assert np.array_equal(y, algo.serial_reference(x))


class TestStreamingUpdates:
    def test_update_matches_rebuild_bytes(self):
        tensor = random_symk(11, 2, seed=6)
        vector = np.random.default_rng(7).standard_normal(11)
        streamed = ParallelSymKTTSV(3, 11)
        rebuilt = ParallelSymKTTSV(3, 11)
        with _machine(3) as machine:
            streamed.load_tensor(machine, tensor)
            assert streamed.rank1_update(0.5, vector) == 3
            tensor.rank1_update(0.5, vector)
            rebuilt.load_tensor(machine, tensor)
        for p in range(3):
            assert (
                streamed._V_blocks[p].tobytes()
                == rebuilt._V_blocks[p].tobytes()
            )
        assert streamed._lambda.tobytes() == rebuilt._lambda.tobytes()

    def test_update_requires_factors_and_shape(self):
        algo = ParallelSymKTTSV(2, 5)
        with pytest.raises(ConfigurationError, match="no factors"):
            algo.rank1_update(1.0, np.ones(5))
        with _machine(2) as machine:
            algo.load_tensor(machine, random_symk(5, 2, seed=8))
        with pytest.raises(ConfigurationError, match="shape"):
            algo.rank1_update(1.0, np.ones(4))
