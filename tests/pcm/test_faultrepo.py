"""Tests for the runtime fault repository."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.faultrepo import FaultRepository


def _rows(intended, stored):
    return np.array(intended, dtype=np.uint8), np.array(stored, dtype=np.uint8)


class TestDiscovery:
    def test_no_mismatch_records_nothing(self):
        repo = FaultRepository(rows=4, cells_per_row=4)
        intended, stored = _rows([0, 1, 2, 3], [0, 1, 2, 3])
        assert repo.observe_write(0, intended, stored) == 0
        assert repo.total_known_faults() == 0

    def test_mismatches_recorded_with_stuck_value(self):
        repo = FaultRepository(rows=4, cells_per_row=4)
        intended, stored = _rows([0, 1, 2, 3], [0, 3, 2, 3])
        assert repo.observe_write(1, intended, stored) == 1
        positions, values = repo.known_faults(1)
        assert positions.tolist() == [1]
        assert values.tolist() == [3]

    def test_rediscovery_not_double_counted(self):
        repo = FaultRepository(rows=4, cells_per_row=4)
        intended, stored = _rows([0, 0, 0, 0], [1, 0, 0, 0])
        assert repo.observe_write(0, intended, stored) == 1
        assert repo.observe_write(0, intended, stored) == 0
        assert repo.total_known_faults() == 1

    def test_multiple_rows_tracked_separately(self):
        repo = FaultRepository(rows=4, cells_per_row=4)
        intended, stored = _rows([0, 0, 0, 0], [1, 0, 0, 1])
        repo.observe_write(0, intended, stored)
        repo.observe_write(2, intended, stored)
        assert repo.rows_with_faults() == 2
        assert repo.total_known_faults() == 4

    def test_stuck_mask_dense_view(self):
        repo = FaultRepository(rows=2, cells_per_row=4)
        intended, stored = _rows([0, 0, 0, 0], [0, 2, 0, 1])
        repo.observe_write(0, intended, stored)
        assert repo.stuck_mask(0).tolist() == [False, True, False, True]
        assert repo.stuck_mask(1).tolist() == [False] * 4


class TestCapacity:
    def test_capacity_limits_tracking(self):
        repo = FaultRepository(rows=1, cells_per_row=8, capacity_per_row=2)
        intended, stored = _rows([0] * 8, [1, 1, 1, 0, 0, 0, 0, 0])
        discovered = repo.observe_write(0, intended, stored)
        assert discovered == 2
        assert repo.dropped_faults == 1

    def test_unbounded_by_default(self):
        repo = FaultRepository(rows=1, cells_per_row=8)
        intended, stored = _rows([0] * 8, [1] * 8)
        assert repo.observe_write(0, intended, stored) == 8


class TestValidation:
    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            FaultRepository(rows=0, cells_per_row=4)

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            FaultRepository(rows=1, cells_per_row=4, capacity_per_row=-1)

    def test_row_out_of_range(self):
        repo = FaultRepository(rows=2, cells_per_row=4)
        with pytest.raises(ConfigurationError):
            repo.stuck_mask(2)

    def test_shape_mismatch(self):
        repo = FaultRepository(rows=2, cells_per_row=4)
        with pytest.raises(ConfigurationError):
            repo.observe_write(0, np.zeros(3), np.zeros(4))


class TestRowSnapshots:
    def test_restore_row_undoes_discoveries(self):
        repo = FaultRepository(rows=4, cells_per_row=8)
        intended = np.zeros(8, dtype=np.uint8)
        stored = intended.copy()
        stored[2] = 1
        repo.observe_write(1, intended, stored)
        saved = repo.snapshot_row(1)
        stored[5] = 1
        repo.observe_write(1, intended, stored)
        assert repo.total_known_faults() == 2
        repo.restore_row(1, saved)
        assert repo.known_faults(1)[0].tolist() == [2]

    def test_restore_empty_row(self):
        repo = FaultRepository(rows=4, cells_per_row=8)
        saved = repo.snapshot_row(3)
        assert saved is None
        stored = np.ones(8, dtype=np.uint8)
        repo.observe_write(3, np.zeros(8, dtype=np.uint8), stored)
        repo.restore_row(3, saved)
        assert repo.rows_with_faults() == 0
