"""ChaosPlan decisions: pure functions of ``(seed, site label)``.

The pinned lists were taken from a plan with every rate at 0.5; they
guard the contract that each injection site keys on its own label, so
adding or removing one kind of chaos leaves the other sites' decisions
unchanged.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.chaos import ChaosPlan

PLAN = ChaosPlan(seed=11, crash_rate=0.5, crash_attempts=2, slow_rate=0.5, corrupt_rate=0.5)
HASHES = [f"{i:064x}" for i in range(12)]


class TestPinnedDecisions:
    def test_crash_batches_per_attempt(self):
        crashed = [[i for i in range(12) if PLAN.should_crash(i, a)] for a in range(3)]
        # attempt 2 is past crash_attempts, so nothing crashes there
        assert crashed == [[0, 3, 9, 11], [0, 2, 5, 6, 7, 8, 11], []]

    def test_crash_positions_are_mid_batch(self):
        positions = [PLAN.crash_position(i, 0, 5) for i in range(12)]
        assert positions == [3, 3, 1, 1, 1, 3, 1, 2, 2, 2, 4, 3]
        assert PLAN.crash_position(0, 0, 1) == 0

    def test_slow_and_corrupt_tasks(self):
        slow = [i for i, task_hash in enumerate(HASHES) if PLAN.slow_delay(task_hash) > 0]
        corrupt = [i for i, task_hash in enumerate(HASHES) if PLAN.should_corrupt(task_hash)]
        assert slow == [0, 3, 6, 7, 11]
        assert corrupt == [0, 1, 2, 4, 8, 10]
        assert PLAN.slow_delay(HASHES[0]) == PLAN.slow_s


class TestRates:
    def test_zero_and_one_rates_need_no_draw(self):
        never = ChaosPlan(seed=3, crash_rate=0.0)
        always = ChaosPlan(seed=3, crash_rate=1.0, slow_rate=1.0, corrupt_rate=1.0)
        assert not any(never.should_crash(i, 0) for i in range(32))
        assert all(always.should_crash(i, 0) for i in range(32))
        assert all(always.slow_delay(task_hash) == always.slow_s for task_hash in HASHES)
        assert all(always.should_corrupt(task_hash) for task_hash in HASHES)

    @pytest.mark.parametrize("field", ["crash_rate", "slow_rate", "corrupt_rate"])
    def test_out_of_range_rate_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            ChaosPlan(seed=1, **{field: 1.5})
