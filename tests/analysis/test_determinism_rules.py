"""DET rule fixtures: one violating, one clean, one waived per rule."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py", **kwargs):
    return analyze_source(textwrap.dedent(source), path=path, **kwargs)


class TestDET001UnseededNumpy:
    def test_violating_unseeded_default_rng(self):
        findings = run(
            """
            import numpy as np

            rng = np.random.default_rng()
            """
        )
        assert codes(findings) == ["DET001"]
        assert "unseeded" in findings[0].message

    def test_violating_seed_none_kwarg(self):
        findings = run("import numpy as np\nrng = np.random.default_rng(seed=None)\n")
        assert codes(findings) == ["DET001"]

    def test_violating_legacy_global_state(self):
        findings = run("import numpy as np\nx = np.random.randint(0, 10)\n")
        assert codes(findings) == ["DET001"]
        assert "global" in findings[0].message

    def test_clean_seeded_default_rng(self):
        findings = run("import numpy as np\nrng = np.random.default_rng(1234)\n")
        assert findings == []

    def test_clean_inside_whitelisted_module(self):
        findings = run(
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="src/repro/utils/rng.py",
        )
        assert findings == []

    def test_waived_with_reason(self):
        findings = run(
            """
            import numpy as np

            rng = np.random.default_rng()  # repro: allow[DET001] reason=exploratory notebook helper
            """
        )
        assert findings == []


class TestDET002StdlibRandom:
    def test_violating_import(self):
        findings = run("import random\nSHUFFLE = random.shuffle\n")
        assert codes(findings) == ["DET002"]

    def test_violating_from_import(self):
        findings = run("from random import shuffle\nSHUFFLE = shuffle\n")
        assert codes(findings) == ["DET002"]

    def test_clean_unrelated_import(self):
        assert run("import math\nPI = math.pi\n") == []

    def test_waived(self):
        findings = run(
            "import random  # repro: allow[DET002] reason=jitter for a benchmark warmup only\n"
            "SHUFFLE = random.shuffle\n"
        )
        assert findings == []


class TestDET003WallClock:
    def test_violating_time_time(self):
        findings = run("import time\nstamp = time.time()\n")
        assert codes(findings) == ["DET003"]

    def test_violating_datetime_now(self):
        findings = run("import datetime\nnow = datetime.datetime.now()\n")
        assert codes(findings) == ["DET003"]

    def test_clean_sleep_is_fine(self):
        assert run("import time\ntime.sleep(0.1)\n") == []

    def test_waived(self):
        # (OBS001 also flags a bare perf_counter; select DET to test
        # this family's waiver in isolation.)
        findings = run(
            "import time\nt0 = time.perf_counter()  # repro: allow[DET003] reason=benchmark timing only\n",
            select=["DET"],
        )
        assert findings == []


class TestDET004SetIteration:
    def test_violating_for_over_set_literal(self):
        findings = run("for x in {1, 2, 3}:\n    print(x)\n")
        assert codes(findings) == ["DET004"]

    def test_violating_list_of_set_call(self):
        findings = run("items = list(set([3, 1, 2]))\n")
        assert codes(findings) == ["DET004"]

    def test_violating_comprehension_over_set_algebra(self):
        findings = run("out = [x for x in {1, 2} | {3}]\n")
        assert codes(findings) == ["DET004"]

    def test_clean_sorted_set(self):
        assert run("for x in sorted({1, 2, 3}):\n    print(x)\n") == []

    def test_waived(self):
        findings = run(
            "seen = {1, 2}\nfor x in seen:  # repro: allow[DET004] reason=order-independent membership sweep\n    print(x)\n"
        )
        assert findings == []


class TestDET005UnseededMakeRngInExperiments:
    def test_violating_in_experiments(self):
        findings = run(
            "from repro.utils.rng import make_rng\nrng = make_rng()\n",
            path="src/repro/experiments/sweep.py",
        )
        assert codes(findings) == ["DET005"]

    def test_violating_in_campaign(self):
        findings = run(
            "from repro.utils import make_rng\nrng = make_rng(None)\n",
            path="src/repro/campaign/runner.py",
        )
        assert codes(findings) == ["DET005"]

    def test_clean_seeded_in_experiments(self):
        findings = run(
            "from repro.utils.rng import make_rng\nrng = make_rng(1234, 'faults')\n",
            path="src/repro/experiments/sweep.py",
        )
        assert findings == []

    def test_clean_unseeded_outside_scoped_paths(self):
        findings = run(
            "from repro.utils.rng import make_rng\nrng = make_rng()\n",
            path="scripts/scratch.py",
        )
        assert findings == []

    def test_waived(self):
        findings = run(
            "from repro.utils.rng import make_rng\n"
            "rng = make_rng()  # repro: allow[DET005] reason=interactive smoke entry point\n",
            path="src/repro/experiments/sweep.py",
        )
        assert findings == []
