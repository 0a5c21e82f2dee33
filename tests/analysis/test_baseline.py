"""Baseline round-trips, plus the meta-test: the committed baseline must
match a fresh analyzer run over ``src/`` exactly (zero un-baselined
findings), so the gate can never drift silently."""

import json
from pathlib import Path

from repro.analysis import Baseline, analyze_paths, analyze_source

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestBaselineRoundTrip:
    def test_save_load_partition(self, tmp_path):
        findings = analyze_source(
            "import random\nSHUFFLE = random.shuffle\n", path="src/repro/example.py"
        )
        assert len(findings) == 1
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        new, baselined = loaded.partition(findings)
        assert new == []
        assert baselined == findings

    def test_partition_flags_unknown_fingerprints(self, tmp_path):
        old = analyze_source(
            "import random\nSHUFFLE = random.shuffle\n", path="src/repro/example.py"
        )
        fresh = analyze_source(
            "import random\nfrom random import shuffle\nSHUFFLE = random.shuffle or shuffle\n",
            path="src/repro/example.py",
        )
        new, baselined = Baseline.from_findings(old).partition(fresh)
        assert len(baselined) == 1
        assert len(new) == 1
        assert new[0].snippet == "from random import shuffle"

    def test_fingerprints_survive_line_moves(self):
        before = analyze_source("import random\n", path="src/repro/example.py")
        after = analyze_source(
            '"""Docstring pushes the import down."""\n\n\nimport random\n',
            path="src/repro/example.py",
        )
        assert before[0].fingerprint == after[0].fingerprint
        assert before[0].line != after[0].line


class TestCommittedBaseline:
    def test_committed_baseline_exists_and_parses(self):
        path = REPO_ROOT / "analysis-baseline.json"
        assert path.is_file(), "analysis-baseline.json must be committed at the repo root"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert isinstance(payload["findings"], list)

    def test_fresh_run_matches_committed_baseline_exactly(self):
        """The lint gate is honest: a fresh run over the trees CI lints
        (src/, benchmarks/, examples/) yields exactly the grandfathered
        fingerprints — no new findings, no stale entries."""
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
        findings = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"],
            root=REPO_ROOT,
        )
        new, baselined = baseline.partition(findings)
        assert new == [], "un-baselined findings — fix or waive them:\n" + "\n".join(
            f.render() for f in new
        )
        fresh_prints = {f.fingerprint for f in findings}
        stale = set(baseline.entries) - fresh_prints
        assert not stale, f"baseline entries no longer produced: {sorted(stale)}"
