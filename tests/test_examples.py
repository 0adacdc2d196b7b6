"""Smoke tests: every example script runs end-to-end and prints results.

Each example is executed as a subprocess (exactly how a user runs it)
with ``-W error::DeprecationWarning``, so an example still using a
deprecated spelling fails here instead of warning at a user.  Two
scripts are also checked for their headline lines; every other script
runs through the parametrized test, so each runs exactly once.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Scripts with a dedicated headline test below.
HEADLINED = ("quickstart.py", "incident_detection.py")

OTHER_SCRIPTS = sorted(
    path.name for path in EXAMPLES.glob("*.py") if path.name not in HEADLINED
)


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "quality : MAPE" in out
        assert "baseline: Per MAPE" in out

    def test_incident_detection(self):
        out = run_example("incident_detection.py")
        assert "*ALARM*" in out
        assert "incident zone" in out

    @pytest.mark.parametrize("name", OTHER_SCRIPTS)
    def test_runs_without_deprecations(self, name):
        assert run_example(name).strip()


def test_every_example_is_covered():
    scripts = {path.name for path in EXAMPLES.glob("*.py")}
    assert set(HEADLINED) <= scripts
    assert len(OTHER_SCRIPTS) == len(scripts) - len(HEADLINED) >= 4
