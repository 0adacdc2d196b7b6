"""The v2 public API surface is frozen: drift must be deliberate.

``tools/dump_api.py`` renders every name in ``repro.__all__`` (plus its
public class members) into stable one-line entries;
``docs/api_surface_v2.txt`` is the reviewed golden.  These tests fail on
any rename, removal, or signature change that was not accompanied by a
regeneration of the golden file.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import dump_api  # noqa: E402


class TestSurfaceGolden:
    def test_live_surface_matches_golden(self):
        golden = dump_api.GOLDEN.read_text().splitlines()
        live = dump_api.dump_surface()
        assert live == golden, (
            "public API surface drifted from docs/api_surface_v2.txt — "
            "if intentional, run: PYTHONPATH=src python tools/dump_api.py --update"
        )

    def test_check_mode_exit_codes(self, tmp_path, monkeypatch):
        assert dump_api.main(["--check"]) == 0
        drifted = tmp_path / "api_surface_v2.txt"
        drifted.write_text("repro.Ghost class ()\n")
        monkeypatch.setattr(dump_api, "GOLDEN", drifted)
        assert dump_api.main(["--check"]) == 1

    def test_cli_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "dump_api.py"), "--check"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


class TestFacadeContract:
    def test_all_names_resolve(self):
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        assert missing == []

    def test_all_is_sorted_within_sections_and_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize(
        "name",
        [
            # the contract's load-bearing entries
            "CrowdRTSE",
            "QueryService",
            "QueryResult",
            "ModelStore",
            "build_semisyn",
            "build_gmission",
            "history_from_csv",
            "truth_oracle_for",
            "ReproError",
            "ServeError",
            "OverloadedError",
            "QueryTimeoutError",
            "InternalError",
        ],
    )
    def test_contract_name_exported(self, name):
        assert name in repro.__all__
        assert getattr(repro, name) is not None

    def test_error_taxonomy_rooted_at_repro_error(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and not issubclass(obj, Warning)
            ):
                assert issubclass(obj, repro.ReproError), name

    def test_surface_rendering_is_deterministic(self):
        assert dump_api.dump_surface() == dump_api.dump_surface()
