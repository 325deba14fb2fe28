"""The byte-identity runner ``scripts/artifacts.py``."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# What each command writes under ``OUT/COMMAND-wN/out``: validate steps no
# path and contrast keeps its per-path norms in summary.json, so neither
# writes paths.csv.
ARTIFACTS = {
    "run": {"paths.csv", "summary.json"},
    "validate": {"summary.json"},
    "flow-check": {"paths.csv", "summary.json"},
    "hitting-times": {"paths.csv", "summary.json"},
    "contrast": {"summary.json"},
}

LINE = re.compile(
    r"(?P<name>[a-z-]+-w[12]): exit (?P<code>-?\d+), (?P<wall>\d+\.\d+) s, (?P<mb>\d+\.\d+) MB"
)


def test_artifacts_script_keeps_its_layout_and_prints_time_and_peak(tmp_path):
    config = json.loads((ROOT / "docs" / "example-config.json").read_text())
    config["n_paths"] = 2
    config["solver"]["horizon"] = 0.01
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "runs"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifacts.py"), str(out), "--config", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = {
        f"{command}-w{workers}/{f}"
        for command, artifacts in ARTIFACTS.items()
        for workers in (1, 2)
        for f in ("stdout", "stderr", "exit", *(f"out/{a}" for a in artifacts))
    }
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == expected
    assert len(lines) == 10
    for line in lines:
        match = LINE.fullmatch(line)
        assert match, line
        assert match["code"] == "0" == (out / match["name"] / "exit").read_text().strip()
        assert float(match["wall"]) > 0 and float(match["mb"]) > 0
    # the paths a run prints are relative to OUT, where it started
    printed = (out / "run-w1" / "stdout").read_text().split()
    assert sorted(printed) == ["run-w1/out/paths.csv", "run-w1/out/summary.json"]
