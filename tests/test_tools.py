import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_timing_of_a_tree_against_itself():
    # one round of point-index, this checkout on both sides
    script = str(ROOT / "tools" / "ab_timing.py")
    done = subprocess.run(
        [sys.executable, script, str(ROOT), str(ROOT), "point-index", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("point-index: ") and "1 rounds" in lines[0]
    assert lines[1].startswith("change/parent time per round: median ")
    assert any(line.startswith("  leray-k0: ") for line in lines)
    assert lines[-1].startswith("0 of ") and lines[-1].endswith(" outcomes differ")
