import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab_timing_of_this_tree(*args):
    """The lines ab_timing.py prints for one round of point-index, this
    checkout on both sides, and any further arguments."""
    script = str(ROOT / "tools" / "ab_timing.py")
    argv = [sys.executable, script, str(ROOT), str(ROOT), "point-index", "1", *args]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].startswith("change/parent time per round: median ")
    assert any(line.startswith("  leray-k0: ") for line in lines)
    assert lines[-1].startswith("0 of ") and lines[-1].endswith(" outcomes differ")
    return lines


def test_ab_timing_of_a_tree_against_itself():
    lines = _ab_timing_of_this_tree()
    assert lines[0].startswith("point-index: ") and "1 rounds" in lines[0]
    assert "(seed 1)" in lines[0]
    # each side's np.linalg calls in the counted round: the same tree makes
    # the same calls
    at = lines.index("np.linalg calls in one untimed round, per side:")
    parent, change = lines[at + 1], lines[at + 2]
    assert parent.startswith("  parent: svd ") and change.startswith("  change: svd ")
    counts = parent.split(": ", 1)[1]
    assert counts == change.split(": ", 1)[1]
    names = [item.split()[0] for item in counts.split(", ")]
    assert names == ["svd", "eig", "eigvals", "eigh", "eigvalsh", "det", "qr", "solve"]
    assert int(counts.split(", ")[0].split()[1]) > 0  # the leray strata's SVDs


def test_ab_timing_at_another_seed():
    # an A/B can be confirmed on a seed the change was not written against
    lines = _ab_timing_of_this_tree("2")
    assert lines[0].startswith("point-index: ") and "(seed 2), 1 rounds" in lines[0]
