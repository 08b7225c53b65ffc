"""tools/output_digests.py prints one sha256 per benchmark workload and command, and one
per workload of its training history."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "output_digests.py"


def test_output_digests_prints_one_line_per_workload_and_command():
    done = subprocess.run([sys.executable, str(DIGESTS), str(ROOT)], capture_output=True,
                          text=True, check=True, timeout=300)
    lines = done.stdout.splitlines()
    assert len(lines) == 20
    for line in lines:
        assert re.fullmatch(r"\w+ +(embed|history|eval|reconstruct|generate) +[0-9a-f]{64}",
                            line), line
    assert len({line.split()[0] for line in lines}) == 4


def test_output_digests_rejects_a_directory_without_the_package(tmp_path):
    done = subprocess.run([sys.executable, str(DIGESTS), str(tmp_path)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0 and "not found" in done.stderr
