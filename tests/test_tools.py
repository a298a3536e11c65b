"""The helper scripts under tools/."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_toy_hashes_prints_seven_stable_lines():
    script = os.path.join(ROOT, "tools", "toy_hashes.py")
    outs = [subprocess.run([sys.executable, script, "--steps", "2"], cwd=ROOT,
                           capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert len(lines) == 7
        assert all(re.fullmatch(r"\S+ [0-9a-f]{64} [0-9a-f]{64}", line) for line in lines[:4])
        assert re.fullmatch(r"equivalence [0-9a-f]{64}", lines[4])
        assert re.fullmatch(r"eval [0-9a-f]{64}", lines[5])
        assert re.fullmatch(r"attention [0-9a-f]{64}", lines[6])
    assert outs[0].stdout == outs[1].stdout


def test_eval_memory_prints_a_peak_per_length_that_grows_linearly():
    script = os.path.join(ROOT, "tools", "eval_memory.py")
    proc = subprocess.run([sys.executable, script], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    peaks = {}
    for line in proc.stdout.splitlines():
        n, mib = line.split()
        peaks[int(n)] = float(mib)
    assert list(peaks) == [256, 512, 1024]
    # one query block of scores at a time: doubling n about doubles the
    # peak (it was 3.5 times when every block was held at once)
    assert 0 < peaks[1024] <= 2.5 * peaks[512]
