"""The helper scripts under tools/."""

import ctypes
import glob
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_toy_hashes_prints_seven_stable_lines(tmp_path):
    script = os.path.join(ROOT, "tools", "toy_hashes.py")

    def run(*extra):
        return subprocess.run([sys.executable, script, "--steps", "2", *extra], cwd=ROOT,
                              capture_output=True, text=True, timeout=300)

    outs = [run()]
    # the second run checks itself against the first run's lines, and a
    # third against a copy with the eval line edited
    same, edited = tmp_path / "same", tmp_path / "edited"
    same.write_text(outs[0].stdout)
    edited.write_text(re.sub(r"^eval .", "eval -", outs[0].stdout, flags=re.M))
    outs.append(run("--check", str(same)))
    bad = run("--check", str(edited))
    assert bad.returncode == 1 and bad.stdout == outs[0].stdout
    assert bad.stderr.startswith("differs: eval:") and bad.stderr.count("\n") == 1
    for proc in outs:
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert len(lines) == 7
        assert all(re.fullmatch(r"\S+ [0-9a-f]{64} [0-9a-f]{64}", line) for line in lines[:4])
        assert re.fullmatch(r"equivalence [0-9a-f]{64}", lines[4])
        assert re.fullmatch(r"eval [0-9a-f]{64}", lines[5])
        assert re.fullmatch(r"attention [0-9a-f]{64}", lines[6])
    assert outs[0].stdout == outs[1].stdout


def _blas_core() -> str | None:
    """The CPU kernel of numpy's bundled OpenBLAS, the library found as
    tensor._one_blas_thread finds it; None without such a library."""
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            corename = lib.scipy_openblas_get_corename64_
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _simd_dispatch() -> str:
    """numpy's SIMD dispatch targets that this CPU enables, in numpy's
    order: the code paths of numpy's own loops."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def test_toy_hashes_hold_the_expected_values_on_their_host():
    # the recorded hashes depend on the numpy version, numpy's SIMD
    # dispatch targets and the BLAS CPU kernel, which the file's first
    # line names
    expected = os.path.join(ROOT, "tools", "toy_hashes.expected")
    with open(expected, encoding="utf-8") as fh:
        recorded = re.search(r"numpy (\S+) \(SIMD dispatch: ([\w ]*)\) .*\((\w+) kernel\)",
                             fh.readline()).groups()
    host = (np.__version__, _simd_dispatch(), _blas_core())
    if host != recorded:
        pytest.skip("toy_hashes.expected holds numpy %s (SIMD dispatch: %s) on the %s "
                    "kernel; this host runs numpy %s (SIMD dispatch: %s) on %s"
                    % (*recorded, *host))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "toy_hashes.py"),
                           "--check", expected], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_eval_memory_prints_a_peak_per_length_that_grows_linearly():
    script = os.path.join(ROOT, "tools", "eval_memory.py")
    proc = subprocess.run([sys.executable, script], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    peaks, cached = {}, {}
    for line in proc.stdout.splitlines():
        n, mib, nbytes = line.split()
        peaks[int(n)], cached[int(n)] = float(mib), int(nbytes)
    assert list(peaks) == [256, 512, 1024]
    # one query block of scores at a time: doubling n about doubles the
    # peak (it was 3.5 times when every block was held at once)
    assert 0 < peaks[1024] <= 2.5 * peaks[512]
    # the band offsets cached per length are O(n (32 + k)), not O(n^2)
    assert 0 < cached[1024] <= 2.5 * cached[512]


def test_step_memory_peaks_near_the_forward_graph():
    script = os.path.join(ROOT, "tools", "step_memory.py")
    proc = subprocess.run([sys.executable, script], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    steps = {}
    for line in proc.stdout.splitlines():
        kind, held, peak = line.split()
        steps[kind] = (float(held), float(peak))
    assert list(steps) == ["masked", "causal", "causal+sift"]
    assert all(0 < held <= peak for held, peak in steps.values())
    # the backward frees each node's saved arrays as it passes them, so
    # the gradients in flight add little to what the forward holds
    held, peak = steps["masked"]
    assert peak - held < held / 4
    # Above a plain causal forward, a SiFT step's peak (in the perturbed
    # pass's symmetric_kl) holds the task gradient, the frozen clean
    # logits, the perturbation and the divergence's row arrays; when
    # that pass also scored an unread NLL and the spent ascent arrays
    # lived on, it read 3.81 MiB here.
    assert steps["causal+sift"][1] - steps["causal"][0] < 3.5


CODE_LINES_FIXTURE = '''"""Module docstring.

Second paragraph.
"""

import os  # a trailing comment does not stop a line counting

# a comment line


class Box:
    """Class docstring."""

    size = 3

    def grow(self, by: int) -> int:
        """Function docstring,
        on two lines."""
        # a comment inside a function
        total = os.path.join(
            "a",
            "b",
        )
        text = """a string that is not a docstring
on two lines"""
        return total, text


def f(): return 1
'''


def test_code_lines_counts_lines_with_a_token_outside_comments_and_docstrings(tmp_path):
    # counted by hand: import, class, size, def, the four lines of the
    # call, the two lines of the string, return, and f
    (tmp_path / "fixture.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "only_doc.py").write_text('"""Nothing but a docstring."""\n')
    script = os.path.join(ROOT, "tools", "code_lines.py")
    proc = subprocess.run([sys.executable, script, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "fixture.py 12\nsub/only_doc.py 0\ntotal 12\n"
