import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_discover_word_alignment_finds_the_unique_raising_alignment():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "discover_word_alignment.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    raising = [line for line in lines if line.strip().startswith("raising:")]
    assert raising == ["  raising: word position k <- table entry ((1, 2), (1, 3), (2, 3))"]
    assert "  lowering: no consistent assignment" in lines
    assert lines[-1].endswith(": True")


def test_benchmark_self_tests_pass():
    # The benchmark's tracer reaches package functions by name (for example
    # ``gtcrystal.verify_axioms`` or ``cli.weyl_dimension``), so renaming or
    # deleting one can break ``perfbench`` while every other test passes.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
