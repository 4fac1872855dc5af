import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
