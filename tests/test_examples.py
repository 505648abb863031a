"""Every example script must run cleanly (at a tiny workload scale)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "0.03")
        assert result.returncode == 0, result.stderr
        assert "PIPE is" in result.stdout
        assert "faster" in result.stdout

    def test_cache_design_space(self):
        result = run_example("cache_design_space.py", "4b", "0.03")
        assert result.returncode == 0, result.stderr
        assert "Figure 4b" in result.stdout
        assert "flattest curve" in result.stdout

    def test_write_your_own_kernel(self):
        result = run_example("write_your_own_kernel.py")
        assert result.returncode == 0, result.stderr
        assert "matches the reference bit-for-bit" in result.stdout

    def test_assembly_playground(self):
        result = run_example("assembly_playground.py")
        assert result.returncode == 0, result.stderr
        assert "dot product" in result.stdout

    def test_fetch_policies(self):
        result = run_example("fetch_policies.py", "0.03")
        assert result.returncode == 0, result.stderr
        assert "fetch policy" in result.stdout
        assert "memory-interface priority" in result.stdout

    def test_all_examples_are_tested(self):
        """Adding an example without a test here should fail loudly."""
        scripts = {path.name for path in EXAMPLES.glob("*.py")}
        tested = {
            "quickstart.py",
            "cache_design_space.py",
            "write_your_own_kernel.py",
            "assembly_playground.py",
            "fetch_policies.py",
        }
        assert scripts == tested
