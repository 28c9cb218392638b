import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_fails_only_its_test(tmp_path):
    """Under the repository's pytest settings a failing Hypothesis property
    is one failed test that shows its falsifying example, and the tests
    after it still run: no warning raised inside Hypothesis's failure
    report may end the session."""
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_runs_after():\n"
        "    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
