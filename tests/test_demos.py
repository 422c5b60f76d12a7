"""Each demo runs to completion against the checkout's sources and prints its
golden output, and the README's Python example runs as written."""

import re

import pytest

from test_golden import DEMOS, ROOT, assert_golden, demo_hashes, run_demo


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert_golden(demo_hashes(proc, demo), f"demo/{demo.stem}")


def test_readme_python_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    example = tmp_path / "readme_example.py"
    example.write_text(blocks[0], encoding="utf-8")
    proc = run_demo(example)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
