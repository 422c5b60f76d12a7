"""Each demo runs to completion against the checkout's sources and prints its
golden output, and the README's Python example and shell commands run as
written."""

import os
import re
import subprocess
import sys

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


def test_readme_shell_commands_run(tmp_path):
    # "Running from a checkout", block by block in one directory, where src is
    # the checkout's and python this interpreter
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Running from a checkout\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```sh\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 4
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "bin").mkdir()
    shim = tmp_path / "bin" / "python"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(shim.parent), os.environ["PATH"]]))
    for block in blocks:
        proc = subprocess.run(["sh", "-ec", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), block
        assert proc.stdout, block
