"""Each demo runs to completion against the checkout's sources and prints its
golden output."""

import pytest

from test_golden import DEMOS, assert_golden, demo_hashes, run_demo


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert_golden(demo_hashes(proc, demo), f"demo/{demo.stem}")
