import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import mollmc
from mollmc.cli import EXIT_OK, EXIT_REFUSED, VERIFY_SUITES, main


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--algorithm", "ss_sg_lmc", "--epsilon", "0.5", "--d", "1"],
        ["plan", "--epsilon", "1.0", "--d", "1", "--alpha", "0.7"],
    ],
    ids=["ss_sg_lmc", "lmc-alpha-0.7"],
)
def test_plan_exits_zero_on_verified_schedule(argv, capsys):
    assert main(argv) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verification"]["passed"] is True


def test_plan_output_independent_of_ambient_precision(capsys):
    # k is far above the cap, so the run is refused and the message printed
    argv = ["plan", "--epsilon", "0.5", "--d", "2", "--alpha", "0.4", "--execute", "--cap", "10"]
    outputs = []
    for dps in (5, 15, 100):
        with mp.workdps(dps):
            assert main(argv) == EXIT_REFUSED
        outputs.append(capsys.readouterr())
    assert "(log10 k = 58.462154)" in outputs[0].err
    assert all(o.out == outputs[0].out and o.err == outputs[0].err for o in outputs)


def test_verify_suite_choices_match_suites():
    from mollmc import verify

    assert VERIFY_SUITES == tuple(sorted(verify.SUITES))


def test_import_leaves_verify_and_scipy_stats_unloaded():
    src = str(Path(mollmc.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = (
        "import sys, mollmc.cli\n"
        "print(sorted({'mollmc.verify', 'scipy.stats'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_sample_csvs_independent_of_worker_count(tmp_path, monkeypatch, capsys):
    cfg = {
        "potential": {"name": "elastic_net_logistic", "d": 3},
        "algorithm": "ss_sg_lmc",
        "chain": {"beta": 1.0, "eta": 0.01, "k": 300, "seed": 11, "record_stride": 7},
        "smoothing": {"r": 0.2, "n_batch": 3},
        "finite_sum": {"n_components": 5},
        "replicas": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    files = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("MOLLMC_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
        files[workers] = {f.name: f.read_bytes() for f in sorted(out.glob("chain_*.csv"))}
    capsys.readouterr()
    assert len(files["1"]) == 3
    assert files["1"] == files["2"]
