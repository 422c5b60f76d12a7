"""Golden outputs: SHA-256 hashes of what ``mollmc`` writes and prints.

``golden.json`` holds one hash per output:

* ``sample/<config>/w<workers>/<file>``: each ``chain_*.csv`` and the
  ``summary.json`` (less its ``elapsed_s`` lines) of ``sample`` on each of
  ``SAMPLES``, at one and at two workers;
* ``bound/<config>``: ``bound`` stdout on each of ``SAMPLES`` and ``BOUNDS``;
* ``plan/<name>``: ``plan`` stdout for each of ``PLANS``;
* ``demo/<stem>``: each demo's stdout, which ``test_demos.py`` compares as it
  runs the demos.

It also records the Python, numpy and mpmath versions it was taken under:
numpy's generators are part of the stream contract, so a mismatch names both
sets of versions.  After a deliberate output change,

    PYTHONPATH=src python tests/test_golden.py --write

recomputes every hash, rewrites ``golden.json`` and prints each key that
changed; without ``--write`` it only prints them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from mollmc.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _chain(seed, eta=0.01, k=2000, beta=1.0):
    return {"beta": beta, "eta": eta, "k": k, "seed": seed}


# One small config per algorithm.  The finite sum at d = 1 takes the cumsum
# path of its gradient; beta = 1e12 drives the iterates below 1e-4, outside the
# CSV writer's fixed-notation window.
SAMPLES = {
    "lmc_quadratic": {
        "potential": {"name": "quadratic", "d": 2}, "algorithm": "lmc",
        "chain": _chain(11, eta=0.05), "replicas": 3,
    },
    "ss_lmc_hoelder": {
        "potential": {"name": "hoelder_mix", "d": 3, "params": {"alpha": 0.5}},
        "algorithm": "ss_lmc", "chain": _chain(12),
        "smoothing": {"r": 0.1, "n_batch": 4}, "replicas": 3,
    },
    "ss_sg_lmc_logistic_d1": {
        "potential": {"name": "elastic_net_logistic", "d": 1}, "algorithm": "ss_sg_lmc",
        "chain": _chain(13), "smoothing": {"r": 0.1, "n_batch": 4},
        "finite_sum": {"n_components": 10}, "replicas": 3,
    },
    "lmc_tiny_values": {
        "potential": {"name": "quadratic", "d": 2}, "algorithm": "lmc",
        "chain": _chain(14, eta=0.05, beta=1e12), "replicas": 2,
    },
}
# bound only; the Poincare bound of the quadratic at d = 100 overflows
BOUNDS = {
    "double_well": {
        "potential": {"name": "double_well", "d": 2}, "algorithm": "ss_lmc",
        "chain": _chain(15, eta=0.001, k=1000), "smoothing": {"r": 0.1, "n_batch": 4},
    },
    "quadratic_d100": {
        "potential": {"name": "quadratic", "d": 100}, "algorithm": "lmc",
        "chain": _chain(16, eta=0.05),
    },
}
# the benchmark's four plan shapes at a fixed epsilon, and one whose step-size cap binds
_PLAN = ["plan", "--epsilon", "0.5", "--d", "10"]
PLANS = {
    "lmc_alpha0.4": [*_PLAN, "--alpha", "0.4"],
    "lmc_alpha0.7": [*_PLAN, "--alpha", "0.7"],
    "lmc_alpha1.0": [*_PLAN, "--alpha", "1.0"],
    "ss_sg_lmc": [*_PLAN, "--algorithm", "ss_sg_lmc"],
    "lmc_capped": ["plan", "--epsilon", "0.05", "--d", "1", "--m", "1e-9", "--alpha", "1"],
}
BOUND_R = "0.1"  # the analysis radius passed to `bound` for exact-gradient configs


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mp.__version__}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv) -> bytes:
    """What ``mollmc <argv>`` prints, run in this process; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == EXIT_OK, f"mollmc {' '.join(argv)} exited {code}"
    return buf.getvalue().encode("utf-8")


def _write_config(cfg: dict, path: Path) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def sample_hashes(name: str, workers: int, tmp: Path) -> dict:
    path = _write_config(SAMPLES[name], tmp / f"{name}.json")
    out = tmp / f"{name}-w{workers}"
    with mock.patch.dict(os.environ, MOLLMC_WORKERS=str(workers)):
        _stdout(["sample", "--config", path, "--out", str(out)])
    summary = (out / "summary.json").read_bytes().splitlines(keepends=True)
    files = {f.name: f.read_bytes() for f in sorted(out.glob("chain_*.csv"))}
    files["summary.json"] = b"".join(
        line for line in summary if not line.lstrip().startswith(b'"elapsed_s"'))
    return {f"sample/{name}/w{workers}/{fname}": _sha(data) for fname, data in files.items()}


def bound_hashes(name: str, tmp: Path) -> dict:
    cfg = {**SAMPLES, **BOUNDS}[name]
    argv = ["bound", "--config", _write_config(cfg, tmp / f"{name}.json")]
    if "smoothing" not in cfg:
        argv += ["--r", BOUND_R]
    return {f"bound/{name}": _sha(_stdout(argv))}


def plan_hashes(name: str) -> dict:
    return {f"plan/{name}": _sha(_stdout(PLANS[name]))}


def run_demo(path: Path) -> subprocess.CompletedProcess:
    """Run one demo against the checkout's sources."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def demo_hashes(proc: subprocess.CompletedProcess, path: Path) -> dict:
    return {f"demo/{path.stem}": _sha(proc.stdout.encode("utf-8"))}


def assert_golden(got: dict, prefix: str) -> None:
    """``got`` holds exactly the golden hashes whose keys start with ``prefix``."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = {key: h for key, h in golden["hashes"].items() if key.startswith(prefix)}
    changed = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not changed, (
        f"outputs differ from golden.json: {changed}; golden.json was taken under "
        f"{golden['versions']}, this run has {versions()}"
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", SAMPLES)
def test_sample_outputs(name, workers, tmp_path):
    assert_golden(sample_hashes(name, workers, tmp_path), f"sample/{name}/w{workers}/")


@pytest.mark.parametrize("name", [*SAMPLES, *BOUNDS])
def test_bound_stdout(name, tmp_path):
    assert_golden(bound_hashes(name, tmp_path), f"bound/{name}")


@pytest.mark.parametrize("name", PLANS)
def test_plan_stdout(name):
    assert_golden(plan_hashes(name), f"plan/{name}")


def test_ci_pins_the_golden_versions():
    # CI on other numpy or Python versions would fail the hashes above
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["versions"]
    minor = ".".join(pinned["python"].split(".")[:2])
    assert f'python-version: "{minor}"' in workflow
    assert f"numpy=={pinned['numpy']} mpmath=={pinned['mpmath']}" in workflow
    assert "python -m pytest -q" in workflow
    assert "python3 perfbench/run.py --workload all --seed 7 --seconds 1" in workflow


def compute_all(tmp: Path) -> dict:
    hashes = {}
    for name in SAMPLES:
        for workers in (1, 2):
            hashes.update(sample_hashes(name, workers, tmp))
    for name in [*SAMPLES, *BOUNDS]:
        hashes.update(bound_hashes(name, tmp))
    for name in PLANS:
        hashes.update(plan_hashes(name))
    for path in DEMOS:
        proc = run_demo(path)
        if proc.returncode != 0:
            raise SystemExit(f"{path.name} exited {proc.returncode}:\n{proc.stderr}")
        hashes.update(demo_hashes(proc, path))
    return dict(sorted(hashes.items()))


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description="recompute the golden output hashes")
    parser.add_argument("--write", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else None
    old_hashes = old["hashes"] if old else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = compute_all(Path(tmp))
    changed = sorted(key for key in old_hashes.keys() | new.keys()
                     if old_hashes.get(key) != new.get(key))
    for key in changed:
        print(f"{key}: {old_hashes.get(key)} -> {new.get(key)}")
    if old and old["versions"] != versions():
        print(f"versions: {old['versions']} -> {versions()}")
    if args.write:
        text = json.dumps({"versions": versions(), "hashes": new}, indent=2)
        GOLDEN.write_text(text + "\n", encoding="utf-8")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
