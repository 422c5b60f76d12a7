"""Benchmark of mollmc end to end (``mollmc sample``, ``plan``, ``bound``) and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` every round of the workload runs ``mollmc`` in fresh
processes at the default worker count and the end-to-end metrics are
printed.  With ``--trace 1`` rounds run at ``MOLLMC_WORKERS=1``, alternately
plain and under ``traced_cli.py``, and the per-layer metrics are printed
together with the tracing overhead.  Either way every output is checked
against references from ``checks.py``, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  README.md
describes the workloads, metrics and references.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out" / str(os.getpid())  # one directory per benchmark process
NOISE_BLOCK = 4096  # the program's noise block length, part of its reproducibility contract
SETUP_PROBE = (
    "import sys\n"
    "import mollmc.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.build_oracle(cli.load_config(path))\n"
)

# Sampling workloads; run_workload adds the seed.  Sizes keep one round near
# 4 s on a 2-core machine, so that a 20 s run holds four or five rounds.
SAMPLE_CONFIGS = {
    "ss_lmc_hoelder": {
        "potential": {"name": "hoelder_mix", "d": 10, "params": {"alpha": 0.5}},
        "algorithm": "ss_lmc",
        "chain": {"beta": 1.0, "eta": 0.01, "k": 25_000, "record_stride": 1},
        "smoothing": {"r": 0.1, "n_batch": 16},
        "replicas": 4,
    },
    "ss_sg_lmc_logistic": {
        "potential": {"name": "elastic_net_logistic", "d": 10,
                      "params": {"lam1": 0.1, "lam2": 1.0}},
        "algorithm": "ss_sg_lmc",
        "chain": {"beta": 1.0, "eta": 0.01, "k": 10_000, "record_stride": 50},
        "smoothing": {"r": 0.1, "n_batch": 16},
        "finite_sum": {"n_components": 100},
        "replicas": 2,
    },
    "lmc_replicas_quadratic": {
        "potential": {"name": "quadratic", "d": 2},
        "algorithm": "lmc",
        "chain": {"beta": 1.0, "eta": 0.05, "k": 10_000, "record_stride": 1},
        "replicas": 32,
    },
}
WORKLOADS = (*SAMPLE_CONFIGS, "cli_plan_bound")
PLAN_CALLS = (("lmc", 0.4), ("lmc", 0.7), ("lmc", 1.0), ("ss_sg_lmc", None))
PLAN_D = 10
QUADRATIC_BOUND_R = 0.1  # analysis radius passed to `bound` for the exact-gradient config

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "samplers.write_trace_csv.s": "s",
    "samplers.write_trace_csv.mb_per_s": "MB/s",
    "samplers.write_trace_csv.bytes": "count",
    "samplers.csv_rows": "count",
    "samplers.grad_at.us_per_call": "us",
    "potentials.weak_grad.us_per_call": "us",
    "potentials.weak_grad.calls": "count",
    "samplers.step_loop.self_us_per_step": "us",
    "samplers.chain_steps": "count",
    "samplers.grad_evals": "count",
    "samplers.noise_blocks": "count",
    "samplers.prep_block.us_per_step": "us",
    "mollifier.sample.us_per_draw": "us",
    "mollifier.sample.draws": "count",
    "samplers.ess_sq_norm": "count",
    "cli.run_experiment.s": "s",
    "cli.replica_dispatch_s": "s",
    "metrics.moment_report.ms": "ms",
    "cli.import_s": "s",
    "planner.plan_lmc.us": "us",
    "planner.plan_ss_sg_lmc.us": "us",
    "planner.verify_plan.us": "us",
    "bounds.inputs_from.us": "us",
    "bounds.theorem_bound.us": "us",
    "trace.overhead_pct": "%",
}


# ------------------------------------------------------------------ processes

@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def environment(workers: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("MOLLMC_WORKERS", None)
    if workers is not None:
        env["MOLLMC_WORKERS"] = str(workers)
    return env


def spawn(argv, env, log_dir: Path) -> Proc:
    """Run ``argv`` to completion; wall time, exit code and the peak RSS of it
    and its waited-for children (the pool workers) from ``wait4``."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())


def mollmc(args) -> list[str]:
    return [sys.executable, "-m", "mollmc.cli", *args]


def traced(spans: Path, args) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *args]


# ------------------------------------------------------------------ workloads

def sample_config(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(SAMPLE_CONFIGS[name])
    cfg["chain"]["seed"] = int(seed)
    return cfg


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def recorded_steps(k: int, stride: int) -> np.ndarray:
    steps = list(range(0, k + 1, stride))
    if steps[-1] != k:
        steps.append(k)
    return np.asarray(steps)


def marginal_reference(cfg: dict) -> tuple[dict, dict]:
    """Quadrature moments of the target's coordinate marginal and the chain's
    bias allowance, for the separable smoothed workloads."""
    pot, chain, sm = cfg["potential"], cfg["chain"], cfg["smoothing"]
    d, beta, eta, params = pot["d"], chain["beta"], chain["eta"], pot["params"]
    if pot["name"] == "hoelder_mix":
        phi = checks.phi_hoelder(params["alpha"])
        allow = checks.hoelder_allowance(d, params["alpha"], beta, eta, sm["r"], sm["n_batch"])
    else:
        phi = checks.phi_logistic(params["lam1"], params["lam2"])
        allow = checks.logistic_allowance(d, params["lam1"], params["lam2"], beta, eta,
                                          sm["r"], sm["n_batch"])
    return checks.marginal_moments(phi, beta), allow


def sample_reference(cfg: dict):
    """A function ``chains -> (checks, ess)`` for one sampling workload."""
    d, chain = cfg["potential"]["d"], cfg["chain"]
    if cfg["algorithm"] == "lmc":
        v = checks.quadratic_variances(chain["beta"], chain["eta"], chain["k"])
        steps = recorded_steps(chain["k"], chain["record_stride"])
        return lambda chains: checks.quadratic_checks(chains, steps, v, d)
    ref, allow = marginal_reference(cfg)
    return lambda chains: checks.moment_checks(chains, ref, allow, d)


def expected_counts(cfg: dict) -> dict:
    """Work one `sample` round must do, from the config alone."""
    chain, reps = cfg["chain"], cfg["replicas"]
    k, n_batch = chain["k"], cfg.get("smoothing", {}).get("n_batch", 1)
    smoothed = cfg["algorithm"] != "lmc"
    return {
        "samplers.chain_steps": reps * k,
        "samplers.grad_evals": reps * k * n_batch,
        "samplers.noise_blocks": reps * math.ceil(k / NOISE_BLOCK),
        "mollifier.sample.draws": reps * k * n_batch if smoothed else 0,
        "samplers.csv_rows": reps * len(recorded_steps(k, chain["record_stride"])),
    }


def read_chains(out_dir: Path, replicas: int):
    """Recorded steps and iterates of every replica CSV, and each file's SHA-256."""
    steps, chains, digests = [], [], []
    for i in range(replicas):
        raw = (out_dir / f"chain_{i:04d}.csv").read_bytes()
        digests.append(hashlib.sha256(raw).hexdigest())
        lines = [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        steps.append(data[:, 0].astype(np.int64))
        chains.append(data[:, 1:])
    return steps, chains, digests


def csv_digests(out_dir: Path, replicas: int) -> list[str]:
    return [hashlib.sha256((out_dir / f"chain_{i:04d}.csv").read_bytes()).hexdigest()
            for i in range(replicas)]


@dataclass
class Result:
    """What one run saw: rounds, operations, checks and peak memory."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    rss_mb: float = 0.0
    layers: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    ess: float = 0.0

    def check(self, name, ok, **detail):
        self.checks.append({"name": name, "ok": bool(ok), **detail})

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)


class SampleWorkload:
    """One `mollmc sample` invocation per round; each replica is one operation."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.work = name, work
        self.cfg = sample_config(name, seed)
        self.replicas = self.cfg["replicas"]
        self.config_path = write_json(work / "config.json", self.cfg)
        self.setup_configs = [self.config_path]
        self.reference = sample_reference(self.cfg)
        self.expected = expected_counts(self.cfg)
        self.digests = None

    def _sample(self, res: Result, out: Path, workers, spans: Path | None = None) -> Proc:
        if out.exists():
            shutil.rmtree(out)
        args = ["sample", "--config", str(self.config_path), "--out", str(out)]
        argv = mollmc(args) if spans is None else traced(spans, args)
        proc = spawn(argv, environment(workers), self.work / "log")
        res.attempted += self.replicas
        if proc.code != 0:
            summary = out / "summary.json"
            diverged = 0
            if proc.code == 3 and summary.exists():
                reps = json.loads(summary.read_text())["replicas"]
                diverged = sum(r["diverged_at"] is not None for r in reps)
            res.failed += diverged or self.replicas
            print(f"  sample exited {proc.code}: {proc.stderr[-2000:]}")
            return proc
        if self.digests is None:
            self._check_outputs(res, out)
        else:
            got = csv_digests(out, self.replicas)
            res.check("csv_sha256_repeats", got == self.digests)
        return proc

    def _check_outputs(self, res: Result, out: Path):
        steps, chains, self.digests = read_chains(out, self.replicas)
        chain = self.cfg["chain"]
        want = recorded_steps(chain["k"], chain["record_stride"])
        res.check("csv_steps", all(np.array_equal(s, want) for s in steps))
        found, res.ess = self.reference(chains)
        res.checks.extend(found)

    def timed_round(self, res: Result):
        proc = self._sample(res, self.work / "out", None)
        res.rss_mb = max(res.rss_mb, proc.rss_mb)
        res.walls.append(proc.wall_s)

    def traced_round(self, res: Result):
        plain = self._sample(res, self.work / "out", 1)
        res.walls.append(plain.wall_s)
        spans = self.work / "spans.npz"
        proc = self._sample(res, self.work / "traced", 1, spans)
        res.traced_walls.append(proc.wall_s)
        if proc.code == 0:
            layers = layer_metrics([spans])
            layers["samplers.csv_rows"] = count_rows(self.work / "traced", self.replicas)
            want = self.expected["samplers.csv_rows"]
            res.check("csv_rows", layers["samplers.csv_rows"] == want, expected=want)
            res.counts = [(key, want, layers[key]) for key, want in self.expected.items()]
            res.layers.append(layers)


class CliWorkload:
    """Fresh `mollmc plan` and `mollmc bound` processes; each call is one operation."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        rng = random.Random(seed)
        self.calls = []
        for algo, alpha in PLAN_CALLS:
            eps = round(rng.uniform(0.25, 0.75), 4)
            args = ["plan", "--algorithm", algo, "--epsilon", str(eps), "--d", str(PLAN_D)]
            if alpha is not None:
                args += ["--alpha", str(alpha)]
            self.calls.append((args, lambda out, e=eps, a=alpha: checks.plan_checks(
                out, e, PLAN_D, a)))
        self.setup_configs = []
        for name in SAMPLE_CONFIGS:
            cfg = sample_config(name, seed)
            path = write_json(work / f"{name}.json", cfg)
            self.setup_configs.append(path)
            args = ["bound", "--config", str(path)]
            floor = None
            if cfg["algorithm"] == "lmc":
                args += ["--r", str(QUADRATIC_BOUND_R)]
                chain = cfg["chain"]
                v = checks.quadratic_variances(chain["beta"], chain["eta"], chain["k"])
                floor = checks.quadratic_w2(cfg["potential"]["d"], chain["beta"], v[-1])
            self.calls.append((args, lambda out, f=floor: checks.bound_checks(out, f)))

    def _round(self, res: Result, spans_dir: Path | None) -> list[float]:
        walls = []
        for i, (args, check) in enumerate(self.calls):
            spans = None if spans_dir is None else spans_dir / f"call{i}.npz"
            argv = mollmc(args) if spans is None else traced(spans, args)
            proc = spawn(argv, environment(None), self.work / "log")
            res.attempted += 1
            walls.append(proc.wall_s)
            if spans is None:
                res.rss_mb = max(res.rss_mb, proc.rss_mb)
            if proc.code != 0:
                res.failed += 1
                print(f"  {args[0]} exited {proc.code}: {proc.stderr[-2000:]}")
                continue
            try:
                found = check(json.loads(proc.stdout))
            except (ValueError, KeyError, TypeError) as err:
                found = [{"name": "output_parses", "ok": False, "error": repr(err)}]
            for c in found:
                res.check(f"{args[0]}:{c.pop('name')}", c.pop("ok"), **c)
        return walls

    def timed_round(self, res: Result):
        res.walls.extend(self._round(res, None))

    def traced_round(self, res: Result):
        res.walls.extend(self._round(res, None))
        spans_dir = self.work / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        res.traced_walls.extend(self._round(res, spans_dir))
        res.layers.append(layer_metrics(sorted(spans_dir.glob("call*.npz"))))


def count_rows(out_dir: Path, replicas: int) -> int:
    rows = 0
    for i in range(replicas):
        with open(out_dir / f"chain_{i:04d}.csv", encoding="utf-8") as fh:
            rows += sum(1 for ln in fh if not ln.startswith("#")) - 1
    return rows


# ------------------------------------------------------------------- spans

def layer_metrics(span_files) -> dict:
    """Per-layer metrics of one traced round from its span files.

    Times are inclusive unless named ``self``; a span's self time is its
    duration minus its children's.  Gradient evaluations are points passed to
    ``weak_grad`` inside ``samplers.run``, so oracle construction is excluded.
    """
    calls, incl, self_t, units = {}, {}, {}, {}
    imports, grad_evals = [], 0.0
    for path in span_files:
        with np.load(path) as z:
            names, name = z["names"], z["name"]
            start, end, parent, unit = z["start"], z["end"], z["parent"], z["units"]
            imports.append(float(z["import_s"]))
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        label = names[name] if len(name) else np.array([], dtype=str)
        in_run = label == "samplers.run"
        for _ in range(8):  # spans nest at most this deep
            in_run = in_run | (has_parent & in_run[np.maximum(parent, 0)])
        grad_evals += float(unit[in_run & (label == "potentials.weak_grad")].sum())
        for key in set(label.tolist()):
            sel = label == key
            calls[key] = calls.get(key, 0) + int(sel.sum())
            incl[key] = incl.get(key, 0.0) + float(dur[sel].sum())
            self_t[key] = self_t.get(key, 0.0) + float(own[sel].sum())
            units[key] = units.get(key, 0.0) + float(unit[sel].sum())

    def total(key, table=incl):
        return table.get(key, 0.0)

    def per(key, denom, scale=1e6):
        return total(key) * scale / denom if denom else 0.0

    steps = calls.get("samplers.grad_at", 0)
    csv_s, csv_bytes = total("samplers.write_trace_csv"), total("samplers.write_trace_csv", units)
    draws = total("mollifier.sample", units)
    nested = sum(total(k) for k in ("samplers.run", "samplers.write_trace_csv",
                                    "metrics.moment_report"))
    out = {
        "samplers.write_trace_csv.s": csv_s,
        "samplers.write_trace_csv.mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "samplers.write_trace_csv.bytes": int(csv_bytes),
        "samplers.grad_at.us_per_call": per("samplers.grad_at", steps),
        "potentials.weak_grad.us_per_call": per("potentials.weak_grad",
                                                calls.get("potentials.weak_grad", 0)),
        "potentials.weak_grad.calls": calls.get("potentials.weak_grad", 0),
        "samplers.step_loop.self_us_per_step":
            total("samplers.run", self_t) * 1e6 / steps if steps else 0.0,
        "samplers.chain_steps": steps,
        "samplers.grad_evals": int(grad_evals),
        "samplers.noise_blocks": calls.get("samplers.prep_block", 0),
        "samplers.prep_block.us_per_step": per("samplers.prep_block", steps),
        "mollifier.sample.us_per_draw": per("mollifier.sample", draws),
        "mollifier.sample.draws": int(draws),
        "cli.run_experiment.s": total("cli.run_experiment"),
        "cli.replica_dispatch_s":
            total("cli.run_experiment") - nested if "cli.run_experiment" in incl else 0.0,
        "metrics.moment_report.ms": total("metrics.moment_report") * 1e3,
        "cli.import_s": statistics.median(imports),
        "samplers.csv_rows": 0,
    }
    for key in ("planner.plan_lmc", "planner.plan_ss_sg_lmc", "planner.verify_plan",
                "bounds.inputs_from", "bounds.theorem_bound"):
        out[f"{key}.us"] = per(key, calls.get(key, 0))
    return out


# --------------------------------------------------------------------- runs

def probe_setup(configs, res: Result) -> float:
    """Wall time of a fresh interpreter importing ``mollmc.cli`` and building
    the oracle of each config."""
    argv = [sys.executable, "-c", SETUP_PROBE, *map(str, configs)]
    proc = spawn(argv, environment(None), OUT / "setup")
    if proc.code != 0:
        res.check("setup_exit_code", False, code=proc.code, stderr=proc.stderr[-2000:])
    return proc.wall_s


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    wl = CliWorkload(seed, work) if name == "cli_plan_bound" else SampleWorkload(name, seed, work)
    res = Result()
    probe_setup(wl.setup_configs, res)  # warm-up: byte-compiles the sources once
    setups = []
    deadline = time.perf_counter() + seconds
    while True:
        setups.append(probe_setup(wl.setup_configs, res))
        (wl.traced_round if trace else wl.timed_round)(res)
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(work)

    wall, setup_s = statistics.median(res.walls), statistics.median(setups)
    report(name, res, wall, setup_s, trace)
    if trace:
        layers = {k: statistics.median_low(r[k] for r in res.layers) if res.layers else 0
                  for k in PER_LAYER if k not in ("samplers.ess_sq_norm", "trace.overhead_pct")}
        layers["samplers.ess_sq_norm"] = res.ess
        traced_wall = statistics.median(res.traced_walls)
        layers["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": res.rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def report(name: str, res: Result, wall: float, setup_s: float, trace: bool):
    """Human-readable lines: process times, derived rates, counts and failed checks."""
    mode = "at MOLLMC_WORKERS=1, each followed by a traced one" if trace else "timed"
    print(f"{name}: {len(res.walls)} mollmc processes {mode}; wall times "
          + ", ".join(f"{w:.3f}" for w in res.walls) + " s")
    print(f"  setup_s {setup_s:.4f} s" + ("" if trace else f"  peak_rss_mb {res.rss_mb:.1f} MB"))
    if name in SAMPLE_CONFIGS and not trace:
        counts = expected_counts(SAMPLE_CONFIGS[name])
        print(f"  chain_steps_per_s {counts['samplers.chain_steps'] / wall:.1f}  "
              f"grad_evals_per_s {counts['samplers.grad_evals'] / wall:.1f}  "
              f"ess_per_s {res.ess / wall:.2f}  (ESS of |Y|^2 {res.ess:.1f})")
    for key, want, got in res.counts:
        print(f"  count {key}: {got} traced, {want} from the config"
              + ("" if got == want else "  DIFFERS"))
    for c in res.checks:
        if not c["ok"]:
            print(f"  CHECK FAILED {json.dumps(c, default=str)}")


def references(seed: int) -> dict:
    """Every reference value the checks use, recomputed from scratch."""
    out = {}
    for name, cfg in SAMPLE_CONFIGS.items():
        d, chain = cfg["potential"]["d"], cfg["chain"]
        if cfg["algorithm"] == "lmc":
            beta, eta = chain["beta"], chain["eta"]
            v = checks.quadratic_variances(beta, eta, chain["k"])
            out[name] = {"E|Y|^2 at stationarity": d * 2.0 / (beta * (2.0 - eta)),
                         "v_k": float(v[-1]),
                         "W2(law of Y_k, target)": checks.quadratic_w2(d, beta, v[-1])}
            continue
        ref, allow = marginal_reference(cfg)
        out[name] = {"E Y_i": ref["mean"], "E|Y|^2": d * ref["second"], "E|Y_i|": ref["abs"],
                     "relative allowance": allow["rel"],
                     "absolute allowance on E|Y|^2": allow["abs_second"]}
    wl = CliWorkload(seed, OUT / "references")
    out["cli_plan_bound"] = {"calls": [" ".join(args) for args, _ in wl.calls]}
    return out


def clean_up():
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        OUT.parent.rmdir()
    except OSError:
        pass  # another benchmark process still works there


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", action="store_true",
                        help="print every reference value and exit")
    args = parser.parse_args(argv)
    if args.references:
        try:
            print(json.dumps(references(args.seed), indent=2))
        finally:
            clean_up()
        return 0
    if not (SRC / "mollmc" / "cli.py").is_file():
        print(f"error: no mollmc sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            ok = ok and result["correct"] and result["failed"] == 0
            print(json.dumps(result, sort_keys=True))
    finally:
        clean_up()
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
