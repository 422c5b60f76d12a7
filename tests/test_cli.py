import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import mollmc
from mollmc import cli, potentials
from mollmc.cli import ALGORITHMS, EXIT_DIVERGED, EXIT_ERROR, EXIT_OK, EXIT_REFUSED, main
from mollmc.planner import PlanRequest, plan_lmc


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


def test_plan_prints_a_k_beyond_the_integer_digit_limit(capsys):
    # k has 5,764 digits, more than the interpreter's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    assert main(["plan", "--epsilon", "0.5", "--d", "100", "--alpha", "0.34"]) == EXIT_OK
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        k = json.loads(out)["plan"]["k"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert k == plan_lmc(PlanRequest(epsilon=0.5, d=100, alpha=0.34)).k


def test_plan_output_independent_of_the_integer_digit_limit(capsys):
    # k has 1,888 digits here
    argv = ["plan", "--epsilon", "0.5", "--d", "20", "--alpha", "0.34"]
    assert main(argv) == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", "mollmc.cli", *argv],
                          env=_env(PYTHONINTMAXSTRDIGITS="640"),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == capsys.readouterr().out


def _env(**extra) -> dict:
    """This environment with the checkout's sources first on the path, ``extra``
    set and ``PYTHONUNBUFFERED`` unset, so that a piped stdout is block-buffered."""
    paths = [str(Path(mollmc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _modules_after(code: str, prefix: str, workers: int = 1) -> str:
    """The modules of package ``prefix`` (a dotted name, such as
    ``numpy.polynomial``, or a top-level one) that a fresh interpreter has
    loaded after running ``code`` at ``MOLLMC_WORKERS=workers``."""
    env = _env(MOLLMC_WORKERS=str(workers))
    probe = code + ("\nprint(sorted(m for m in sys.modules"
                    f" if (m + '.').startswith({prefix + '.'!r})))")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.strip().splitlines()[-1]


@pytest.mark.parametrize("prefix", ["numpy", "mpmath", "scipy"])
def test_import_leaves_heavy_modules_unloaded(prefix):
    # each subcommand imports what it runs; scipy is a reference of the
    # tests only, which no command loads
    assert _modules_after("import sys, mollmc.cli", prefix) == "[]"


_SAMPLE_CONFIGS = {
    "lmc": {
        "potential": {"name": "double_well", "d": 2},
        "algorithm": "lmc",
        "chain": {"beta": 1.0, "eta": 0.05, "k": 300, "seed": 3, "record_stride": 4},
    },
    "ss_lmc": {
        "potential": {"name": "hoelder_mix", "d": 1, "params": {"alpha": 0.5}},
        "algorithm": "ss_lmc",
        "chain": {"beta": 1.0, "eta": 0.02, "k": 300, "seed": 5},
        "smoothing": {"r": 0.3, "n_batch": 9},
    },
    "ss_sg_lmc": {
        "potential": {"name": "elastic_net_logistic", "d": 3},
        "algorithm": "ss_sg_lmc",
        "chain": {"beta": 1.0, "eta": 0.01, "k": 300, "seed": 11, "record_stride": 7},
        "smoothing": {"r": 0.2, "n_batch": 3},
        "finite_sum": {"n_components": 5},
    },
}


@pytest.mark.parametrize(
    "command,prefix",
    [("plan", "scipy"), ("bound", "scipy"), ("sample", "scipy"),
     ("plan", "numpy"), ("sample", "mpmath"), ("sample", "numpy.polynomial"),
     # dataclasses loads inspect, 13 ms that only plan would pay: numpy loads it anyway
     ("plan", "dataclasses"), ("plan", "inspect"), ("plan", "hashlib")],
)
def test_commands_leave_modules_unloaded(command, prefix, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SAMPLE_CONFIGS["ss_lmc"]))
    argv = {
        "plan": ["plan", "--epsilon", "0.5", "--d", "2", "--alpha", "0.7"],
        "bound": ["bound", "--config", str(path)],
        "sample": ["sample", "--config", str(path), "--out", str(tmp_path / "out")],
    }[command]
    code = f"import sys, mollmc.cli\nassert mollmc.cli.main({argv!r}) == 0"
    assert _modules_after(code, prefix) == "[]"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shards run in forked processes")
@pytest.mark.parametrize("prefix", ["concurrent", "multiprocessing"])
def test_sample_at_two_workers_loads_no_process_pool(prefix, tmp_path):
    # the shards are plain forks: importing concurrent.futures.process costs tens of ms
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_SAMPLE_CONFIGS["lmc"], replicas=2)))
    argv = ["sample", "--config", str(path), "--out", str(tmp_path / "out")]
    code = f"import sys, mollmc.cli\nassert mollmc.cli.main({argv!r}) == 0"
    assert _modules_after(code, prefix, workers=2) == "[]"
    assert len(list((tmp_path / "out").glob("chain_*.csv"))) == 2


def test_default_worker_count_is_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("MOLLMC_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert [cli._n_workers(n) for n in (1, 2, 32)] == [1, 2, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._n_workers(64) == 32
    # without fork every shard would run in this process anyway
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setenv("MOLLMC_WORKERS", "4")
    assert cli._n_workers(64) == 1


def _sample(tmp_path, cfg, name, workers, monkeypatch):
    """Run `sample` at a worker count; its exit code and output directory."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("MOLLMC_WORKERS", workers)
    out = tmp_path / f"{name}-w{workers}"
    return main(["sample", "--config", str(path), "--out", str(out)]), out


def test_sample_csvs_independent_of_worker_count(tmp_path, monkeypatch, capsys):
    # 5 replicas make uneven shards at 2 and 3 workers
    for algo, base in _SAMPLE_CONFIGS.items():
        cfg = dict(base, replicas=5)
        outputs = []
        for workers in ("1", "2", "3"):
            code, out = _sample(tmp_path, cfg, algo, workers, monkeypatch)
            assert code == EXIT_OK
            summary = json.loads((out / "summary.json").read_text())
            for entry in summary["replicas"]:
                del entry["elapsed_s"]
            files = {f.name: f.read_bytes() for f in sorted(out.glob("chain_*.csv"))}
            outputs.append((summary, files))
        assert len(outputs[0][1]) == 5
        assert [e["replica"] for e in outputs[0][0]["replicas"]] == list(range(5))
        assert all(o == outputs[0] for o in outputs), algo
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shards run in forked processes")
def test_sample_forms_the_run_once_and_forks_only_for_several_shards(tmp_path, monkeypatch,
                                                                     capsys):
    # the run's digest and oracle, and so its potential, are formed once, in the sample
    # process, before any fork; a lone shard runs there too
    test_process, calls = os.getpid(), []

    def counted(name, f):
        def call(*args, **kwargs):
            if os.getpid() != test_process:  # raised again by the sample process
                raise AssertionError(f"{name} ran in a shard's child")
            calls.append(name)
            return f(*args, **kwargs)
        return call

    for module, name in [(os, "fork"), (cli, "config_hash"), (cli, "build_oracle"),
                         (potentials, "builtin")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cfg = dict(_SAMPLE_CONFIGS["ss_lmc"], replicas=5)
    for workers in (1, 2, 3):
        calls.clear()
        assert _sample(tmp_path, cfg, "forks", str(workers), monkeypatch)[0] == EXIT_OK
        forks = ["fork"] * workers if workers > 1 else []
        assert sorted(calls) == ["build_oracle", "builtin", "config_hash", *forks]
    capsys.readouterr()


def _shard_fails(monkeypatch, fail, replica):
    """Make ``fail()`` run in place of the shard that holds ``replica``: a forked
    child's at two workers, the only shard at one."""
    run_shard = cli._run_shard

    def shard(digest, oracle, chain, seeds, lo, hi, out_dir):
        if lo <= replica < hi:
            fail()
        return run_shard(digest, oracle, chain, seeds, lo, hi, out_dir)

    monkeypatch.setattr(cli, "_run_shard", shard)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shards run in forked processes")
def test_a_shard_error_reads_the_same_at_any_worker_count(tmp_path, monkeypatch, capsys,
                                                          replica=3):
    def fail():
        raise ValueError("potential.params: c must be finite and positive, got nan")

    _shard_fails(monkeypatch, fail, replica)
    cfg = dict(_SAMPLE_CONFIGS["lmc"], replicas=4)
    errors = []
    for workers in ("1", "2"):
        code, out = _sample(tmp_path, cfg, "failing", workers, monkeypatch)
        assert code == EXIT_ERROR
        assert not (out / "summary.json").exists()
        errors.append(capsys.readouterr().err)
    assert errors == ["error: potential.params: c must be finite and positive, got nan\n"] * 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shards run in forked processes")
def test_a_first_shard_error_reads_the_same_at_any_worker_count(tmp_path, monkeypatch, capsys):
    # the second shard's child is reaped before the first shard's error is raised
    test_a_shard_error_reads_the_same_at_any_worker_count(tmp_path, monkeypatch, capsys, 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shards run in forked processes")
def test_a_killed_shard_is_an_error_line_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    test_process = os.getpid()

    def fail():
        if os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)

    _shard_fails(monkeypatch, fail, replica=3)
    cfg = dict(_SAMPLE_CONFIGS["lmc"], replicas=4)
    code, out = _sample(tmp_path, cfg, "killed", "2", monkeypatch)
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == ("error: the process running replicas 2 to 3 ended with "
                                       "no result (killed by signal 9)\n")
    assert not (out / "summary.json").exists()
    # the first shard's child finished and was reaped too
    assert sorted(f.name for f in out.glob("chain_*.csv")) == ["chain_0000.csv", "chain_0001.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts fds in /proc/self/fd")
def test_a_failed_fork_closes_its_pipe_and_reaps_the_first_child(tmp_path, monkeypatch,
                                                                 capsys):
    # the pipe made for a fork that raised was left open, two fds more after the run
    fork, forks = os.fork, []

    def fork_once():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    before = len(os.listdir("/proc/self/fd"))
    code, out = _sample(tmp_path, dict(_SAMPLE_CONFIGS["lmc"], replicas=3), "nofork", "3",
                        monkeypatch)
    assert len(os.listdir("/proc/self/fd")) == before
    assert code == EXIT_ERROR and len(forks) == 2
    assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert not (out / "summary.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# on the double well at eta = 0.3, replicas 0 and 3 of root seed 1 blow up
# within 200 steps and the other three stay bounded
_DIVERGING = {
    "potential": {"name": "double_well", "d": 1},
    "algorithm": "lmc",
    "chain": {"beta": 1.0, "eta": 0.3, "k": 200, "seed": 1, "record_stride": 3},
    "replicas": 5,
}


def test_sample_exits_3_with_partial_traces_of_diverged_replicas(tmp_path, monkeypatch, capsys):
    code, out = _sample(tmp_path, _DIVERGING, "diverging", "2", monkeypatch)
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is True
    diverged = {e["replica"]: e["diverged_at"] for e in summary["replicas"]}
    assert diverged == {0: 37, 1: None, 2: None, 3: 18, 4: None}
    for entry in summary["replicas"]:
        lines = (out / entry["file"]).read_text().splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        steps = [int(ln.split(",")[0]) for ln in rows]
        assert len(steps) == entry["n_recorded"]
        if entry["diverged_at"] is None:
            assert steps[-1] == 200 and "moments" in entry
            assert not lines[-1].startswith("#")
        else:
            assert steps[-1] < entry["diverged_at"] and "moments" not in entry
            assert lines[-1] == f"# diverged_at_step={entry['diverged_at']}"
            assert f"replica {entry['replica']} diverged at step {entry['diverged_at']}" in err


def test_verify_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bounds"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


_LMC_D1 = {
    "potential": {"name": "quadratic", "d": 1},
    "algorithm": "lmc",
    "chain": {"beta": 1.0, "eta": 0.1, "k": 20, "seed": 4},
}


def _with(cfg, path, value):
    """A deep copy of `cfg` with the key at `path` set to `value` (None deletes it)."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "path,value,named",
    [
        (("bogus",), 1, "'bogus'"),
        (("chain", "bogus"), 1, "'bogus'"),
        (("chain", "init"), {"kind": "point", "x0": [1.0]}, "unknown key 'init' in chain"),
        (("chain", "eta"), None, "'eta'"),
    ],
    ids=["top-level", "chain", "chain.init", "missing-chain.eta"],
)
def test_sample_rejects_unknown_and_missing_keys(tmp_path, capsys, path, value, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_LMC_D1, path, value)))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_ERROR
    assert named in capsys.readouterr().err
    assert not out.exists()


_INTEGER_KEYS = [
    ("potential", "d"), ("chain", "k"), ("chain", "seed"), ("chain", "record_stride"),
    ("smoothing", "n_batch"), ("finite_sum", "n_components"), ("replicas",),
]


@pytest.mark.parametrize("value", [2.7, True, "3"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("path", _INTEGER_KEYS, ids=[".".join(p) for p in _INTEGER_KEYS])
def test_sample_rejects_non_integer_counts(tmp_path, capsys, path, value):
    # int() would run d = 2.7 at d = 2 and replicas = true as one replica
    base = dict(_SAMPLE_CONFIGS["ss_sg_lmc"], replicas=2)
    node = base
    for key in path:
        node = node[key]
    cli.validate_config(_with(base, path, float(node)))  # an integral float is an integer
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(base, path, value)))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_ERROR
    assert f"{'.'.join(path)} must be" in capsys.readouterr().err
    assert not out.exists()


_REAL_KEYS = [("chain", "beta"), ("chain", "eta"), ("smoothing", "r")]
_REAL_RULES = {"chain.beta": "must be finite and positive",
               "chain.eta": "must be finite and positive", "smoothing.r": "must lie in (0, 1]"}


@pytest.mark.parametrize("value", [True, "0.1", -0.1, math.nan],
                         ids=["bool", "string", "negative", "nan"])
@pytest.mark.parametrize("path", _REAL_KEYS, ids=[".".join(p) for p in _REAL_KEYS])
def test_sample_rejects_non_numeric_and_non_positive_reals(tmp_path, capsys, path, value):
    # float() would run eta = true at eta = 1 and r = "0.1" at r = 0.1
    base = _SAMPLE_CONFIGS["ss_sg_lmc"]
    cli.validate_config(_with(base, path, 1))  # a JSON integer is a number
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(base, path, value)))
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_ERROR
    name = ".".join(path)
    assert f"{name} {_REAL_RULES[name]}, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


_BAD_VALUES = [
    (("chain", "x0"), ["1", "2"], "chain.x0[0] must be", "x0-strings"),
    (("chain", "x0"), [1.0, math.nan], "chain.x0[1] must be", "x0-nan"),
    (("chain", "x0"), [1, 2, 3], "chain.x0 must be of length potential.d = 2", "x0-length"),
    (("potential", "params"), {"alpha": True}, "potential.params.alpha", "param-bool"),
    (("potential",), {"name": "elastic_net_logistic", "d": 2, "params": {"lam1": "0.1"}},
     "potential.params.lam1", "param-string"),
    (("potential", "params"), {"alpha": 2}, "potential.params: alpha", "param-range"),
    (("potential", "params"), {"bogus": 1.0}, "potential.params: unknown", "param-unknown"),
    (("potential", "params"), [0.5], "potential.params", "params-list"),
    (("outputs",), 5, "outputs", "outputs-number"),
    (("outputs",), "", "outputs", "outputs-empty"),
    (("smoothing", "n_batch"), "3", "smoothing.n_batch", "n_batch-string-on-lmc"),
    (("finite_sum", "n_components"), True, "finite_sum.n_components", "n_components-bool-on-lmc"),
    (("potential", "name"), "nope", "potential.name", "unknown-potential"),
    (("chain",), [1], "chain", "chain-list"),
]


@pytest.mark.parametrize(
    "path,value,named", [case[:3] for case in _BAD_VALUES], ids=[case[3] for case in _BAD_VALUES]
)
def test_sample_rejects_bad_values_before_any_output(tmp_path, capsys, monkeypatch,
                                                     path, value, named):
    # float() and the constructors took some of these, and others failed after
    # the output directory existed or with a traceback
    base = {
        "potential": {"name": "hoelder_mix", "d": 2},
        "algorithm": "lmc",
        "chain": {"beta": 1.0, "eta": 0.1, "k": 20, "seed": 4},
        "outputs": "out",
    }
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(_with(base, path, value)))
    assert main(["sample", "--config", "cfg.json"]) == EXIT_ERROR
    assert named in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "chain,undefined",
    [
        ({"k": 1}, {"second_moment_se", "exp_moment_se"}),
        ({"k": 4, "x0": [1000.0]}, {"exp_moment", "exp_moment_se"}),
    ],
    ids=["one-point", "exp-moment-overflows"],
)
def test_summary_writes_undefined_moments_as_null(tmp_path, chain, undefined):
    # k = 1 leaves one point past burn-in, whose standard error is undefined;
    # exp(|x|^2 / 4) at |x| near 1000 is beyond float range
    cfg = json.loads(json.dumps(_LMC_D1))
    cfg["chain"].update(chain)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    # pytest's filterwarnings = error makes a numpy overflow warning fail here
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_not_json)
    moments = summary["replicas"][0]["moments"]
    assert {key for key, value in moments.items() if value is None} == undefined


@pytest.mark.parametrize("command", ["bound", "plan-execute", "load-and-build"])
def test_each_command_builds_the_potential_once(tmp_path, monkeypatch, capsys, command):
    # validate_config only checks a config; build_oracle alone builds its potential, where
    # validate_config built one too (and plan --execute validated twice)
    calls, builtin = [], potentials.builtin

    def counted(*args, **kwargs):
        calls.append(args)
        return builtin(*args, **kwargs)

    monkeypatch.setattr(potentials, "builtin", counted)
    monkeypatch.setenv("MOLLMC_WORKERS", "1")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_LMC_D1))
    if command == "load-and-build":  # the benchmark's set-up probe
        cli.build_oracle(cli.load_config(cfg_path))
    elif command == "bound":
        assert main(["bound", "--config", str(cfg_path), "--r", "0.1"]) == EXIT_OK
    else:
        argv = [*_LMC_PLAN, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
    assert calls == [("quadratic", 1)]
    capsys.readouterr()


def test_sample_starts_every_replica_at_chain_x0(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(dict(_LMC_D1, replicas=3), ("chain", "x0"), [3.0])))
    files = []
    for workers in ("1", "2"):
        monkeypatch.setenv("MOLLMC_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        files.append([(out / f"chain_{i:04d}.csv").read_text() for i in range(3)])
    assert files[0] == files[1]
    assert [text.splitlines()[4] for text in files[0]] == ["0,3"] * 3


def test_bound_refuses_a_point_initial_law(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_LMC_D1, ("chain", "x0"), [0.5])))
    assert main(["bound", "--config", str(cfg_path), "--r", "0.1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bound evaluation needs the gaussian initial law "
                            "(a point mass has no density)\n")


def test_bound_rejects_a_bad_radius_in_an_lmc_config(tmp_path, capsys):
    # smoothing.r is checked wherever it appears, though bound reads an lmc config's
    # analysis radius from --r only
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_LMC_D1, ("smoothing", "r"), True)))
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "smoothing.r must lie in (0, 1], got True" in capsys.readouterr().err


def test_bound_asks_for_r_when_an_lmc_config_has_smoothing_without_r(tmp_path, capsys):
    # smoothing.r is optional for lmc; its absence was a KeyError, "error: 'r'"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_LMC_D1, ("smoothing", "n_batch"), 3)))
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "exact-gradient configs need --r" in captured.err
    assert captured.out == ""
    assert main(["bound", "--config", str(cfg_path), "--r", "0.1"]) == EXIT_OK


def test_bound_reads_an_lmc_radius_from_r_only(tmp_path, capsys):
    # bound analysed an lmc config at its smoothing.r when --r was absent
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_LMC_D1, ("smoothing", "r"), 0.1)))
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: exact-gradient configs need --r (analysis radius)\n"
    assert captured.out == ""


@pytest.mark.parametrize("r", ["0.1", "0.10000000000001"])
@pytest.mark.parametrize("name", ["ss_lmc", "ss_sg_lmc"])
def test_bound_refuses_r_on_a_smoothed_config(tmp_path, capsys, name, r):
    # a smoothed run is analysed at its smoothing.r; --r 0.10000000000001 was taken
    # and printed, with the envelope evaluated off the radius delta was formed at
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_SAMPLE_CONFIGS[name], ("smoothing", "r"), 0.1)))
    assert main(["bound", "--config", str(cfg_path), "--r", r]) == EXIT_ERROR
    captured = capsys.readouterr()
    own = "error: a smoothed oracle is analysed at its own radius 0.1"
    assert captured.err == f"{own}, got {float(r)!r}\n"
    assert captured.out == ""
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_OK


@pytest.mark.parametrize("d,beta", [(100, 1.0), (2, 1e-300), (2, 1e160), (2, 1e300)],
                         ids=["d-100", "beta-1e-300", "beta-1e160", "beta-1e300"])
def test_bound_writes_overflowed_values_as_null(tmp_path, capsys, d, beta):
    # the Poincare bound of the quadratic at d = 100 or at an extreme beta is
    # beyond float range; at beta = 1e-300, (m beta)^2 underflowed to 0, a
    # ZeroDivisionError, and at 1e160 the first Poincare summand did, so
    # log(0) was a math domain error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_with(_LMC_D1, ("potential", "d"), d),
                                         ("chain", "beta"), beta)))
    assert main(["bound", "--config", str(cfg_path), "--r", "0.1"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    assert out["c_p_bound"] is None and out["c_ls_bound"] is None
    assert math.isfinite(out["c_p_log"]) and out["vacuous"] is True
    assert any("overflows float range" in note for note in out["notes"])


def test_sample_rejects_sg_lmc_alias(tmp_path, capsys):
    cfg = dict(_SAMPLE_CONFIGS["ss_sg_lmc"], algorithm="sg_lmc")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert repr(cfg["algorithm"]) in err
    assert all(repr(algo) in err for algo in ALGORITHMS)


@pytest.mark.parametrize(
    "workers,message",
    [
        ("abc", "MOLLMC_WORKERS must be an integer, got 'abc'"),
        ("0", "MOLLMC_WORKERS must be a positive integer, got 0"),
        ("-3", "MOLLMC_WORKERS must be a positive integer, got -3"),
    ],
    ids=["abc", "0", "-3"],
)
def test_sample_rejects_a_bad_worker_count_before_any_output(tmp_path, capsys, monkeypatch,
                                                             workers, message):
    # the count was read after the output directory existed, and int() named no
    # variable; a count below 1 ran as one worker
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MOLLMC_WORKERS", workers)
    Path("cfg.json").write_text(json.dumps(_LMC_D1))
    assert main(["sample", "--config", "cfg.json", "--out", "o1"]) == EXIT_ERROR
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


_BOUND = ["bound", "--config", "cfg.json"]
_PLAN = ["plan", "--epsilon", "0.5", "--d", "1", "--alpha", "1.0"]


@pytest.mark.parametrize(
    "argv,field",
    [
        ([*_PLAN, "--c-const", "nan"], "c_const"),
        ([*_PLAN, "--m", "inf"], "m"),
        ([*_PLAN, "--omega-one", "inf"], "omega_one"),
    ],
    ids=["c_const-nan", "m-inf", "omega_one-inf"],
)
def test_non_finite_reals_are_rejected_by_name(tmp_path, capsys, monkeypatch, argv, field):
    # NaN passed the `x <= 0.0` checks: bound printed a NaN bound with exit 0,
    # plan --m inf passed its verification, and plan --c-const nan failed in int()
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(_SAMPLE_CONFIGS["ss_lmc"]))
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"error: {field} must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag,value",
    [*(("--r", r) for r in ("0", "-1", "nan", "inf", "1.5")),
     *(("--a-abs", a) for a in ("-1", "nan", "inf"))],
)
def test_bound_names_a_bad_flag(tmp_path, capsys, monkeypatch, flag, value):
    # the messages came from the modulus ("modulus argument must be ..."), the
    # envelope ("radius must lie in ...") or the inputs ("a_abs must be ..."),
    # none of which named the flag
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(_LMC_D1))
    assert main([*_BOUND, flag, value]) == EXIT_ERROR
    captured = capsys.readouterr()
    what = {"--r": "must lie in (0, 1]", "--a-abs": "must be finite and positive"}[flag]
    assert f"error: {flag} {what}, got {float(value)!r}" in captured.err
    assert captured.out == ""


def test_plan_refuses_alpha_for_ss_sg_lmc(capsys):
    # --alpha is for lmc only: ss_sg_lmc printed its plan and exited 0 without reading it
    argv = ["plan", "--algorithm", "ss_sg_lmc", "--epsilon", "0.5", "--d", "10", "--alpha", "0.5"]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the ss_sg_lmc schedule takes no alpha (lmc only), got 0.5\n"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_plan_names_a_cap_below_one(capsys, cap):
    # a cap below 1 was taken, and the plan printed and refused with exit 4
    # because its k exceeded the cap
    assert main([*_LMC_PLAN, "--cap", cap]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"error: --cap must be a positive integer, got {int(cap)}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--c-const", "1e300", "--alpha", "1"],
                                  ["--c-const", "1e300", "--alpha", "0.5"],
                                  ["--c-const", "1e300", "--algorithm", "ss_sg_lmc"],
                                  ["--c-const", "1e6", "--alpha", "1"]],
                         ids=["alpha-1", "alpha-0.5", "ss_sg_lmc", "c-1e6"])
def test_plan_refuses_a_k_of_more_than_100000_digits(capsys, argv):
    # k = e^(2e300) has more digits than an int can hold: int() raised an
    # OverflowError from inside mpmath, a traceback.  At C = 1e6, k has 868,642
    # digits, which took minutes to print
    assert main(["plan", "--epsilon", "0.5", "--d", "1", *argv]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: k has more than 100,000 digits (log10 k = ")
    assert captured.err.count("\n") == 1


def test_plan_prints_a_k_of_86904_digits_in_full(capsys):
    argv = ["plan", "--epsilon", "0.5", "--d", "1", "--alpha", "1", "--c-const", "1e5"]
    assert main(argv) == EXIT_OK
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        k = json.loads(capsys.readouterr().out)["plan"]["k"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert k == plan_lmc(PlanRequest(epsilon=0.5, d=1, alpha=1.0, c_const=1e5)).k
    assert 10**86903 < k < 10**86904


def test_integral_floats_pass_and_keep_the_config_hash(tmp_path, capsys):
    # the hash is of the config as written: validation must not normalise 2.0 to 2
    cfg = {
        "potential": {"name": "quadratic", "d": 2.0},
        "algorithm": "lmc",
        "chain": {"beta": 1.0, "eta": 0.1, "k": 20.0, "seed": 4.0},
    }
    written = json.dumps(cfg)
    assert cli.validate_config(cfg) is cfg and json.dumps(cfg) == written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(written)
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    expected = hashlib.sha256(cli.canonical_json(cfg).encode("utf-8")).hexdigest()
    assert summary["config_sha256"] == expected


def test_sample_needs_an_output_directory(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_LMC_D1))
    assert main(["sample", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "no output directory" in capsys.readouterr().err


_LMC_PLAN = ["plan", "--epsilon", "1.0", "--d", "1", "--alpha", "1.0", "--execute"]


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
@pytest.mark.parametrize(
    "command,named",
    [("sample", "chain.seed"), ("sample", "--seed"), ("plan", "--seed")],
    ids=["config", "sample-flag", "plan-flag"],
)
def test_root_seed_outside_64_bits_is_rejected(tmp_path, capsys, monkeypatch,
                                               command, named, seed):
    # the seed derivation reads the root modulo 2**64, so -1 ran the
    # experiment of 2**64 - 1 under a different root_seed in summary.json
    monkeypatch.chdir(tmp_path)
    in_config = named == "chain.seed"
    cfg = _with(_LMC_D1, ("chain", "seed"), seed) if in_config else _LMC_D1
    Path("cfg.json").write_text(json.dumps(cfg))
    argv = _LMC_PLAN if command == "plan" else ["sample"]
    if not in_config:
        argv = [*argv, f"--seed={seed}"]
    assert main([*argv, "--config", "cfg.json", "--out", "out"]) == EXIT_ERROR
    assert f"{named} must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_plan_execute_needs_config(capsys):
    assert main(_LMC_PLAN) == EXIT_ERROR
    assert "--execute needs --config" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--out"])
def test_plan_refuses_seed_and_out_without_execute(tmp_path, capsys, monkeypatch, flag):
    # plan without --execute runs nothing, so it used to accept both and ignore them
    monkeypatch.chdir(tmp_path)
    assert main([*_LMC_PLAN[:-1], flag, "5"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {flag} needs --execute\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [["sample", "--out", "out"], ["bound", "--r", "0.1"], [*_LMC_PLAN, "--out", "out"]],
    ids=["sample", "bound", "plan-execute"],
)
def test_a_repeated_key_is_refused(tmp_path, capsys, monkeypatch, argv):
    # json.load kept the last of the two values and ran at eta = 0.2
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(
        '{"potential": {"name": "quadratic", "d": 1}, "algorithm": "lmc",\n'
        ' "chain": {"beta": 1.0, "eta": 0.1, "k": 20, "seed": 4, "eta": 0.2}}\n')
    assert main([*argv, "--config", "cfg.json"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: repeated key 'eta' in the config\n"
    if argv[0] == "plan":  # the plan is printed before its config is read
        assert set(json.loads(captured.out)) == {"plan", "verification"}
    else:
        assert captured.out == ""
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_plan_execute_runs_the_plan(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_LMC_D1))
    out = tmp_path / "out"
    assert main(_LMC_PLAN + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    plan = json.loads(capsys.readouterr().out)["plan"]
    chain = json.loads((out / "summary.json").read_text())["config"]["chain"]
    assert plan["k"] == chain["k"] == 57
    assert chain["eta"] == float(plan["eta"])


def test_plan_execute_prints_the_plan_once_into_a_pipe_at_two_workers(tmp_path):
    # piped stdout is block-buffered, so a forked child that flushed the
    # parent's buffer on its way out would print the plan a second time
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_LMC_D1, replicas=2)))
    argv = [*_LMC_PLAN, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "mollmc.cli", *argv],
                          env=_env(MOLLMC_WORKERS="2"), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert set(json.loads(proc.stdout)) == {"plan", "verification"}
    assert len(json.loads((tmp_path / "out" / "summary.json").read_text())["replicas"]) == 2


def test_plan_execute_names_diverged_replicas(tmp_path, capsys, monkeypatch):
    def diverged(cfg, root_seed, out_dir):
        replicas = [{"replica": 0, "diverged_at": None}, {"replica": 1, "diverged_at": 12}]
        return {"diverged": True, "replicas": replicas}

    monkeypatch.setattr(cli, "run_experiment", diverged)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_LMC_D1))
    code = main(_LMC_PLAN + ["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert captured.err == "replica 1 diverged at step 12\n"
    assert set(json.loads(captured.out)) == {"plan", "verification"}


@pytest.mark.parametrize("execute", [True, False], ids=["execute", "print-only"])
def test_plan_failing_verification_exits_one_and_never_runs(tmp_path, capsys, monkeypatch,
                                                            execute):
    # the planners' schedules all pass verification, so the verdict is stubbed
    from mollmc import planner

    def failing(plan, req):
        return planner.PlanReport(plan.algorithm, (
            planner.PlanItem("k_at_least_one", mp.mpf(1), mp.mpf(plan.k)),
            planner.PlanItem("exp_term_le_half_eps", mp.mpf(1), mp.mpf("0.25")),
        ))

    def _must_not_run(*args):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(planner, "verify_plan", failing)
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(_LMC_D1))
    argv = [*_LMC_PLAN, "--out", "out"] if execute else _LMC_PLAN[:-1]
    assert main([*argv, "--config", "cfg.json"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verification"]["passed"] is False
    if execute:
        expected = "error: the plan fails verification (exp_term_le_half_eps); not run\n"
        assert captured.err == expected
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize(
    "argv,cfg",
    [
        (_LMC_PLAN, _SAMPLE_CONFIGS["ss_lmc"]),
        (_LMC_PLAN, _with(_LMC_D1, ("potential", "d"), 4)),
        # k is about 1.9e7, so run_experiment is stubbed below: a regression
        # then fails at once instead of running the chain
        (["plan", "--algorithm", "ss_sg_lmc", "--epsilon", "1.0", "--d", "1",
          "--execute", "--cap", str(10**8)], _LMC_D1),
    ],
    ids=["lmc-plan-on-ss_lmc", "d1-plan-on-d4", "ss_sg_lmc-plan-on-lmc"],
)
def test_plan_execute_refuses_mismatched_config(tmp_path, capsys, monkeypatch, argv, cfg):
    if "ss_sg_lmc" in argv:
        def _must_not_run(*args):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_ERROR
    assert "error: the plan is for algorithm" in capsys.readouterr().err
    assert not out.exists()


def test_plan_execute_runs_an_ss_sg_lmc_config_at_the_printed_plan(tmp_path, capsys,
                                                                   monkeypatch):
    # k is about 1.9e7, so run_experiment is stubbed: it only keeps the config it is given
    ran = []

    def keep(cfg, root_seed, out_dir):
        ran.append(cfg)
        return {"diverged": False, "replicas": []}

    monkeypatch.setattr(cli, "run_experiment", keep)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(_SAMPLE_CONFIGS["ss_sg_lmc"], ("potential", "d"), 1)))
    argv = ["plan", "--algorithm", "ss_sg_lmc", "--epsilon", "1", "--d", "1", "--execute",
            "--cap", "20000000", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    plan = json.loads(capsys.readouterr().out)["plan"]
    (cfg,) = ran
    assert cfg["chain"]["k"] == plan["k"] == 18_845_378
    assert cfg["chain"]["eta"] == float(plan["eta"])
    assert cfg["smoothing"]["r"] == float(plan["r"]) == pytest.approx(1 / 48)
    assert cfg["smoothing"]["n_batch"] == plan["n_batch"] == 4342


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_benchmark_tracer_sees_every_oracle(tmp_path, algo):
    # perfbench/traced_cli.py wraps prep_block and grad_at on each oracle
    # class; a renamed or inherited method would leave its spans empty
    import numpy as np

    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_SAMPLE_CONFIGS[algo]))
    spans = tmp_path / "spans.npz"
    argv = [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans), "--",
            "sample", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=_env(MOLLMC_WORKERS="1"), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with np.load(spans) as data:
        names = data["names"][data["name"]].tolist()
    assert names.count("samplers.prep_block") == 1  # k = 300 is one noise block
    assert names.count("samplers.grad_at") == _SAMPLE_CONFIGS[algo]["chain"]["k"]


def test_benchmark_tracer_wraps_every_command(tmp_path):
    # the benchmark's traced runs rebuild each PotentialSpec with a one-argument
    # weak_grad and wrap functions by name; tier-1 runs untraced, so a change the
    # tracer cannot wrap would otherwise show only in the benchmark
    import numpy as np

    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_SAMPLE_CONFIGS["ss_lmc"], replicas=2)))
    commands = {
        "sample": ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "traced")],
        "plan": ["plan", "--epsilon", "0.5", "--d", "2", "--alpha", "0.7"],
        "bound": ["bound", "--config", str(cfg_path)],
    }
    env = _env(MOLLMC_WORKERS="1")  # PYTHONPATH: the checkout's src first
    names = set()
    for command, argv in commands.items():
        spans = tmp_path / f"{command}.npz"
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "traced_cli.py"),
                               str(spans), "--", *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), command
        with np.load(spans) as data:
            names |= set(data["names"][data["name"]].tolist())
    assert names >= {"potentials.weak_grad", "samplers.prep_block", "samplers.grad_at",
                     "samplers.run", "samplers.write_trace_csv", "planner.plan_lmc",
                     "bounds.theorem_bound"}
    untraced = subprocess.run([sys.executable, "-m", "mollmc.cli", *commands["sample"][:-1],
                               str(tmp_path / "untraced")], env=env, capture_output=True)
    assert untraced.returncode == EXIT_OK
    csvs = [{f.name: f.read_bytes() for f in sorted((tmp_path / side).glob("chain_*.csv"))}
            for side in ("traced", "untraced")]
    assert len(csvs[0]) == 2 and csvs[0] == csvs[1]


@pytest.mark.parametrize("case", ["plan", "bound", "error", "refused", "diverged", "usage"])
def test_a_command_prints_and_exits_as_main_returns(tmp_path, capsys, monkeypatch, case):
    # the process ends by os._exit once stdout and stderr are flushed: a piped,
    # block-buffered stdout must still reach the reader whole
    bound_cfg, sample_cfg = tmp_path / "bound.json", tmp_path / "sample.json"
    bound_cfg.write_text(json.dumps(_SAMPLE_CONFIGS["ss_lmc"]))
    sample_cfg.write_text(json.dumps(_DIVERGING))
    argv = {
        "plan": ["plan", "--epsilon", "0.5", "--d", "2", "--alpha", "0.7"],
        "bound": ["bound", "--config", str(bound_cfg)],
        "error": ["plan", "--epsilon", "2", "--d", "1", "--alpha", "1"],
        "refused": ["plan", "--epsilon", "0.5", "--d", "2", "--alpha", "0.4", "--execute",
                    "--cap", "10"],
        "diverged": ["sample", "--config", str(sample_cfg), "--out", str(tmp_path / "out")],
        "usage": ["plan", "--d", "1"],  # argparse's SystemExit leaves the normal way
    }[case]
    monkeypatch.setenv("MOLLMC_WORKERS", "1")
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    assert code == {"plan": EXIT_OK, "bound": EXIT_OK, "error": EXIT_ERROR,
                    "refused": EXIT_REFUSED, "diverged": EXIT_DIVERGED, "usage": 2}[case]
    expected = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "mollmc.cli", *argv],
                          env=_env(MOLLMC_WORKERS="1"), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    if case == "error":
        assert proc.stderr == "error: epsilon must lie in (0, 1], got 2.0\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", ["sample", "diverged", "plan", "bound"])
def test_a_closed_stdout_is_no_error(tmp_path, capsys, monkeypatch, case, buffered):
    # stdout's reader has gone: sample, whose outputs are its files, exits with its run's
    # code; plan and bound, whose output is stdout, exit 1.  Each printed
    # "error: [Errno 32] Broken pipe" and exited 1, or, block-buffered, a traceback and 120
    bound_cfg, sample_cfg = tmp_path / "bound.json", tmp_path / "sample.json"
    bound_cfg.write_text(json.dumps(_SAMPLE_CONFIGS["ss_lmc"]))
    sample_cfg.write_text(json.dumps(_DIVERGING if case == "diverged"
                                     else dict(_SAMPLE_CONFIGS["lmc"], replicas=3)))
    out = tmp_path / "out"
    argv = {
        "sample": ["sample", "--config", str(sample_cfg), "--out", str(out)],
        "diverged": ["sample", "--config", str(sample_cfg), "--out", str(out)],
        "plan": ["plan", "--epsilon", "0.5", "--d", "2", "--alpha", "0.7"],
        "bound": ["bound", "--config", str(bound_cfg)],
    }[case]
    monkeypatch.setenv("MOLLMC_WORKERS", "2")
    main(argv)
    expected_err = capsys.readouterr().err
    env = _env(MOLLMC_WORKERS="2")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run([sys.executable, "-m", "mollmc.cli", *argv], stdout=write_fd,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_fd)
    code = {"sample": EXIT_OK, "diverged": EXIT_DIVERGED}.get(case, EXIT_ERROR)
    assert (proc.returncode, proc.stderr) == (code, expected_err)
    if case in ("sample", "diverged"):
        summary = json.loads((out / "summary.json").read_text())
        assert len(list(out.glob("chain_*.csv"))) == len(summary["replicas"])


@pytest.mark.parametrize("error", ["directory", "broken-pipe"])
def test_an_error_writing_a_trace_is_still_an_error_line(tmp_path, capsys, monkeypatch, error):
    # only stdout's broken pipe is forgiven, not one from a trace file
    from mollmc import samplers

    cfg = dict(_SAMPLE_CONFIGS["lmc"], replicas=2)
    if error == "directory":
        trace = tmp_path / "out-w1" / "chain_0001.csv"
        trace.mkdir(parents=True)
        expected = f"error: [Errno 21] Is a directory: '{trace}'\n"
    else:
        def broken(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(samplers, "write_trace_csv", broken)
        expected = "error: [Errno 32] Broken pipe\n"
    code, out = _sample(tmp_path, cfg, "out", "1", monkeypatch)
    assert (code, capsys.readouterr().err) == (EXIT_ERROR, expected)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("watch", ["", "sys.setprofile(lambda *args: None)",
                                   "sys.settrace(lambda *args: None)"],
                         ids=["plain", "profiler", "tracer"])
def test_entry_skips_teardown_unless_watched(watch):
    # a profiler or tracer writes its results at exit, so the process then ends by
    # sys.exit and runs its atexit callbacks
    code = ("import atexit, sys\n"
            "atexit.register(print, 'teardown', file=sys.stderr)\n"
            f"{watch}\n"
            "sys.argv = ['mollmc', 'plan', '--epsilon', '0.5', '--d', '1', '--alpha', '1']\n"
            "from mollmc.cli import entry\n"
            "entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["plan"]["k"] == 3636
    assert proc.stderr == ("teardown\n" if watch else "")


def test_a_profiled_command_still_prints_its_profile():
    argv = ["-m", "cProfile", "-m", "mollmc.cli", "plan", "--epsilon", "0.5", "--d", "1",
            "--alpha", "1"]
    proc = subprocess.run([sys.executable, *argv], env=_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.startswith("{") and '"verification"' in proc.stdout
    assert "function calls" in proc.stdout and "Ordered by:" in proc.stdout


class _Left(Exception):
    pass


class _Stream:
    def __init__(self, error=None):
        self.error, self.flushed = error, False

    def flush(self):
        if self.error:
            raise self.error
        self.flushed = True


class _Monitoring:
    """``sys.monitoring`` (Python 3.12+) with cProfile's tool registered."""

    @staticmethod
    def get_tool(tool_id):
        return "cProfile" if tool_id == 2 else None


@pytest.mark.parametrize("error,monitoring", [
    (None, None), (BrokenPipeError(32, "Broken pipe"), None),
    (ValueError("I/O operation on closed file."), None), (None, _Monitoring())],
    ids=["flushed", "broken-pipe", "closed", "monitored"])
def test_entry_ends_by_sys_exit_when_a_flush_raises_or_a_tool_watches(monkeypatch, error,
                                                                      monitoring):
    def leave(how):
        def exit_(code):
            raise _Left(how, code)
        return exit_

    stdout, stderr = _Stream(error), _Stream()
    for name, value in [("stdout", stdout), ("stderr", stderr), ("exit", leave("sys.exit")),
                        ("getprofile", lambda: None), ("gettrace", lambda: None),
                        ("monitoring", monitoring)]:
        monkeypatch.setattr(sys, name, value, raising=False)
    monkeypatch.setattr(os, "_exit", leave("os._exit"))
    monkeypatch.setattr(cli, "main", lambda: EXIT_DIVERGED)
    with pytest.raises(_Left) as left:
        cli.entry()
    plain = error is None and monitoring is None
    assert left.value.args == ("os._exit" if plain else "sys.exit", EXIT_DIVERGED)
    assert stderr.flushed is plain


def test_bound_makes_an_overflowed_delta_vacuous(tmp_path, capsys):
    # omega(r)^2 / 2 is beyond float range at lam2 = 1e300: the inf was refused, and
    # bound exited 1 with "error: delta must be finite and nonnegative, got inf"
    cfg = dict(_SAMPLE_CONFIGS["ss_lmc"],
               potential={"name": "elastic_net_logistic", "d": 2, "params": {"lam2": 1e300}})
    cfg_path = tmp_path / "cfg.json"
    # the step-size cap m_tilde / (2 omega_G(1)^2) is 2.5e-301
    cfg_path.write_text(json.dumps(_with(cfg, ("chain", "eta"), 1e-302)))
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    assert out["vacuous"] is True and out["w2_bound"] is None
    # delta is an exact number now, so no note names it; what overflows says so
    assert out["kappa_inf"] is None and out["f_value"] is None
    assert out["notes"] == ["Poincare bound overflows float range; log value 1.45625e+301"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(
        "error: step size 0.02 outside the admissible range (0, 2.5e-301)")


def test_bound_takes_a_gradient_norm_beyond_float_range(tmp_path, capsys):
    # |grad U(0)| + omega(r) + omega(1) is beyond float range at lam2 = 1.7e308: bound
    # exited 1 with "error: g_tilde_mnorm must be finite and nonnegative, got inf"
    cfg = dict(_SAMPLE_CONFIGS["ss_lmc"],
               potential={"name": "elastic_net_logistic", "d": 2, "params": {"lam2": 1.7e308}},
               chain={"beta": 1.0, "eta": 1e-320, "k": 10, "seed": 3},
               smoothing={"r": 0.1, "n_batch": 4})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bound", "--config", str(cfg_path)]) == EXIT_OK
    captured = capsys.readouterr()
    out = json.loads(captured.out, parse_constant=_not_json)
    assert out["vacuous"] is True and out["w2_bound"] is None and captured.err == ""
    # the log itself is beyond float range: the note read "log value inf"
    assert out["c_p_log"] is None
    assert out["notes"] == ["Poincare bound overflows float range; log value 2.47562e+309"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_trace_too_large_to_allocate_is_an_error_line(tmp_path, monkeypatch, capsys, workers):
    # 1e17 steps of d = 10 is hundreds of PiB, beyond any address space, so the
    # allocation fails at once; it was a numpy traceback
    cfg = {"potential": {"name": "quadratic", "d": 10}, "algorithm": "lmc",
           "chain": {"beta": 1.0, "eta": 0.05, "k": 10**17, "seed": 3}, "replicas": 2}
    code, out = _sample(tmp_path, cfg, "huge", workers, monkeypatch)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_a_huge_l1_weight_is_quiet_or_one_line(tmp_path, capsys):
    # the b grid overflowed at lam1 = 5e307, a two-line numpy warning (an error
    # here), and at 1e308 the inf jump was refused as "jump", a field no config has
    cfg = _with(_LMC_D1, ("potential",),
                {"name": "elastic_net_logistic", "d": 2, "params": {"lam1": 5e307}})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(cfg, ("chain", "eta"), 1e-320)))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    cfg_path.write_text(json.dumps(_with(cfg, ("potential", "params", "lam1"), 1e308)))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out2")]) \
        == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: potential.params: lam1 = 1e+308 puts the sign jump 2 lam1 sqrt(d) "
        "beyond float range\n")


@pytest.mark.parametrize("algo", ["ss_lmc", "ss_sg_lmc"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_smoothed_mean_in_float_range_does_not_overflow(tmp_path, monkeypatch, capsys, algo,
                                                          workers):
    # the n_batch = 4 gradient terms near lam1 = 5e307 were summed before the sum was
    # divided: numpy's overflow warning and "replica 0 diverged at step 1", exit 3
    cfg = dict(_SAMPLE_CONFIGS[algo],
               potential={"name": "elastic_net_logistic", "d": 2, "params": {"lam1": 5e307}},
               chain={"beta": 1.0, "eta": 1e-320, "k": 10, "seed": 3},
               smoothing={"r": 0.1, "n_batch": 4}, replicas=2)
    if algo == "ss_sg_lmc":
        cfg["finite_sum"] = {"n_components": 1}
    code, out = _sample(tmp_path, cfg, algo, workers, monkeypatch)
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    summary = json.loads((out / "summary.json").read_text())
    assert [e["n_recorded"] for e in summary["replicas"]] == [11, 11]
