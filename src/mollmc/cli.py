"""Configuration-driven experiment runner.

Subcommands:

* ``sample`` runs replicated chains from a JSON config, writing one CSV
  trace per replica plus a JSON summary,
* ``plan`` evaluates a parameter schedule for a target accuracy and prints
  it with verification margins (optionally feeding it into ``sample``),
* ``bound`` evaluates every envelope constant for a configured run.

The config is one JSON file with nested keys.  ``_KEYS`` is the reference for
its format: it maps each key path to its rule, which takes ``(name, value)``
and raises a ``ValueError`` unless the value is what the key must be, and
``_REQUIRED`` lists the keys each algorithm needs.  The numeric rules, for
keys and flags alike, are :mod:`mollmc._args`'; only the JSON shapes are
stated here.  Every key is checked wherever it appears, whatever the
algorithm.  Unknown and repeated keys are errors, not warnings, because a
silently ignored misspelling or value is the main failure mode of numerical
experiments.  Every output embeds the config hash and the seed it was produced
from.  Replica ``i`` runs under the seed :func:`mollmc.samplers.derive_seed`
derives from the root seed, so re-running any experiment with the same config
and seed reproduces the trace files byte for byte regardless of worker
scheduling.

``sample`` splits the replicas into one contiguous shard per worker
(``MOLLMC_WORKERS``, default one per CPU the process may run on).  It forms
the config hash, the oracle, the chain config and the replicas' seeds once,
for every shard, and like every command builds the potential once, in
:func:`build_oracle`.  A lone shard runs in the ``sample`` process; at two or
more workers each shard runs in a child forked before any shard starts.  A
shard steps its replicas in lockstep through :func:`mollmc.samplers.run` and
writes their CSVs, and a child sends back only its summary entries.  A
replica's ``elapsed_s`` is the wall time of the lockstep group it ran in, the
whole shard unless the shard is large.  The trace files and the rest of the
summary do not depend on the worker count.

This module imports only the standard library and :mod:`mollmc._args` at the
top.  Each subcommand imports what it runs inside the functions that run it.
``plan`` loads mpmath and :mod:`mollmc.planner`, and numpy only when
``--execute`` runs the plan; it loads neither ``dataclasses`` (whose import of
``inspect`` costs about 13 ms) nor ``hashlib``, which only a config's hash
needs.  ``sample`` loads numpy, :mod:`mollmc.potentials`,
:mod:`mollmc.samplers` and :mod:`mollmc.metrics`, but not mpmath.  ``bound``
loads mpmath for :mod:`mollmc.bounds`, which imports no numpy, and numpy
through :mod:`mollmc.potentials`.  None of them loads scipy.

The ``mollmc`` script and ``python -m mollmc.cli`` run :func:`entry`, which
flushes stdout and stderr once :func:`main` returns and ends the process by
``os._exit``, as a forked shard does.  Tearing the interpreter down would cost
25-37 ms and serves no output: every file is closed by ``with`` and every shard
reaped before :func:`main` returns.  A profiler, tracer or monitoring tool
(cProfile, coverage) writes its results at exit, so with one installed, or when
a flush raises, the process ends by ``sys.exit`` as before.  :func:`main` itself
returns its code, and an exception or argparse's ``SystemExit`` leaves the
normal way.  A stdout whose reader has gone is no error line: ``sample``, whose
outputs are its files, keeps its run's exit code, and ``plan`` and ``bound``,
whose output is stdout, exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import _args

ALGORITHMS = ("lmc", "ss_lmc", "ss_sg_lmc")
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 3
EXIT_REFUSED = 4


# The JSON-shape rules; the numeric ones are mollmc._args'.
_OBJECT = _args.rule("must be an object", lambda v: isinstance(v, dict))
_TEXT = _args.rule("must be a non-empty string", lambda v: isinstance(v, str) and v != "")
_LIST = _args.rule("must be a list", lambda v: isinstance(v, list))


def _integral(check):
    """``check`` for a JSON count or seed.  An integral number such as ``2.0`` is
    checked as ``int(2.0)`` and anything else as it is, so ``2.7``, ``true``
    and ``"3"`` fail, though ``int()`` would take each of them."""
    def integral(name: str, value):
        try:
            check(name, int(value) if isinstance(value, float) and value.is_integer() else value)
        except ValueError:
            check(name, value)  # no float passes: this names the value as written
        return value
    return integral


def _reals(name: str, value):
    """A list of finite real numbers."""
    for i, entry in enumerate(_LIST(name, value)):
        _args.finite(f"{name}[{i}]", entry)
    return value


_COUNT = _integral(_args.count)

# Every key a config may hold; ("potential", "params", "*") stands for any
# parameter name.  A key is checked against its rule wherever it appears,
# whatever the algorithm, and a key that is not here is an error.
_KEYS = {
    ("potential",): _OBJECT,
    ("potential", "name"): _TEXT,
    ("potential", "d"): _COUNT,
    ("potential", "params"): _OBJECT,
    ("potential", "params", "*"): _args.finite,
    ("algorithm",): _args.rule(f"must be one of {ALGORITHMS}", lambda v: v in ALGORITHMS),
    ("chain",): _OBJECT,
    ("chain", "beta"): _args.positive,
    ("chain", "eta"): _args.positive,
    ("chain", "k"): _COUNT,
    ("chain", "seed"): _integral(_args.seed),
    ("chain", "record_stride"): _COUNT,
    ("chain", "x0"): _reals,
    ("smoothing",): _OBJECT,
    ("smoothing", "r"): _args.unit,
    ("smoothing", "n_batch"): _COUNT,
    ("finite_sum",): _OBJECT,
    ("finite_sum", "n_components"): _COUNT,
    ("replicas",): _COUNT,
    ("outputs",): _TEXT,
}

# The keys each algorithm needs.
_LMC_KEYS = (("potential",), ("potential", "name"), ("potential", "d"), ("algorithm",), ("chain",),
             *(("chain", key) for key in ("beta", "eta", "k", "seed")))
_SMOOTHED_KEYS = (*_LMC_KEYS, ("smoothing",), ("smoothing", "r"), ("smoothing", "n_batch"))
_REQUIRED = {"lmc": _LMC_KEYS, "ss_lmc": _SMOOTHED_KEYS,
             "ss_sg_lmc": (*_SMOOTHED_KEYS, ("finite_sum",), ("finite_sum", "n_components"))}


def _walk(node: dict, path: tuple) -> None:
    """Check each key under ``node`` against its rule in ``_KEYS``."""
    for key, value in node.items():
        sub = (*path, key)
        rule = _KEYS.get(sub, _KEYS.get((*path, "*")))
        if rule is None:
            raise ValueError(f"unknown key {key!r} in {'.'.join(path) or 'config'}")
        rule(".".join(sub), value)
        if rule is _OBJECT:
            _walk(value, sub)


def validate_config(cfg: dict) -> dict:
    """Check the config against ``_KEYS`` and ``_REQUIRED``; returns it unchanged.
    The potential's own range checks run where :func:`build_oracle` builds it."""
    from .potentials import BUILTIN_NAMES

    _OBJECT("config", cfg)
    _walk(cfg, ())
    # an absent algorithm is reported as missing by the lmc list
    for *head, key in _REQUIRED.get(cfg.get("algorithm"), _LMC_KEYS):
        parent = cfg
        for step in head:
            parent = parent[step]
        if key not in parent:
            raise ValueError(f"{'.'.join(head) or 'config'} is missing required key {key!r}")

    pot, x0 = cfg["potential"], cfg["chain"].get("x0")
    if pot["name"] not in BUILTIN_NAMES:
        raise ValueError(f"potential.name must be one of {BUILTIN_NAMES}, got {pot['name']!r}")
    if x0 is not None and len(x0) != pot["d"]:
        raise ValueError(f"chain.x0 must be of length potential.d = {pot['d']}, got {x0!r}")
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key, whose first value ``json``
    would silently drop, is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in the config")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh, object_pairs_hook=_unique_keys))


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    import hashlib  # here, not at the top: plan without --execute hashes nothing

    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def build_oracle(cfg: dict):
    from .potentials import FiniteSumPotential, builtin
    from .samplers import ExactGradient, FiniteSumSpherical, SphericalSmoothed

    algo, pot = cfg["algorithm"], cfg["potential"]
    try:
        p = builtin(pot["name"], int(pot["d"]), **pot.get("params", {}))
    except ValueError as err:
        raise ValueError(f"potential.params: {err}") from None
    if algo == "lmc":
        return ExactGradient(p)
    sm = cfg["smoothing"]
    if algo == "ss_lmc":
        return SphericalSmoothed(p, r=float(sm["r"]), n_batch=int(sm["n_batch"]))
    fs = FiniteSumPotential.equal_split(p, int(cfg["finite_sum"]["n_components"]))
    return FiniteSumSpherical(fs, r=float(sm["r"]), n_batch=int(sm["n_batch"]))


def build_chain_config(cfg: dict):
    from .samplers import ChainConfig

    chain = cfg["chain"]
    return ChainConfig(
        beta=float(chain["beta"]),
        eta=float(chain["eta"]),
        k=int(chain["k"]),
        x0=tuple(float(v) for v in chain["x0"]) if "x0" in chain else None,
        record_stride=int(chain.get("record_stride", 1)),
    )


def _n_workers(replicas: int) -> int:
    env = os.environ.get("MOLLMC_WORKERS", "")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"MOLLMC_WORKERS must be an integer, got {env!r}") from None
        _args.count("MOLLMC_WORKERS", workers)
    else:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(workers, replicas) if hasattr(os, "fork") else 1


def _run_shard(digest: str, oracle, chain, seeds: list, lo: int, hi: int, out_dir: Path):
    """Run replicas ``lo .. hi - 1`` in lockstep; write their CSVs, return their entries."""
    from .metrics import moment_report
    from .samplers import run, write_trace_csv

    traces = run(oracle, chain, seeds[lo:hi])
    entries = []
    for index, seed, trace in zip(range(lo, hi), seeds[lo:hi], traces):
        fname = f"chain_{index:04d}.csv"
        write_trace_csv(
            trace, out_dir / fname, provenance={"config": digest, "seed": seed, "replica": index}
        )
        entry = {"replica": index, "seed": seed, "file": fname, "elapsed_s": trace.elapsed,
                 "n_recorded": int(trace.n_recorded), "diverged_at": trace.diverged_at}
        if trace.diverged_at is None and trace.n_recorded > 1:
            entry["moments"] = moment_report(trace, m=oracle.potential.m)
        entries.append(entry)
    return entries


def _run_shards(shards: list, run_shard) -> list[dict]:
    """``run_shard(lo, hi)`` for each shard ``(lo, hi)``, their entries in shard order.
    A lone shard runs here; of several, each runs in a child forked before any starts
    (one run here would add the library pages this process touched to the run's peak
    RSS).  A child pickles its entries or exception into a pipe and leaves by
    ``os._exit``, never flushing stdio it shares with this process.  Every child is
    reaped before anything is raised, and errors are raised in shard order; a child
    that sends nothing is an OSError."""
    if len(shards) == 1:
        return run_shard(*shards[0])
    import pickle

    children, results = [], []
    try:
        for lo, hi in shards:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    os.close(read_fd)
                    try:
                        result = run_shard(lo, hi)
                    except BaseException as err:  # the parent raises it
                        result = err
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(result, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((lo, hi, pid, open(read_fd, "rb")))
    finally:
        for lo, hi, pid, pipe in children:
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            results.append(pickle.loads(data) if code == 0 else OSError(
                f"the process running replicas {lo} to {hi - 1} ended with no result ({how})"))
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return [entry for result in results for entry in result]


def run_experiment(cfg: dict, root_seed: int, out_dir: Path) -> dict:
    """Run all replicas of a validated config and write traces + summary, one contiguous
    shard per worker; the digest, oracle, chain config and seeds are formed once for all."""
    from . import metrics  # noqa: F401 - loaded once, before the forks
    from .samplers import derive_seed

    digest, oracle, chain = config_hash(cfg), build_oracle(cfg), build_chain_config(cfg)
    replicas = int(cfg.get("replicas", 1))
    workers = _n_workers(replicas)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [derive_seed(root_seed, i) for i in range(replicas)]
    cuts = [replicas * w // workers for w in range(workers + 1)]
    entries = _run_shards(list(zip(cuts[:-1], cuts[1:])), lambda lo, hi: _run_shard(
        digest, oracle, chain, seeds, lo, hi, out_dir))

    summary = {
        "config": cfg,
        "config_sha256": digest,
        "root_seed": int(root_seed),
        "replicas": entries,
        "diverged": any(e["diverged_at"] is not None for e in entries),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary


def _print_out(text: str) -> bool:
    """Print ``text`` to stdout and flush it; False when stdout's reader has gone.
    Stdout then writes to ``os.devnull``, so no later flush raises."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return False
    return True


def _execute(cfg: dict, args, announce: bool) -> int:
    """Run a validated config into ``--out`` or its ``outputs``, from ``--seed`` or
    its chain seed; name each diverged replica on stderr."""
    out = args.out or cfg.get("outputs")
    if not out:
        print("error: no output directory (set 'outputs' in the config or pass --out)",
              file=sys.stderr)
        return EXIT_ERROR
    root_seed = int(args.seed) if args.seed is not None else int(cfg["chain"]["seed"])
    summary = run_experiment(cfg, root_seed, Path(out))
    if announce:  # the run's outputs are its files, so a closed stdout does not fail it
        _print_out(json.dumps({
            "config_sha256": summary["config_sha256"],
            "root_seed": summary["root_seed"],
            "diverged": summary["diverged"],
            "replicas": len(summary["replicas"]),
            "out": str(out),
        }, sort_keys=True))
    for entry in summary["replicas"]:
        if entry["diverged_at"] is not None:
            print(f"replica {entry['replica']} diverged at step {entry['diverged_at']}",
                  file=sys.stderr)
    return EXIT_DIVERGED if summary["diverged"] else EXIT_OK


def cmd_sample(args) -> int:
    return _execute(load_config(args.config), args, announce=True)


def cmd_plan(args) -> int:
    for flag, value in (("--seed", args.seed), ("--out", args.out)):
        if value is not None and not args.execute:
            raise ValueError(f"{flag} needs --execute")
    import mpmath as mp

    from .planner import PRECISION_DPS, PlanRequest, plan_lmc, plan_ss_sg_lmc, verify_plan

    _args.count("--cap", args.cap)
    req = PlanRequest(
        epsilon=args.epsilon,
        d=args.d,
        c_const=args.c_const,
        alpha=args.alpha,
        m=args.m,
        omega_one=args.omega_one,
    )
    if args.algorithm == "lmc":
        plan = plan_lmc(req)
    else:
        plan = plan_ss_sg_lmc(req)
    report = verify_plan(plan, req)
    plan_info = plan.to_dict()
    # k can have more digits than the interpreter turns into text by default
    # (a limit since Python 3.10.7), so the limit is lifted for this print only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        printed = _print_out(json.dumps({"plan": plan_info, "verification": report.to_dict()},
                                        indent=2))
    finally:
        set_limit(limit)
    if not printed:
        return EXIT_ERROR

    if not report.passed:
        if args.execute:
            failing = ", ".join(item.name for item in report.failures())
            print(f"error: the plan fails verification ({failing}); not run", file=sys.stderr)
        return EXIT_ERROR
    if not args.execute:
        return EXIT_OK
    if plan.k > args.cap:
        with mp.workdps(PRECISION_DPS):
            k_str = mp.nstr(mp.mpf(plan.k), 6)
        print(
            f"refusing to execute: k = {k_str} exceeds the cap "
            f"{args.cap} (log10 k = {plan_info['log10_k']})",
            file=sys.stderr,
        )
        return EXIT_REFUSED
    if not args.config:
        print("error: --execute needs --config with the potential/chain template",
              file=sys.stderr)
        return EXIT_ERROR
    cfg = load_config(args.config)
    # the schedule is verified for one algorithm and dimension only
    if cfg["algorithm"] != plan.algorithm or int(cfg["potential"]["d"]) != args.d:
        print(
            f"error: the plan is for algorithm {plan.algorithm!r} at d = {args.d}, but the "
            f"config runs {cfg['algorithm']!r} at d = {cfg['potential']['d']}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    cfg["chain"]["k"] = int(plan.k)
    cfg["chain"]["eta"] = float(plan.eta)
    if plan.algorithm == "ss_sg_lmc":
        cfg["smoothing"]["r"] = float(plan.r)
        cfg["smoothing"]["n_batch"] = int(plan.n_batch)
    return _execute(validate_config(cfg), args, announce=False)


def cmd_bound(args) -> int:
    from .bounds import inputs_from, theorem_bound

    _args.positive("--a-abs", args.a_abs)
    cfg = load_config(args.config)
    oracle = build_oracle(cfg)
    if args.r is not None:
        _args.unit("--r", args.r)
    elif oracle.n_batch == 0:
        print("error: exact-gradient configs need --r (analysis radius)", file=sys.stderr)
        return EXIT_ERROR
    chain = build_chain_config(cfg)
    if chain.x0 is not None:
        print("error: bound evaluation needs the gaussian initial law "
              "(a point mass has no density)", file=sys.stderr)
        return EXIT_ERROR
    inputs = inputs_from(oracle, beta=chain.beta, r=args.r, a_abs=args.a_abs)
    tb = theorem_bound(inputs, eta=chain.eta, k=chain.k)
    payload = {**tb.to_dict(), "config_sha256": config_hash(cfg), "r": inputs.r,
               "eta": chain.eta, "k": chain.k}
    printed = _print_out(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK if printed else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mollmc",
        description="Langevin sampling experiments with explicit error-bound arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run replicated chains from a config")
    p_sample.add_argument("--config", required=True, help="JSON experiment config")
    p_sample.add_argument("--seed", type=int, default=None, help="override the root seed")
    p_sample.add_argument("--out", default=None, help="override the output directory")
    p_sample.set_defaults(func=cmd_sample)

    p_plan = sub.add_parser("plan", help="evaluate a parameter schedule")
    p_plan.add_argument("--algorithm", choices=("lmc", "ss_sg_lmc"), default="lmc")
    p_plan.add_argument("--epsilon", type=float, required=True)
    p_plan.add_argument("--d", type=int, required=True)
    p_plan.add_argument("--alpha", type=float, default=None,
                        help="gradient regularity exponent (lmc only)")
    p_plan.add_argument("--c-const", type=float, default=1.0, dest="c_const")
    p_plan.add_argument("--m", type=float, default=1.0)
    p_plan.add_argument("--omega-one", type=float, default=1.0, dest="omega_one")
    p_plan.add_argument("--execute", action="store_true",
                        help="feed the plan into sample (needs --config)")
    p_plan.add_argument("--cap", type=int, default=1_000_000,
                        help="largest k that --execute will run")
    p_plan.add_argument("--config", default=None)
    p_plan.add_argument("--seed", type=int, default=None)
    p_plan.add_argument("--out", default=None)
    p_plan.set_defaults(func=cmd_plan)

    p_bound = sub.add_parser("bound", help="evaluate the error envelope for a config")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--r", type=float, default=None, help="analysis radius of an lmc config")
    p_bound.add_argument("--a-abs", type=float, default=1.0, dest="a_abs",
                         help="absolute constant of the Poincare bound")
    p_bound.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _args.seed("--seed", args.seed)
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    """Run :func:`main` as a command: flush stdout and stderr, then end the process
    by ``os._exit``, skipping the interpreter's teardown.  ``sys.exit`` ends it
    instead when a flush raises or a profiler, tracer or monitoring tool is
    installed, since those write their results at exit."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage
    if (sys.getprofile() is None and sys.gettrace() is None
            and not (monitoring and any(monitoring.get_tool(i) for i in range(6)))):
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
