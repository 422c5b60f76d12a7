"""Run one ``mollmc`` command with spans recorded around each layer's public calls.

    python traced_cli.py SPANS.npz -- sample --config cfg.json --out dir

Wraps the functions below in their defining modules and under the names
``mollmc.cli`` and ``mollmc.samplers`` imported, runs ``mollmc.cli.main``
and writes every span (name, start, end, parent, units) to ``SPANS.npz``
when the command ends.  ``units`` is the work a call did: points evaluated by
``weak_grad``, kernel draws by ``mollifier.sample``, steps by ``prep_block``
and ``run``, bytes by ``write_trace_csv``.  Spans only see this process, so
``sample`` must run with ``MOLLMC_WORKERS=1``.  The exit code is mollmc's.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from array import array

import numpy as np


class Spans:
    """Spans kept in flat arrays; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.units = array("d")
        self.open = -1

    def wrap(self, name: str, fn, units=None):
        ident = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            parent = self.open
            self.name.append(ident)
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
            self.units.append(1.0)
            self.open = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.open = parent
                self.start[idx] = t0
                self.end[idx] = t1
            if units is not None:
                self.units[idx] = units(args, kwargs, result)
            return result

        return traced

    def save(self, path, **extra):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            units=np.frombuffer(self.units),
            **extra,
        )


def _points(args, kwargs, result):
    x = np.asarray(args[1])
    return float(x.shape[0]) if x.ndim > 1 else 1.0


def _draws(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1.0 if size is None else float(size)


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[1]))


def install(spans: Spans) -> None:
    """Replace the traced functions by wrappers wherever mollmc looks them up."""
    from mollmc import bounds, cli, metrics, mollifier, planner, potentials, samplers

    def patch(name, modules, attr, units=None):
        wrapped = spans.wrap(name, getattr(modules[0], attr), units)
        for mod in modules:
            setattr(mod, attr, wrapped)

    weak_grad = spans.wrap("potentials.weak_grad", lambda f, x: f(x), _points)
    builtin = potentials.builtin

    def traced_builtin(*args, **kwargs):
        spec = builtin(*args, **kwargs)
        inner = spec.weak_grad
        return dataclasses.replace(spec, weak_grad=lambda x: weak_grad(inner, x))

    potentials.builtin = cli.builtin = traced_builtin

    patch("mollifier.sample", (mollifier,), "sample", _draws)
    samplers._kernel_sample = mollifier.sample
    for cls in (samplers.ExactGradient, samplers.SphericalSmoothed, samplers.FiniteSumSpherical):
        prep = spans.wrap("samplers.prep_block", cls.prep_block, lambda a, k, r: float(a[1]))
        setattr(cls, "prep_block", prep)
        setattr(cls, "grad_at", spans.wrap("samplers.grad_at", cls.grad_at))
    patch("samplers.run", (samplers, cli), "run", lambda a, k, r: float(a[1].k))
    patch("samplers.write_trace_csv", (samplers, cli), "write_trace_csv", _file_bytes)
    patch("metrics.moment_report", (metrics, cli), "moment_report")
    patch("cli.run_experiment", (cli,), "run_experiment")
    for attr in ("plan_lmc", "plan_ss_sg_lmc", "verify_plan"):
        patch(f"planner.{attr}", (planner, cli), attr)
    patch("bounds.inputs_from", (bounds,), "inputs_from")
    patch("bounds.theorem_bound", (bounds, planner), "theorem_bound")


def main(argv) -> int:
    spans_path, sep, *mollmc_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.npz -- <mollmc arguments>")
    t0 = time.perf_counter()
    import mollmc.cli

    import_s = time.perf_counter() - t0
    spans = Spans()
    install(spans)
    code = 1
    try:
        code = mollmc.cli.main(mollmc_args)
    finally:
        spans.save(spans_path, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
