"""One benchmark process: set up a workload, run it in a closed loop, report.

Started by ``run.py`` with the BLAS thread count pinned in its
environment and ``src`` on ``PYTHONPATH``.  Prints one JSON object as its
last line of standard output.  ``--setup-only`` stops at the point where
the first operation would start, which is how ``run.py`` samples set-up
time more than once per run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import prolate
import prolate.cli

from checks import Checker, run_negative_controls
from spans import Tracer
from workloads import WORKLOADS, CliCold

MIB = 1024.0 * 1024.0

# Per-layer metrics, per operation, taken from the trace summary:
# metric name -> (span name, field).
LAYER_METRICS = {
    "core.prolate_spectrum.calls": ("core.prolate_spectrum", "calls"),
    "core.prolate_spectrum.self_s": ("core.prolate_spectrum", "self_s"),
    "core.nystrom_matrix.s": ("core.nystrom_matrix", "s"),
    "core.pswf_extend.s": ("core.pswf_extend", "s"),
    "operators.build_band_limiter.s": ("operators.build_band_limiter", "s"),
    "operators.sum_operator_spectrum.self_s": ("operators.sum_operator_spectrum", "self_s"),
    "operators.build_line_grid.s": ("operators.build_line_grid", "s"),
    "operators.build_limiting_operators.self_s": ("operators.build_limiting_operators", "self_s"),
    "operators.eigenfunction_witness.s": ("operators.eigenfunction_witness", "s"),
    "operators.zero_spectrum_witness.s": ("operators.zero_spectrum_witness", "s"),
    "hardy.concentration_beta.calls": ("hardy.concentration_beta", "calls"),
    "hardy.concentration_beta.s": ("hardy.concentration_beta", "s"),
    "hardy.quadratic_form.s": ("hardy.quadratic_form", "s"),
    "hardy.landau_pollak_check.self_s": ("hardy.landau_pollak_check", "self_s"),
    "hardy.alt_proof_chain.s": ("hardy.alt_proof_chain", "s"),
    "hardy.envelope_tail_sum.s": ("hardy.envelope_tail_sum", "s"),
    "cli.main.s": ("cli.main", "s"),
}


def _order_squared(args, kwargs, index: int, name: str) -> float:
    """Square of the size of a grid (or node array) argument."""
    value = args[index] if len(args) > index else kwargs[name]
    n = value.size if hasattr(value, "size") else len(value)
    return float(n) * float(n)


# Counters recorded at the call boundary, from the arguments alone.
COUNTS = {
    "core.nystrom_matrix": lambda a, k: {
        "core.nystrom_matrix.kernel_evals": _order_squared(a, k, 1, "nodes"),
    },
    "operators.build_band_limiter": lambda a, k: {
        "operators.build_band_limiter.kernel_evals": _order_squared(a, k, 0, "grid"),
        "operators.dense_matrix_mb": 8.0 * _order_squared(a, k, 0, "grid") / MIB,
    },
    # T = diag(chi) + S is a second dense n x n matrix.
    "operators.build_limiting_operators": lambda a, k: {
        "operators.dense_matrix_mb": 8.0 * _order_squared(a, k, 0, "grid") / MIB,
    },
}
COUNTER_METRICS = {
    "core.nystrom_matrix.kernel_evals": "count",
    "operators.build_band_limiter.kernel_evals": "count",
    "operators.dense_matrix_mb": "MB",
}


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
            "pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(prolate.__file__).resolve().parents:
        print(f"prolate was imported from {prolate.__file__}, not from {src}", file=sys.stderr)
        return 2

    modules = SimpleNamespace(core=prolate.core, operators=prolate.operators, hardy=prolate.hardy, cli=prolate.cli)
    cls = WORKLOADS[args.workload]
    if cls is CliCold:
        # Traced: in-process and warm, so the cli layer's spans are seen.
        workload = CliCold(args.seed, modules, env=dict(os.environ), warm=bool(args.trace))
    else:
        workload = cls(args.seed, modules)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(
            {"core": prolate.core, "operators": prolate.operators, "hardy": prolate.hardy, "cli": prolate.cli},
            [prolate, prolate.core, prolate.operators, prolate.hardy, prolate.cli],
            COUNTS,
        )

    times, cpu_total = [], 0.0
    attempted = failed = rounds = 0
    failures, unexpected = [], []
    control_record = None
    start = time.perf_counter()
    while True:
        for op in workload.round():
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                record = tracer.call("op", op.run) if tracer else op.run()
            except Exception as exc:  # a crash fails the operation, not the run
                record, error = None, f"{type(exc).__name__}: {exc}"
            t1, cpu1 = time.perf_counter(), _cpu_seconds()
            times.append(t1 - t0)
            cpu_total += cpu1 - cpu0
            attempted += 1
            ck = Checker()
            if record is None:
                ck.require("exception", False, error)
            else:
                workload.verify(workload.inputs, record, ck)
            if ck.failures:
                failed += 1
                messages = ck.messages()
                if len(failures) < 20:
                    failures.append({"op": attempted - 1, "known_fault": op.known_fault, "failures": messages})
                if not op.known_fault:
                    unexpected.extend(messages)
            elif control_record is None and not op.known_fault:
                control_record = record
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop at the round boundary nearest to the requested duration.
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break

    if control_record is None:
        accepted = ["no passing operation to perturb"]
    else:
        accepted = run_negative_controls(
            workload.verify, workload.inputs, control_record, workload.controls(control_record)
        )

    rss_who = resource.RUSAGE_CHILDREN if (cls is CliCold and not args.trace) else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "measured_s": elapsed,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "op_s": times,
        "op_s.p50": statistics.median(times),
        "cpu_s.per_op": cpu_total / attempted,
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
        "failures": failures,
        "unexpected_failures": unexpected[:20],
        "controls_accepted": accepted,
        "environment": environment(),
    }
    if tracer is not None:
        summary = tracer.summary()
        # [value per operation, unit]; a layer the workload never reaches reads 0.
        layers = {}
        for metric, (span, field) in LAYER_METRICS.items():
            unit = "count" if field == "calls" else "s"
            layers[metric] = [summary.get(span, {}).get(field, 0) / attempted, unit]
        for metric, unit in COUNTER_METRICS.items():
            layers[metric] = [tracer.counters.get(metric, 0.0) / attempted, unit]
        result["layers"] = layers
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
