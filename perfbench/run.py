"""Benchmark of the ``prolate`` verifier: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sum-spectrum, hardy-chain, prolate-sweep, cli-cold (see
README.md).  The program is imported from ``src`` of the checkout; BLAS
runs on one thread in every process this starts.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics.  A record of
the run, with the machine and versions, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sum-spectrum", "hardy-chain", "prolate-sweep", "cli-cold")
BLAS_THREADS = "1"
# Set-up is sampled by this many extra processes, plus the measuring one.
# Half run before the measuring worker and half after it: the machine's
# speed drifts over tens of seconds, and the median then spans the run.
SETUP_PROBES = 4
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
# Leaves room within the 180 s a run may take.
WORKER_SLACK_S = 100


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PERFBENCH_SRC"] = str(SRC)
    return env


def worker(args, env, extra, timeout) -> tuple[dict, float]:
    """Run worker.py; return its JSON result and the monotonic time it was started."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def import_times(env) -> dict:
    """Cold ``import prolate`` and, within it, ``scipy.special`` (cumulative, -X importtime)."""
    samples = {"import.prolate_s": [], "import.scipy_special_s": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import prolate"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("import prolate failed")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        # A module not imported by ``import prolate`` costs it nothing.
        samples["import.prolate_s"].append(cumulative["prolate"])
        samples["import.scipy_special_s"].append(cumulative.get("scipy.special", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "prolate" / "__init__.py").is_file():
        print(f"error: no prolate package under {SRC}", file=sys.stderr)
        return 2
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    timeout = args.seconds + WORKER_SLACK_S

    setups = []
    try:
        if args.trace:
            metrics = {name: (value, "s") for name, value in import_times(env).items()}
            spans = OUT / f"{stem}.spans.json"
            result, _ = worker(args, env, ["--spans-out", str(spans)], timeout)
            metrics.update((name, tuple(pair)) for name, pair in result["layers"].items())
        else:
            def probe():
                out, started = worker(args, env, ["--setup-only"], PROBE_TIMEOUT_S)
                setups.append(out["ready"] - started)

            for _ in range(SETUP_PROBES // 2):
                probe()
            result, started = worker(args, env, [], timeout)
            setups.append(result["ready"] - started)
            for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
                probe()
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "op_s.p50": (result["op_s.p50"], "s"),
                "cpu_s.per_op": (result["cpu_s.per_op"], "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = not result["unexpected_failures"] and not result["controls_accepted"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "setup_samples_s": setups,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **{k: v for k, v in result.items() if k not in ("layers", "ready")},
        **provenance(),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in result["failures"]:
        print(f"failed op {failure['op']}{' (known fault)' if failure['known_fault'] else ''}: "
              + "; ".join(failure["failures"]), file=sys.stderr)
    for name in result["controls_accepted"]:
        print(f"negative control not rejected: {name}", file=sys.stderr)
    blas = result["environment"]["blas"]
    print(f"{args.workload} seed={args.seed}: {result['attempted']} attempted, {result['failed']} failed, "
          f"{result['rounds']} rounds in {result['measured_s']:.2f} s; "
          f"{blas['name']} {blas['version']} on {blas['threads']} thread(s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
