"""Command-line front end emitting machine-readable verification tables.

Four subcommands cover the verification campaigns:

* ``spectrum``      -- leading sinc-kernel eigenvalues at one c.
* ``asymptotics``   -- computed gap 1 - lambda_0 against its large-c form.
* ``sum-spectrum``  -- eigenvalues of chi + S against the 1 +/- sqrt(lambda_n) pairs.
* ``hardy``         -- tail bounds, quadratic-form chain, contradiction margins,
                       and the Landau-Pollak route, per omega.

Each command writes CSV (default) or JSON to stdout or ``--out``, with
floats at 17 significant digits so identical flags give byte-identical
output.  A human-readable summary goes to stderr.  Exit codes: 0 on
success, 2 for invalid or out-of-range arguments or an unwritable
``--out``, 3 for numerical failures.

Running a subcommand with no flags reproduces its default verification
scenario.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import (
    NumericalFailure,
    _require_dense_budget,
    _resolved_gap,
    asymptotic_gap_ratio,
    lambda0_asymptotic,
    prolate_spectrum,
)
from .hardy import (
    GaussianEnvelope,
    alt_proof_chain,
    envelope_tail_sum,
    freq_tail_bound,
    hardy_margin,
    landau_pollak_check,
    time_tail_bound,
)
from .operators import (
    GridFunction,
    _ritz_column_bound,
    build_limiting_operators,
    build_line_grid,
    sum_operator_spectrum,
)

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a float: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    values = [_finite_float(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def _render(command: str, columns: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"command": command, "columns": columns, "rows": rows}
    return json.dumps(payload, separators=(",", ":"), sort_keys=False) + "\n"


def cmd_spectrum(args) -> tuple[list[str], list[list], str]:
    spec = prolate_spectrum(args.c, args.modes)
    # Mode 0 has the smallest resolved gap, so it is the first row refused.
    rows = [
        [n, float(lam), float(_resolved_gap(args.c, lam))]
        for n, lam in enumerate(spec.eigenvalues)
    ]
    summary = (
        f"c={args.c:g}: lambda_0={spec.eigenvalues[0]:.12g}, "
        f"lambda_{spec.n_modes - 1}={spec.eigenvalues[-1]:.6g}"
    )
    return ["n", "eigenvalue", "gap"], rows, summary


def cmd_asymptotics(args) -> tuple[list[str], list[list], str]:
    rows = []
    for c in args.c:
        spec = prolate_spectrum(c, 1)
        lam0 = float(spec.eigenvalues[0])
        rows.append([c, lam0, lambda0_asymptotic(c), asymptotic_gap_ratio(c, lam0)])
    summary = "gap ratio r(c): " + ", ".join(
        f"r({row[0]:g})={row[3]:.6f}" for row in rows
    )
    return ["c", "lambda0_numeric", "lambda0_asymptotic", "gap_ratio"], rows, summary


def cmd_sum_spectrum(args) -> tuple[list[str], list[list], str]:
    # The Ritz basis is bounded from the arguments, before the grid is built.
    columns = _ritz_column_bound(args.L, args.n, args.tau, args.omega)
    _require_dense_budget(args.n, "Ritz basis of chi + S", cols=columns)
    grid = build_line_grid(args.L, args.n)
    ops = build_limiting_operators(grid, args.tau, args.omega)
    report = sum_operator_spectrum(ops, args.modes, prolate_spectrum(ops.c, args.modes))
    rows = [
        [k, side, float(matched[k]), float(predicted[k]), float(residuals[k])]
        for side, matched, predicted, residuals in (
            ("above", report.matched_above, report.predicted_above, report.residuals_above),
            ("below", report.matched_below, report.predicted_below, report.residuals_below),
        )
        for k in range(args.modes)
    ]
    summary = (
        f"tau={args.tau:g} omega={args.omega:g} L={args.L:g} n={args.n}: "
        f"max residual above={report.residuals_above.max():.3e}, "
        f"below={report.residuals_below.max():.3e}, lambda_min={report.lambda_min:.6g}, "
        f"ritz_bound={report.ritz_bound:.3e}"
    )
    return ["k", "side", "computed", "predicted", "residual"], rows, summary


def cmd_hardy(args) -> tuple[list[str], list[list], str]:
    env = GaussianEnvelope(M=args.M, a=2.0, b=2.0)
    rows = []
    for omega in args.omega:
        tau = omega  # symmetric point of the argument
        margin = hardy_margin(omega, args.M)
        chain = envelope_tail_sum(env, tau, omega)

        c = omega * omega
        spec = prolate_spectrum(c, 1)
        alt = alt_proof_chain(omega, args.M, spec)  # refuses a roundoff lambda_0 before the grid
        # 2qs panels of order 5, omega / s wide, put +/- omega on panel edges.
        q, s = math.ceil((max(5.0 * tau, 5.0) + 10.0 / omega) / omega), math.ceil(4.0 * omega)
        grid = build_line_grid(q * omega, 10 * q * s)
        gauss = GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))).normalized()
        lp = landau_pollak_check(gauss, 2.0 * omega, omega, spec)

        rows.append(
            [
                omega,
                time_tail_bound(env, tau),
                freq_tail_bound(env, omega),
                chain,
                margin.rhs,
                margin.lhs,
                margin.ratio,
                lp.margin,
                alt.contradiction_ratio,
            ]
        )
    summary = (
        f"M={args.M:g}, a=b=2, tau=omega: contradiction ratio grows "
        + " -> ".join(f"{row[6]:.4g}" for row in rows)
    )
    return (
        [
            "omega",
            "time_tail_bound",
            "freq_tail_bound",
            "quadratic_form",
            "form_bound",
            "margin_lhs",
            "margin_ratio",
            "lp_margin",
            "alt_contradiction_ratio",
        ],
        rows,
        summary,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolate",
        description="Spectral verification tables for time/band-limiting operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="leading sinc-kernel eigenvalues at one c")
    p.add_argument("--c", type=_finite_float, default=3.0)
    p.add_argument("--modes", type=int, default=6)
    add_io(p)
    p.set_defaults(run=cmd_spectrum)

    p = sub.add_parser("asymptotics", help="gap 1 - lambda_0 against its large-c form")
    p.add_argument("--c", type=_float_list, default=[2.0, 4.0, 6.0, 8.0])
    add_io(p)
    p.set_defaults(run=cmd_asymptotics)

    p = sub.add_parser("sum-spectrum", help="spectrum of chi + S against predictions")
    p.add_argument("--tau", type=_finite_float, default=1.0)
    p.add_argument("--omega", type=_finite_float, default=3.0)
    p.add_argument("--L", type=_finite_float, default=30.0)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--modes", type=int, default=6)
    add_io(p)
    p.set_defaults(run=cmd_sum_spectrum)

    p = sub.add_parser("hardy", help="uncertainty chains per omega")
    p.add_argument("--omega", type=_float_list, default=[1.5, 2.0, 2.5])
    p.add_argument("--M", type=_finite_float, default=1.0)
    add_io(p)
    p.set_defaults(run=cmd_hardy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows, summary = args.run(args)
        content = _render(args.command, columns, rows, args.format)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:  # before ValueError, LinAlgError's base
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: argument out of range: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(content)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(content)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
