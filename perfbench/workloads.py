"""The four workloads: seeded inputs, one operation, and its checks.

Each workload is a closed loop: one process runs one operation at a time.
A workload object is built once per process (that is set-up time) and
then hands out rounds of operations.  Operations call the program only
through module attributes (``self.core.prolate_spectrum``), so the
tracer's patched functions are the ones that run.

``verify(inputs, record, ck)`` checks one operation's record against
references computed in :mod:`checks`; ``controls`` lists one negative
control per check name.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    close,
    envelope_form_bound,
    gaussian_concentration,
    lambda0_asymptotic,
    margin_ratio,
    reference_eigenvalues,
)

# Reference spectra are converged to ~1e-15 at this Nystrom order.
REF_ORDER = 120


@dataclass
class Operation:
    run: Callable[[], dict]
    # True for an operation that fails on every run because of a known
    # fault in the program; its failure does not make the run incorrect.
    known_fault: bool = False


# --------------------------------------------------------------------------
# sum-spectrum: dense assembly and the O(n^3) eigensolve of T = chi + S.
# --------------------------------------------------------------------------


class SumSpectrum:
    """Sweep L in {30, 60, 120} at tau = 1, omega = 3 with n = 20 L (h*omega fixed)."""

    name = "sum-spectrum"
    TAU, OMEGA, MODES = 1.0, 3.0, 6
    LEVELS = (30.0, 60.0, 120.0)
    POINTS_PER_UNIT = 20
    WITNESS_MODES = 4
    # Above-1 residuals measured at L * residual = 0.107 on all three levels.
    FLOOR = 0.15

    def __init__(self, seed: int, modules):
        self.core, self.ops_mod = modules.core, modules.operators
        rng = random.Random(seed)
        # The bump of zero_spectrum_witness(n) needs n + 6 <= L at the smallest L.
        self.zero_indices = sorted(rng.sample(range(1, 19), 3))
        lam = reference_eigenvalues(self.TAU * self.OMEGA, REF_ORDER)[: self.MODES]
        self.inputs = {"lam": lam}

    def round(self) -> list[Operation]:
        return [Operation(self.op)]

    def op(self) -> dict:
        core, O = self.core, self.ops_mod
        levels = []
        for L in self.LEVELS:
            grid = O.build_line_grid(L, int(self.POINTS_PER_UNIT * L))
            ops = O.build_limiting_operators(grid, self.TAU, self.OMEGA)
            spec = core.prolate_spectrum(self.TAU * self.OMEGA, self.MODES, order=REF_ORDER)
            rep = O.sum_operator_spectrum(ops, self.MODES, spec=spec)
            witness = [
                O.eigenfunction_witness(spec, ops, k, sign)
                for k in range(self.WITNESS_MODES)
                for sign in (+1, -1)
            ]
            zero = [O.zero_spectrum_witness(ops, k) for k in self.zero_indices]
            evals = rep.computed_eigenvalues
            levels.append(
                {
                    "L": L,
                    "residuals_above": np.array(rep.residuals_above),
                    "predicted_above": np.array(rep.predicted_above),
                    "predicted_below": np.array(rep.predicted_below),
                    "top": float(evals.max()),
                    "bottom": float(evals.min()),
                    "witness": witness + zero,
                }
            )
        return {"levels": levels}

    @classmethod
    def verify(cls, inputs, rec, ck) -> None:
        roots = np.sqrt(inputs["lam"])
        levels = rec["levels"]
        for lv in levels:
            L, res = lv["L"], lv["residuals_above"]
            ck.require("residual_floor", res.max() * L <= cls.FLOOR, f"L={L:g}: L*max residual {res.max() * L:.4g}")
            ck.require("top_bound", lv["top"] <= 1.0 + roots[0] + 1e-12, f"L={L:g}: top {lv['top']!r}")
            ck.require(
                "spectrum_range",
                lv["bottom"] >= -1e-8 and lv["top"] <= 2.0 + 1e-8,
                f"L={L:g}: [{lv['bottom']!r}, {lv['top']!r}]",
            )
            ck.require(
                "predicted_pairs",
                np.abs(lv["predicted_above"] - (1.0 + roots)).max() <= 1e-12
                and np.abs(lv["predicted_below"] - np.sort(1.0 - roots)[::-1]).max() <= 1e-12,
                f"L={L:g}",
            )
            ck.require("witness_finite", np.all(np.isfinite(lv["witness"])), f"L={L:g}")
        for lo, hi in zip(levels, levels[1:]):
            ratio = hi["residuals_above"] / lo["residuals_above"]
            ck.require(
                "residual_halving",
                np.all((ratio >= 0.45) & (ratio <= 0.55)),
                f"L={lo['L']:g}->{hi['L']:g}: ratios {np.round(ratio, 4).tolist()}",
            )

    @staticmethod
    def controls(rec):
        def floor(r):
            r["levels"][0]["residuals_above"][0] = 1.0 / r["levels"][0]["L"]

        def halving(r):
            r["levels"][2]["residuals_above"][1] *= 1.3

        def top(r):
            r["levels"][1]["top"] += 1e-3

        def spectrum_range(r):
            r["levels"][0]["bottom"] = -1e-6

        def pairs(r):
            r["levels"][2]["predicted_below"][3] += 1e-9

        def witness(r):
            r["levels"][1]["witness"][2] = float("nan")

        return [
            ("residual_floor", floor),
            ("residual_halving", halving),
            ("top_bound", top),
            ("spectrum_range", spectrum_range),
            ("predicted_pairs", pairs),
            ("witness_finite", witness),
        ]


# --------------------------------------------------------------------------
# hardy-chain: S only through quadratic forms; no large eigensolve.
# --------------------------------------------------------------------------


class HardyChain:
    """The Hardy and Landau-Pollak chains on one grid with L = 12, n = 1200."""

    name = "hardy-chain"
    L, N = 12.0, 1200
    # T/2 and the window of the equality case fall on panel edges of the
    # grid, where the time concentration of a smooth function is exact.
    WIDTHS = (1.0, 2.0, 3.0, 4.0, 5.0)
    BANDS = (1.0, 2.0, 3.0, 4.0, 5.0)
    OMEGAS = (1.5, 2.0, 2.5)
    RANDOM_FUNCTIONS = 2
    EQUALITY_C = 2.0

    def __init__(self, seed: int, modules):
        self.core, self.ops_mod, self.hardy = modules.core, modules.operators, modules.hardy
        rng = random.Random(seed)
        # Hermite-Gauss combinations of degree 3, shifted and scaled: smooth,
        # under a Gaussian envelope, and resolved by the grid.
        self.shapes = [
            (rng.uniform(-1.0, 1.0), rng.uniform(0.7, 1.5), [rng.gauss(0.0, 1.0) for _ in range(4)])
            for _ in range(self.RANDOM_FUNCTIONS)
        ]
        self.M = rng.uniform(0.5, 2.0)
        self.inputs = {
            "M": self.M,
            "lam0": {w: reference_eigenvalues(w * w, REF_ORDER)[0] for w in self.OMEGAS},
        }

    def round(self) -> list[Operation]:
        return [Operation(self.op)]

    def _functions(self, grid):
        GridFunction = self.ops_mod.GridFunction
        fns = [GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))).normalized()]
        for x0, s, coeffs in self.shapes:
            def shape(x, x0=x0, s=s, coeffs=coeffs):
                t = (x - x0) / s
                return np.exp(-0.5 * t * t) * np.polynomial.hermite_e.hermeval(t, coeffs)

            fns.append(GridFunction.from_callable(grid, shape).normalized())
        return fns

    def op(self) -> dict:
        core, O, H = self.core, self.ops_mod, self.hardy
        grid = O.build_line_grid(self.L, self.N)
        fns = self._functions(grid)
        specs = {
            (T, W): core.prolate_spectrum(0.5 * W * T, 1) for T in self.WIDTHS for W in self.BANDS
        }
        lp = [
            [(T, W, H.landau_pollak_check(f, T, W, specs[T, W])) for T in self.WIDTHS for W in self.BANDS]
            for f in fns
        ]
        gauss = [(T, W, r.alpha, r.beta) for T, W, r in lp[0]]
        margins = [r.margin for rows in lp for _, _, r in rows]

        # Equality case at T = 2, Omega = 2: the top mode limited to (-1, 1)
        # has alpha = 1 and beta = sqrt(lambda_0), so the margin is zero.
        spec = core.prolate_spectrum(self.EQUALITY_C, 1)
        x = grid.points
        values = np.where(np.abs(x) < 1.0, core.pswf_extend(spec, 0, x), 0.0)
        f_eq = O.GridFunction(grid=grid, values=values).normalized()
        equality = H.landau_pollak_check(f_eq, 2.0, 2.0, spec).margin

        env = H.GaussianEnvelope(M=self.M, a=2.0, b=2.0)
        per_omega = []
        for w in self.OMEGAS:
            ops = O.build_limiting_operators(grid, w, w)
            forms = [H.quadratic_form(f, ops).value for f in fns]
            alt = H.alt_proof_chain(w, self.M, core.prolate_spectrum(w * w, 1))
            margin = H.hardy_margin(w, self.M)
            per_omega.append(
                {
                    "omega": w,
                    "forms": forms,
                    "tail": H.envelope_tail_sum(env, w, w),
                    "lhs": margin.lhs,
                    "rhs": margin.rhs,
                    "ratio": margin.ratio,
                    "acos_alpha": alt.acos_alpha,
                    "acos_alpha_bound": alt.acos_alpha_bound,
                }
            )
        return {"gauss": gauss, "margins": margins, "equality": equality, "omegas": per_omega}

    @staticmethod
    def verify(inputs, rec, ck) -> None:
        M = inputs["M"]
        worst = max(
            max(abs(a - gaussian_concentration(T)), abs(b - gaussian_concentration(W)))
            for T, W, a, b in rec["gauss"]
        )
        ck.require("gaussian_concentration", worst <= 1e-14, f"worst error {worst:.3g}")
        lowest = min(rec["margins"] + [rec["equality"]])
        ck.require("lp_margin", lowest >= -1e-8, f"min margin {lowest:.3g}")
        ck.require("lp_equality", abs(rec["equality"]) <= 1e-8, f"margin {rec['equality']:.3g}")
        for row in rec["omegas"]:
            w = row["omega"]
            floor = 1.0 - math.sqrt(inputs["lam0"][w]) - 1e-6
            ck.require("quadratic_form", min(row["forms"]) >= floor, f"omega={w}: {min(row['forms'])!r} < {floor!r}")
            ck.require(
                "tail_sum",
                row["tail"] <= envelope_form_bound(w, M) * (1.0 + 1e-12),
                f"omega={w}: {row['tail']!r}",
            )
            ck.require(
                "margin_ratio",
                close(row["ratio"], margin_ratio(w, M), 1e-12) and close(row["ratio"], row["lhs"] / row["rhs"], 1e-12),
                f"omega={w}: {row['ratio']!r}",
            )
            exact = math.acos(gaussian_concentration(2.0 * w))
            ck.require(
                "alt_chain",
                close(row["acos_alpha"], exact, 1e-8) and row["acos_alpha"] <= row["acos_alpha_bound"],
                f"omega={w}: acos alpha {row['acos_alpha']!r}",
            )

    @staticmethod
    def controls(rec):
        def gauss(r):
            T, W, a, b = r["gauss"][7]
            r["gauss"][7] = (T, W, a, b + 1e-12)

        def margin(r):
            r["margins"][30] = -1e-6

        def equality(r):
            r["equality"] = 1e-6

        def form(r):
            r["omegas"][1]["forms"][0] = 0.0

        def tail(r):
            r["omegas"][2]["tail"] *= 2.0

        def ratio(r):
            r["omegas"][0]["ratio"] *= 1.0 + 1e-9

        def alt(r):
            r["omegas"][1]["acos_alpha"] = r["omegas"][1]["acos_alpha_bound"] * 1.01

        return [
            ("gaussian_concentration", gauss),
            ("lp_margin", margin),
            ("lp_equality", equality),
            ("quadratic_form", form),
            ("tail_sum", tail),
            ("margin_ratio", ratio),
            ("alt_chain", alt),
        ]


# --------------------------------------------------------------------------
# prolate-sweep: small Nystrom eigensolves and the kernel extension (core only).
# --------------------------------------------------------------------------


class ProlateSweep:
    """Blocks of three c values; per c every mode above the noise floor is solved and extended."""

    name = "prolate-sweep"
    BLOCK = 3
    PASSING_BLOCKS = 8
    # 1 - lambda_0 is lost to cancellation here: r(18) = 1.89, r(20) = 50 and
    # c = 24 divides by zero.  Fixed inputs, so they fail on every run.
    FAULT_CS = (18.0, 20.0, 24.0)
    FAULT_ORDER = 60
    # [4, 14] is cut into 24 equal windows; block b draws one c from each of
    # windows b, b + 8 and b + 16, and its orders are a rotation of ORDERS.
    # Blocks then cost the same whatever the seed, which moves c only
    # within its window.
    C_RANGE = (4.0, 14.0)
    ORDERS = (49, 77, 106)
    NOISE_FLOOR = 1e-12
    EXTEND_TO = np.linspace(-5.0, 5.0, 2001)

    def __init__(self, seed: int, modules):
        self.core = modules.core
        rng = random.Random(seed)
        lo, hi = self.C_RANGE
        width = (hi - lo) / (self.PASSING_BLOCKS * self.BLOCK)
        self.blocks = []
        for b in range(self.PASSING_BLOCKS):
            block = []
            for j in range(self.BLOCK):
                start = lo + (b + j * self.PASSING_BLOCKS) * width
                order = self.ORDERS[(j + b) % self.BLOCK]
                item = None
                while item is None:
                    item = self._item(round(rng.uniform(start, start + width), 4), order)
                block.append(item)
            self.blocks.append(block)
        self.fault_block = [self._item(c, self.FAULT_ORDER, strict=False) for c in self.FAULT_CS]
        self.inputs = {}

    def _item(self, c: float, order: int, strict: bool = True):
        """(c, order, modes above the noise floor), counted on the reference spectrum.

        A seeded c whose spectrum has an eigenvalue within 10% of the floor
        is redrawn: there the mode count would hinge on the last digits.
        """
        lam = reference_eigenvalues(c, order)
        if strict and np.any(np.abs(lam / self.NOISE_FLOOR - 1.0) < 0.1):
            return None
        return (c, order, int(np.count_nonzero(lam > self.NOISE_FLOOR)))

    def round(self) -> list[Operation]:
        ops = [Operation(lambda b=b: self.op(b)) for b in self.blocks]
        ops.append(Operation(lambda: self.op(self.fault_block), known_fault=True))
        return ops

    def op(self, block) -> dict:
        core = self.core
        items = []
        for c, order, modes in block:
            item = {"c": c}
            try:
                spec = core.prolate_spectrum(c, modes, order=order)
            except (ValueError, ArithmeticError, core.NumericalFailure) as exc:
                item["error"] = f"prolate_spectrum: {exc!r}"
                items.append(item)
                continue
            points = np.concatenate([spec.rule.nodes, self.EXTEND_TO])
            ext = np.array([core.pswf_extend(spec, k, points)[:order] for k in range(modes)])
            item.update(eigenvalues=np.array(spec.eigenvalues), modes=np.array(spec.modes), ext_nodes=ext)
            try:
                item["ratio"] = core.asymptotic_gap_ratio(c, float(spec.eigenvalues[0]))
            except ArithmeticError as exc:
                item["ratio"] = None
                item["error"] = f"asymptotic_gap_ratio: {exc!r}"
            items.append(item)
        return {"items": items}

    @classmethod
    def verify(cls, inputs, rec, ck) -> None:
        for it in rec["items"]:
            c = it["c"]
            if "eigenvalues" not in it:
                ck.require("computed", False, f"c={c}: {it['error']}")
                continue
            lam = it["eigenvalues"]
            err = abs(lam.sum() - 2.0 * c / math.pi)
            ck.require("eigen_sum", err <= 2e-12, f"c={c}: |sum - 2c/pi| = {err:.3g}")
            ck.require(
                "descending_unit",
                np.all(np.diff(lam) < 0) and lam[0] < 1.0 and lam[-1] > 0.0,
                f"c={c}",
            )
            scale = np.abs(it["modes"]).max(axis=1) / lam
            dev = np.abs(it["ext_nodes"] - it["modes"]).max(axis=1)
            ck.require("extension_nodes", np.all(dev <= 1e-12 * scale), f"c={c}: worst {np.max(dev / scale):.3g}")
            # Measured |r - 1| * c falls from 0.54 at c = 4 to 0.45 at c = 14.
            r = it["ratio"]
            ck.require(
                "gap_ratio",
                r is not None and abs(r - 1.0) <= 0.6 / c,
                f"c={c}: r={r!r}" + (f" ({it['error']})" if r is None else ""),
            )

    @staticmethod
    def controls(rec):
        def eigen_sum(r):
            r["items"][0]["eigenvalues"][0] -= 1e-9

        def descending(r):
            lam = r["items"][1]["eigenvalues"]
            lam[[1, 2]] = lam[[2, 1]]

        def extension(r):
            r["items"][2]["ext_nodes"][0, 3] += 1e-6

        def ratio(r):
            it = r["items"][0]
            it["ratio"] = 1.0 + 0.7 / it["c"]

        return [
            ("eigen_sum", eigen_sum),
            ("descending_unit", descending),
            ("extension_nodes", extension),
            ("gap_ratio", ratio),
        ]


# --------------------------------------------------------------------------
# cli-cold: the four default scenarios, each as a cold process.
# --------------------------------------------------------------------------

# What the installed ``prolate`` console script runs.
CLI_SCRIPT = "import sys; from prolate.cli import main; sys.exit(main())"


def _table(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _set_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


class CliCold:
    """Default scenario of each subcommand, run one after the other."""

    name = "cli-cold"
    SUBCOMMANDS = ("spectrum", "asymptotics", "sum-spectrum", "hardy")
    # Defaults of the subcommands, restated so the tables can be checked.
    SPECTRUM_C, SPECTRUM_MODES = 3.0, 6
    ASYMPTOTIC_CS = (2.0, 4.0, 6.0, 8.0)
    SUM_L = 30.0
    HARDY_OMEGAS, HARDY_M = (1.5, 2.0, 2.5), 1.0

    def __init__(self, seed: int, modules, env=None, warm: bool = False):
        # The default scenarios take no input, so the seed changes nothing here.
        self.cli = modules.cli
        self.env = env
        self.warm = warm
        lam3 = reference_eigenvalues(self.SPECTRUM_C, REF_ORDER)[: self.SPECTRUM_MODES]
        self.inputs = {
            "lam3": lam3,
            "lam0": {c: reference_eigenvalues(c, REF_ORDER)[0] for c in self.ASYMPTOTIC_CS},
            "baseline": None,
        }

    def round(self) -> list[Operation]:
        return [Operation(self.op)]

    def _cold(self, sub: str) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_SCRIPT, sub], env=self.env, capture_output=True, text=True
        )
        return proc.returncode, proc.stdout

    def _warm(self, sub: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main([sub])
        return code, out.getvalue()

    def op(self) -> dict:
        run = self._warm if self.warm else self._cold
        rec = {}
        for sub in self.SUBCOMMANDS:
            code, stdout = run(sub)
            rec[sub] = {"code": code, "stdout": stdout}
        if self.inputs["baseline"] is None:
            self.inputs["baseline"] = {sub: rec[sub]["stdout"] for sub in self.SUBCOMMANDS}
        return rec

    @classmethod
    def verify(cls, inputs, rec, ck) -> None:
        for sub in cls.SUBCOMMANDS:
            ck.require("exit_code", rec[sub]["code"] == 0, f"{sub}: exit {rec[sub]['code']}")
            ck.require("byte_identical", rec[sub]["stdout"] == inputs["baseline"][sub], sub)
        tables = {
            "spectrum": ("spectrum_table", cls._spectrum),
            "asymptotics": ("asymptotics_table", cls._asymptotics),
            "sum-spectrum": ("sum_spectrum_table", cls._sum_spectrum),
            "hardy": ("hardy_table", cls._hardy),
        }
        for sub, (name, fn) in tables.items():
            try:
                ok = fn(inputs, _table(rec[sub]["stdout"]))
            except (ValueError, KeyError, IndexError) as exc:
                ok = False
                detail = f"unreadable table: {exc!r}"
            else:
                detail = ""
            ck.require(name, ok, detail)

    @classmethod
    def _spectrum(cls, inputs, rows) -> bool:
        lam = np.array([float(r["eigenvalue"]) for r in rows])
        gap = np.array([float(r["gap"]) for r in rows])
        return (
            [int(r["n"]) for r in rows] == list(range(cls.SPECTRUM_MODES))
            and np.all(np.diff(lam) < 0) and lam[0] < 1.0 and lam[-1] > 0.0
            and np.array_equal(gap, 1.0 - lam)
            and np.abs(lam - inputs["lam3"]).max() <= 1e-12
        )

    @classmethod
    def _asymptotics(cls, inputs, rows) -> bool:
        ok = [float(r["c"]) for r in rows] == list(cls.ASYMPTOTIC_CS)
        for r in rows:
            c, lam, asym, ratio = (float(r[k]) for k in ("c", "lambda0_numeric", "lambda0_asymptotic", "gap_ratio"))
            ok = ok and abs(lam - inputs["lam0"][c]) <= 1e-12 and close(asym, lambda0_asymptotic(c), 1e-14)
            ok = ok and close(ratio, (1.0 - lam) / (1.0 - asym), 1e-12)
            if c >= 4.0:
                ok = ok and abs(ratio - 1.0) <= 0.6 / c
        return ok

    @classmethod
    def _sum_spectrum(cls, inputs, rows) -> bool:
        roots = np.sqrt(inputs["lam3"])
        expected = {"above": 1.0 + roots, "below": np.sort(1.0 - roots)[::-1]}
        ok = True
        for side in ("above", "below"):
            part = [r for r in rows if r["side"] == side]
            computed = np.array([float(r["computed"]) for r in part])
            predicted = np.array([float(r["predicted"]) for r in part])
            residual = np.array([float(r["residual"]) for r in part])
            ok = ok and len(part) == len(roots)
            ok = ok and np.abs(predicted - expected[side]).max() <= 1e-12
            ok = ok and np.abs(residual - np.abs(computed - predicted)).max() <= 1e-15
            ok = ok and computed.min() >= -1e-8 and computed.max() <= min(2.0 + 1e-8, 1.0 + roots[0] + 1e-12)
            if side == "above":
                ok = ok and residual.max() * cls.SUM_L <= SumSpectrum.FLOOR
        return ok

    @classmethod
    def _hardy(cls, inputs, rows) -> bool:
        M = cls.HARDY_M
        ok = [float(r["omega"]) for r in rows] == list(cls.HARDY_OMEGAS)
        for r in rows:
            w = float(r["omega"])
            bound = envelope_form_bound(w, M)
            ok = ok and close(float(r["time_tail_bound"]), 0.5 * bound, 1e-12)
            ok = ok and close(float(r["form_bound"]), bound, 1e-12)
            ok = ok and float(r["quadratic_form"]) <= bound
            ok = ok and close(float(r["margin_ratio"]), margin_ratio(w, M), 1e-12)
            ok = ok and float(r["lp_margin"]) >= -1e-8
        return ok

    @staticmethod
    def controls(rec):
        def code(r):
            r["hardy"]["code"] = 1

        def identical(r):
            r["asymptotics"]["stdout"] = r["asymptotics"]["stdout"].replace("\n", "\r\n", 1)

        def cell(sub, row, column, value):
            def mutate(r):
                r[sub]["stdout"] = _set_cell(r[sub]["stdout"], row, column, value)

            return mutate

        return [
            ("exit_code", code),
            ("byte_identical", identical),
            ("spectrum_table", cell("spectrum", 2, "eigenvalue", "0.8")),
            ("asymptotics_table", cell("asymptotics", 3, "gap_ratio", "1.5")),
            ("sum_spectrum_table", cell("sum-spectrum", 0, "residual", "0.01")),
            ("hardy_table", cell("hardy", 1, "lp_margin", "-1e-6")),
        ]


WORKLOADS = {cls.name: cls for cls in (SumSpectrum, HardyChain, ProlateSweep, CliCold)}
