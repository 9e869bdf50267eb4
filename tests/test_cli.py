"""Tests for the command-line front end: rendering, determinism,
argument validation and exit codes."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from prolate.cli import main
from prolate.core import GAP_FLOOR, prolate_spectrum

ALL_DEFAULT_INVOCATIONS = [
    ["spectrum"],
    ["asymptotics"],
    ["sum-spectrum", "--L", "20", "--n", "300", "--modes", "4"],
    ["hardy", "--omega", "1.5,2"],
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Rendering and round-trips
# ---------------------------------------------------------------------------


def test_spectrum_csv_shape_and_content(capsys):
    code, out, err = run_cli(["spectrum"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,eigenvalue,gap"
    assert len(lines) == 7  # header + 6 default modes
    rows = [line.split(",") for line in lines[1:]]
    eigenvalues = [float(r[1]) for r in rows]
    assert [int(r[0]) for r in rows] == list(range(6))
    assert all(a > b for a, b in zip(eigenvalues, eigenvalues[1:]))
    for r in rows:
        assert float(r[2]) == pytest.approx(1.0 - float(r[1]), abs=1e-15)
    assert "lambda_0" in err  # summary goes to stderr, not stdout


def test_json_round_trip(capsys):
    code, out, _ = run_cli(["spectrum", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spectrum"
    assert payload["columns"] == ["n", "eigenvalue", "gap"]
    assert len(payload["rows"]) == 6
    rendered = json.dumps(payload, separators=(",", ":"), sort_keys=False) + "\n"
    assert rendered == out


def test_out_file_matches_stdout(tmp_path, capsys):
    _, out, _ = run_cli(["asymptotics"], capsys)
    path = tmp_path / "table.csv"
    code, piped, _ = run_cli(["asymptotics", "--out", str(path)], capsys)
    assert code == 0
    assert piped == ""  # table went to the file
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("target", ["missing/table.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_2_without_traceback(target, tmp_path, capsys):
    path = tmp_path / target
    code, out, err = run_cli(["spectrum", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", ALL_DEFAULT_INVOCATIONS, ids=lambda a: a[0])
def test_byte_identical_reruns(args, tmp_path, capsys):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_floats_rendered_at_17_digits(capsys):
    _, out, _ = run_cli(["spectrum", "--modes", "1"], capsys)
    value = out.strip().split("\n")[1].split(",")[1]
    assert value == format(float(value), ".17g")
    assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16


# ---------------------------------------------------------------------------
# Numerical content of the tables
# ---------------------------------------------------------------------------


def test_spectrum_small_c_rank_one_limit(capsys):
    code, out, _ = run_cli(["spectrum", "--c", "0.01", "--modes", "1"], capsys)
    assert code == 0
    lam0 = float(out.strip().split("\n")[1].split(",")[1])
    assert 0.99 < lam0 / (2 * 0.01 / math.pi) < 1.0


def test_spectrum_resolves_modes_above_the_coefficient_floor(capsys):
    # lambda_11(3) = 5.0431e-18; a 1e-12 eigenvalue floor refused it.
    code, out, _ = run_cli(["spectrum", "--c", "3", "--modes", "12"], capsys)
    assert code == 0
    lam11 = float(out.strip().split("\n")[-1].split(",")[1])
    assert lam11 == pytest.approx(5.0431156218996216e-18, rel=1e-12)


def test_spectrum_below_the_coefficient_floor_exits_2(capsys):
    # Mode 12 at c = 3 has a leading Legendre coefficient of 1.1e-10, below 1e6 eps.
    code, out, err = run_cli(["spectrum", "--c", "3", "--modes", "14"], capsys)
    assert code == 2
    assert out == ""
    assert "mode 12 at c=3.0 lies at or below the noise floor" in err
    assert f"at most {1e6 * np.finfo(float).eps:.3g}" in err


def test_asymptotics_ratio_approaches_one(capsys):
    code, out, _ = run_cli(["asymptotics"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ratios = {float(r[0]): float(r[3]) for r in rows}
    assert abs(ratios[8.0] - 1.0) < abs(ratios[4.0] - 1.0)
    for c, lam0, asym in ((float(r[0]), float(r[1]), float(r[2])) for r in rows):
        assert 0.0 < lam0 < 1.0
        assert asym < 1.0


def test_sum_spectrum_table_and_summary(capsys):
    code, out, err = run_cli(
        ["sum-spectrum", "--L", "20", "--n", "300", "--modes", "4"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,side,computed,predicted,residual"
    assert len(lines) == 1 + 8  # 4 above + 4 below
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["above"] * 4 + ["below"] * 4
    for r in rows:
        assert float(r[4]) == pytest.approx(
            abs(float(r[2]) - float(r[3])), rel=1e-12, abs=1e-300
        )
        assert float(r[4]) < 0.05
    assert "max residual" in err
    assert "lambda_min" in err


def test_sum_spectrum_summary_reports_ritz_bound(capsys):
    code, _, err = run_cli(["sum-spectrum", "--L", "20", "--n", "300", "--modes", "4"], capsys)
    assert code == 0
    bound = float(err.split("ritz_bound=")[1].split()[0])
    assert 0.0 <= bound <= 1e-10


def test_hardy_table_invariants(capsys):
    code, out, _ = run_cli(["hardy"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "omega"
    idx = {name: k for k, name in enumerate(header)}
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[idx["omega"]] for r in rows] == [1.5, 2.0, 2.5]
    ratios = [r[idx["margin_ratio"]] for r in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    for r in rows:
        assert r[idx["quadratic_form"]] <= r[idx["form_bound"]]
        assert r[idx["lp_margin"]] >= -1e-8
        assert r[idx["alt_contradiction_ratio"]] > 0
        assert r[idx["time_tail_bound"]] == pytest.approx(
            r[idx["freq_tail_bound"]], rel=1e-14
        )  # symmetric point tau = omega, a = b


def test_hardy_lp_margin_matches_its_closed_form(capsys):
    # The grid puts +/- omega on panel edges, so the printed margin of the normalized
    # Gaussian meets asin sqrt erfc(sqrt(2) omega) + asin sqrt erfc(omega / sqrt(2))
    # - acos sqrt lambda_0(omega^2), lambda_0 as the library computes it.
    omegas = [1.5, 1.55, 2.0, 2.5, 3.0, 3.5, 4.0]
    code, out, _ = run_cli(["hardy", "--omega", ",".join(map(str, omegas))], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    column = lines[0].split(",").index("lp_margin")
    for omega, line in zip(omegas, lines[1:], strict=True):
        lam0 = prolate_spectrum(omega * omega, 1).eigenvalues[0]
        exact = (
            math.asin(math.sqrt(math.erfc(math.sqrt(2.0) * omega)))
            + math.asin(math.sqrt(math.erfc(omega / math.sqrt(2.0))))
            - math.acos(math.sqrt(lam0))
        )
        assert float(line.split(",")[column]) == pytest.approx(exact, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# Exit codes and argument validation
# ---------------------------------------------------------------------------


def test_invalid_arguments_exit_2(capsys):
    assert run_cli(["spectrum", "--c", "-1"], capsys)[0] == 2
    assert run_cli(["sum-spectrum", "--tau", "40"], capsys)[0] == 2
    assert run_cli(["hardy", "--M", "0"], capsys)[0] == 2
    assert run_cli(["spectrum", "--modes", "0"], capsys)[0] == 2


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--c", "inf"],
        ["spectrum", "--c", "nan"],
        ["hardy", "--omega", "inf"],
        ["hardy", "--omega", "1.5,nan"],
        ["hardy", "--M", "nan"],
        ["sum-spectrum", "--tau", "nan"],
    ],
    ids=" ".join,
)
def test_non_finite_arguments_rejected_by_parser(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a finite number" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["asymptotics", "--c", "18"],
        ["asymptotics", "--c", "24"],
        ["hardy", "--omega", "5"],
        ["hardy", "--omega", "12"],
        ["spectrum", "--c", "18", "--modes", "1"],
        ["spectrum", "--c", "100", "--modes", "2"],
        ["spectrum", "--c", "1000"],
    ],
    ids=" ".join,
)
def test_unresolved_gap_exits_3(args, capsys):
    # 1 - lambda_0 at c = 18, 24, 25, 100, 144 and 1000 is roundoff in double precision;
    # hardy refuses it before building a grid too coarse for omega = 12.
    code, out, err = run_cli(args, capsys)
    assert code == 3
    assert out == ""
    assert "roundoff" in err


@pytest.mark.parametrize(
    "args",
    [
        ["sum-spectrum", "--L", "1e308", "--omega", "10"],
        ["hardy", "--omega", "1e200"],
        ["hardy", "--M", "1e200"],
        ["hardy", "--M", "1e-200"],
        ["spectrum", "--c", "1e200", "--modes", "1"],
        ["asymptotics", "--c", "1e200"],
        pytest.param(["sum-spectrum", "--n", "1" + "0" * 400], id="sum-spectrum --n 1e400"),
    ],
    ids=" ".join,
)
def test_extreme_finite_arguments_exit_2(args, capsys):
    # Finite arguments whose derived sizes overflow or underflow are refused, not a traceback.
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "error" in err
    assert len(err) < 300
    assert "inf" not in err
    if args[0] in ("spectrum", "asymptotics"):
        assert "budget" in err
    if args[0] == "hardy":
        assert args[1].lstrip("-") in err  # names the argument out of range


def test_linalg_error_exits_3(monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it is still a numerical failure, not bad input.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for solver, args in (("qr", ["sum-spectrum"]), ("eigh", ["spectrum"])):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, solver, fail)
            code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert "numerical failure" in err


def test_oversized_dense_matrix_exits_2_without_allocating(capsys):
    # The default order at c = 1e5 would need a 37 GiB Legendre table.
    tracemalloc.start()
    try:
        code, out, err = run_cli(["spectrum", "--c", "1e5", "--modes", "1"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "budget" in err
    assert peak < 2**20


def test_spectrum_prints_resolved_gaps_up_to_c14(capsys):
    code, out, _ = run_cli(["spectrum", "--c", "14"], capsys)
    assert code == 0
    gaps = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
    assert len(gaps) == 6
    assert min(gaps) > GAP_FLOOR


def test_oversized_sum_spectrum_grid_exits_2_before_building_it(capsys):
    # n = 100000 bounds the Ritz basis at 2.6 GiB; the grid, band blocks and reference
    # (37.5 MB together) must not be built before the refusal.
    tracemalloc.start()
    try:
        code, out, err = run_cli(["sum-spectrum", "--n", "100000"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "budget" in err
    assert peak < 2**20


def test_error_messages_go_to_stderr(capsys):
    code, out, err = run_cli(["spectrum", "--c", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_spectrum_order_flags_rejected_by_parser(capsys):
    # The printed spectrum always uses the library's order policy.
    for flag in (["--order", "60"], ["--force"]):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_empty_float_list_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotics", "--c", ""])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
