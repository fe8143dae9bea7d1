import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cdlattice.cli import main


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# cdlattice=")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return columns, rows


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--sites", "11", "--grid=-0.9:0.9:5", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["lambda", "state_index", "energy", "mode"]
    assert len(rows) == 5 * 11


def test_state_subcommand_edge_density(tmp_path):
    out = tmp_path / "state.csv"
    assert main(["state", "--sites", "101", "--lambda", "0.999", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["x", "re_psi", "im_psi", "prob"]
    header = out.read_text().splitlines()[0]
    assert "alpha_modulus=" in header and "energy=0.0" in header
    xs = np.array([int(r[0]) for r in rows])
    prob = np.array([float(r[3]) for r in rows])
    assert prob[xs % 2 == 1].max() <= 1e-25  # even-sublattice support
    assert prob[xs <= 3].sum() >= 0.99  # bound to the left wall


def test_cd_matrix_subcommand(tmp_path):
    out = tmp_path / "cd.csv"
    assert main(["cd-matrix", "--sites", "11", "--lambda", "0.9", "--mode", "targeted",
                 "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["x", "x_prime", "re", "im", "abs"]
    assert len(rows) == 121


def test_norm_subcommands(tmp_path):
    out = tmp_path / "norm.csv"
    assert main(["norm", "--sites", "11", "--grid=-0.5:0.5:3", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["lambda", "frobenius_full", "frobenius_targeted"]
    assert len(rows) == 3
    out2 = tmp_path / "ratio.csv"
    assert main(["norm", "--sites", "11", "--lambda", "0.9", "--by-diagonal",
                 "--out", str(out2)]) == 0
    columns, rows = read_csv(out2)
    assert columns == ["d", "ratio", "lambda"]
    ratios = [float(r[1]) for r in rows]
    assert ratios[-1] == pytest.approx(1.0)


def test_transfer_subcommand_bare_headline(tmp_path):
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--sites", "11", "--lambda0", "0.9", "--lambdaf", "-0.9",
                 "--time", "1", "--cd", "none", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["d", "fidelity"]
    fid = float(rows[0][1])
    assert 1e-11 <= fid <= 1e-9


def test_transfer_trace_schema(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["transfer", "--sites", "11", "--time", "1", "--cd", "targeted",
                 "--dt", "1e-3", "--trace", "100", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["t", "lambda", "fidelity_to_instantaneous", "norm", "energy"]
    assert len(rows) == 10
    assert all(abs(float(r[3]) - 1.0) <= 1e-8 for r in rows)
    assert all(abs(float(r[4])) <= 1e-4 for r in rows)  # stays on the zero mode


def test_transfer_d_sweep(tmp_path):
    out = tmp_path / "dsweep.csv"
    assert main(["transfer", "--sites", "11", "--time", "1", "--cd", "full",
                 "--dt", "1e-3", "--d-sweep", "0:10:5", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["d", "fidelity"]
    assert [int(r[0]) for r in rows] == [0, 5, 10]
    assert float(rows[-1][1]) >= 1 - 1e-6


def test_cd_spectrum_subcommand(tmp_path):
    out = tmp_path / "cdspec.csv"
    assert main(["cd-spectrum", "--sites", "11", "--grid=-0.9:0.9:7", "--mode",
                 "targeted", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["lambda", "state_index", "energy", "mode"]
    assert len(rows) == 7 * 11


def test_cd_spectrum_default_grid_avoids_singular_points(tmp_path):
    out = tmp_path / "cdspec.csv"
    assert main(["cd-spectrum", "--sites", "11", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 198 * 11


def test_gap_scaling_subcommand(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["gap-scaling", "--lambda", "0.0018", "--sizes", "51:101:50",
                 "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    assert columns == ["L", "gap_bare_numeric", "gap_bare_formula", "gap_cd", "ratio"]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-10)
        assert 1.6 <= float(row[4]) <= 2.4


def test_validation_errors_exit_two(tmp_path, capsys):
    assert main(["spectrum", "--grid=nonsense", "--out", str(tmp_path / "y.csv")]) == 2
    assert "grid must be start:stop:count" in capsys.readouterr().err
    # +-1 are skipped and counted; lambda = 0 is a regular point
    out = tmp_path / "z.csv"
    assert main(["cd-spectrum", "--sites", "11", "--grid=-1:1:3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 11 and {float(r[0]) for r in rows} == {0.0}
    assert capsys.readouterr().err == "skipped 2 singular grid points\n"
    # the bare spectrum has no singular point, so nothing reaches stderr
    assert main(["spectrum", "--sites", "11", "--grid=-1:1:3",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == ""
    # every command takes the ramp rate from Protocol, so a time <= 0 exits 2 everywhere
    for argv in (["cd-spectrum", "--sites", "11", "--grid=-0.9:0.9:3"],
                 ["gap-scaling", "--sizes", "11:13:2"]):
        for time_arg in ("--time=0", "--time=-1"):
            out = tmp_path / "ramp.csv"
            assert main(argv + [time_arg, "--out", str(out)]) == 2
            assert "total_time must be positive" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cd-spectrum", "--time", "nan"],
    ["cd-spectrum", "--lambda0", "nan"],
    ["cd-spectrum", "--mode", "full", "--time", "nan"],
    ["gap-scaling", "--sizes", "11:13:2", "--time", "nan"],
    ["gap-scaling", "--sizes", "11:13:2", "--lambda", "nan"],
    ["transfer", "--dt", "nan"],
    ["transfer", "--dt", "inf"],
    ["transfer", "--time", "nan"],
    ["transfer", "--time", "inf"],
    ["spectrum", "--grid=nan:0.5:3"],
    ["transfer", "--cd", "full", "--dt", "0.01", "--trace", "-3"],
], ids="_".join)
def test_non_finite_inputs_exit_two(tmp_path, capsys, argv):
    # a NaN rate or coupling would otherwise deflate every weight, or reach an eigensolver;
    # a negative --trace traced every step
    out = tmp_path / "x.csv"
    assert main(argv + ["--sites", "11", "--out", str(out)]) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


def test_singularity_abort_exits_three(tmp_path):
    code = main(["transfer", "--sites", "11", "--lambda0", "0.9", "--lambdaf", "1.1",
                 "--time", "1", "--cd", "targeted", "--dt", "1e-2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    code = main(["transfer", "--cd", "full", "--lambdaf", "1.0",
                 "--out", str(tmp_path / "y.csv")])
    assert code == 3


def test_absurd_step_exits_two_at_once(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["transfer", "--sites", "11", "--time", "1e9", "--dt", "1e9",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "theta" in err and "dt=" in err


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    probe = "import sys, cdlattice.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_structure_check_failure_exits_three(tmp_path, monkeypatch):
    def failing(spec, lam, mode):
        raise ArithmeticError("anti-Hermitian residual too large")

    monkeypatch.setattr("cdlattice.dynamics.generator_blocks", failing)
    code = main(["transfer", "--sites", "11", "--cd", "full", "--dt", "1e-2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_real_structure_check_fires(tmp_path, monkeypatch):
    import cdlattice as cdl

    # a negative tolerance fails every finite residual, so the check itself must raise
    monkeypatch.setattr("cdlattice.cd._STRUCTURE_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="zero-mode action residual"):
        cdl.full_cd(cdl.ssh_spec(11, -1, 0.5), 0.5)
    code = main(["transfer", "--sites", "11", "--cd", "full", "--dt", "1e-2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


@pytest.mark.parametrize("mode, message", [("full", "zero-mode action residual"),
                                           ("targeted", "Parseval residual")])
def test_cd_spectrum_structure_check_exits_three(tmp_path, monkeypatch, capsys, mode, message):
    # a failed structure check aborts the sweep; only a vanished bond is a skipped point
    monkeypatch.setattr("cdlattice.cd._STRUCTURE_TOL", -1.0)
    out = tmp_path / "cds.csv"
    assert main(["cd-spectrum", "--sites", "11", "--mode", mode, "--grid=-0.9:0.9:5",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and "skipped" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--cd", "targeted", "--d-sweep", "0:12:4"],
    ["--cd", "targeted", "--diagonals", "11"],
    ["--cd", "none", "--diagonals", "50"],
    ["--cd", "none", "--diagonals", "3"],
    ["--cd", "targeted", "--d-sweep", "0:10:5", "--diagonals", "3"],
    ["--cd", "targeted", "--d-sweep", "0:10:5", "--trace", "10"],
], ids=["d-sweep-past-band", "diagonals-past-band", "none-wide", "none-narrow",
        "d-sweep-with-diagonals", "d-sweep-with-trace"])
def test_band_limits_checked_before_any_drive(tmp_path, monkeypatch, argv):
    import cdlattice.cli

    calls = []
    monkeypatch.setattr(cdlattice.cli, "propagate", lambda *a, **k: calls.append(a))
    out = tmp_path / "x.csv"
    assert main(["transfer", "--sites", "11", "--dt", "1e-2", *argv, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["state", "--sites", "10", "--lambda", "0.5"],
    ["transfer", "--sites", "10", "--cd", "targeted", "--dt", "1e-2"],
    ["gap-scaling", "--sizes", "10:12:2"],
    ["cd-matrix", "--mode", "targeted", "--sites", "10", "--lambda", "0.5"],
], ids=["state", "transfer", "gap-scaling", "cd-matrix"])
def test_even_chain_has_no_zero_mode(tmp_path, capsys, argv):
    # an even chain has no zero-energy state to report, drive or target
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert "no zero mode" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_package_exports_only_what_cli_and_gate_use():
    import re

    import cdlattice

    root = Path(__file__).resolve().parents[1]
    text = "".join(path.read_text() for path in (
        root / "src" / "cdlattice" / "cli.py",
        root / "tests" / "test_acceptance.py",
        root / "tests" / "conftest.py",
    ))
    unused = [name for name in cdlattice.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_benchmark_hooks_exist():
    # benchmarks/layers.py patches these names and benchmarks/reference.py reads
    # full_cd(...).matrix as a dense M x M complex array
    import importlib
    import importlib.util

    from cdlattice import cd, lattice

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{module}.{name}" for module, names in layers.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cdlattice.{module}"), name, None))]
    assert missing == []
    matrix = cd.full_cd(lattice.ssh_spec(101, -1, 0.3), 0.3).matrix
    assert matrix.shape == (101, 101) and matrix.dtype == np.complex128


def test_full_cd_transfer_on_even_wall(tmp_path):
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--sites", "11", "--x0", "0", "--cd", "full", "--dt", "1e-3",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) >= 1 - 1e-6


def test_byte_identical_reruns(tmp_path):
    args = ["state", "--sites", "31", "--lambda", "0.7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_runs_clean(capsys):
    assert main(["certify", "--sites", "11"]) == 0
    captured = capsys.readouterr()
    assert "all checks passed" in captured.out
    assert "FAIL" not in captured.out


def test_certify_catches_nonzero_generator_diagonal(capsys, monkeypatch):
    import cdlattice.cli
    from cdlattice.states import basis_and_derivatives

    def broken(spec, lam):
        energies, states, derivatives, norms = basis_and_derivatives(spec, lam)
        derivatives = derivatives.copy()
        derivatives[0] += 1e-3 * states[0]  # <psi_0|d psi_0> = 1e-3
        return energies, states, derivatives, norms

    monkeypatch.setattr(cdlattice.cli, "basis_and_derivatives", broken)
    assert main(["certify", "--sites", "11"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("cd-diagonal-zero") and "FAIL" in line
               for line in out.splitlines())
    assert "FAILURES PRESENT" in out


@pytest.mark.parametrize("argv", [
    ["cd-matrix", "--sites", "401", "--lambda=-0.999", "--mode", "full"],
    ["norm", "--sites", "401", "--grid=-0.999:-0.99:2"],
], ids=["cd-matrix", "norm"])
def test_full_generator_near_vanished_bond_at_far_wall(tmp_path, argv):
    # the zero mode sits 400 sites from x = 0; its derivative is measured from
    # that wall, so <z|dz> carries no |x| eps of roundoff to fail the action check
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows and all(np.isfinite(float(c)) for r in rows for c in r)


def test_certify_passes_off_the_standard_wall(capsys):
    assert main(["certify", "--sites", "11", "--x0", "1"]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("gap-formula") and "PASS" in line for line in out.splitlines())
    assert "all checks passed" in out


def test_gap_scaling_formula_off_the_standard_wall(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["gap-scaling", "--x0", "1", "--sizes", "11:21:2", "--out", str(out)]) == 0
    columns, rows = read_csv(out)
    numeric = np.array([float(r[columns.index("gap_bare_numeric")]) for r in rows])
    formula = np.array([float(r[columns.index("gap_bare_formula")]) for r in rows])
    assert np.all(np.isfinite(formula))
    np.testing.assert_allclose(formula, numeric, rtol=0, atol=1e-10)
