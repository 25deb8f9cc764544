"""Command line interface: formats, values, determinism, exit codes."""

import numpy as np
import pytest

from spinpair.cli import main


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def rows(payload):
    lines = payload.decode("ascii").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestFormats:
    def test_header_newlines_and_precision(self, tmp_path):
        code, payload = run_cli(tmp_path, "spectrum", "--delta", "1", "--b", "0",
                                "--precision", "4")
        assert code == 0
        assert payload.endswith(b"\n") and b"\r" not in payload
        header, data = rows(payload)
        assert header == ["delta", "b", "e0", "e1", "e2", "e3", "e4", "e5"]
        assert data == [["1", "0", "-1", "-1", "0.5", "0.5", "0.5", "0.5"]]

    def test_stdout_output(self, capsys):
        assert main(["spectrum", "--delta", "0", "--b", "0"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("delta,b,e0")

    def test_significant_digits(self, tmp_path):
        _, payload = run_cli(tmp_path, "spectrum", "--delta", "0", "--b", "0",
                             "--precision", "12")
        _, data = rows(payload)
        assert data[0][2] == format(-np.sqrt(2.0) / 2.0, ".12g")


class TestDeterminism:
    def test_identical_seeds_are_byte_identical(self, tmp_path):
        args = ("avg-concurrence", "--delta-min", "-2", "--delta-max", "2",
                "--delta-steps", "5", "--samples", "500", "--seed", "0x2A")
        _, first = run_cli(tmp_path, *args)
        _, second = run_cli(tmp_path, *args)
        assert first == second

    def test_different_seed_changes_mc_output(self, tmp_path):
        base = ("avg-concurrence", "--delta", "1", "--samples", "500")
        _, a = run_cli(tmp_path, *base, "--seed", "1")
        _, b = run_cli(tmp_path, *base, "--seed", "2")
        assert a != b


class TestAvgConcurrence:
    def test_degeneracy_column_and_critical_snap(self, tmp_path):
        code, payload = run_cli(tmp_path, "avg-concurrence", "--delta-min", "-1",
                                "--delta-max", "1", "--delta-steps", "2",
                                "--samples", "2000")
        assert code == 0
        header, data = rows(payload)
        assert header == ["delta", "c_avg", "stderr", "degeneracy"]
        assert data[0][0] == "-1" and data[0][3] == "4"
        assert data[1][0] == "1" and data[1][3] == "2"
        assert 0.55 < float(data[0][1]) < 0.72

    def test_ferromagnetic_value(self, tmp_path):
        _, payload = run_cli(tmp_path, "avg-concurrence", "--delta", "-2",
                             "--samples", "20000")
        _, data = rows(payload)
        assert float(data[0][1]) == pytest.approx(np.pi / 4.0, abs=4 * float(data[0][2]))

    def test_near_critical_grid_point_snaps(self, tmp_path):
        # within 1e-12 of the critical anisotropy the fourfold branch is used
        _, payload = run_cli(tmp_path, "avg-concurrence",
                             "--delta", "-1.0000000000000002", "--samples", "500")
        _, data = rows(payload)
        assert data[0][0] == "-1" and data[0][3] == "4"


class TestEnergyVsB:
    def test_polarized_energy_and_critical_marks(self, tmp_path):
        code, payload = run_cli(tmp_path, "energy-vs-b", "--delta", "1",
                                "--b-min", "-3", "--b-max", "3", "--b-steps", "25")
        assert code == 0
        header, data = rows(payload)
        assert header[-1] == "is_critical"
        by_b = {float(r[0]): r for r in data}
        assert float(by_b[2.0][1]) == pytest.approx(-2.5, abs=1e-9)
        marked = sorted(b for b, r in by_b.items() if r[-1] == "1")
        step = 0.25
        for crit in (-1.5, 0.0, 1.5):
            assert any(abs(b - crit) <= step + 1e-9 for b in marked)
        for b in marked:
            assert min(abs(b - c) for c in (-1.5, 0.0, 1.5)) <= step + 1e-9

    def test_zero_field_degenerate_bottom(self, tmp_path):
        _, payload = run_cli(tmp_path, "energy-vs-b", "--delta", "0", "--b", "0")
        _, data = rows(payload)
        e0, e1 = float(data[0][1]), float(data[0][2])
        assert e0 == pytest.approx(-np.sqrt(2.0) / 2.0, abs=1e-9)
        assert e1 == pytest.approx(e0, abs=1e-9)


class TestConcurrenceSurface:
    def test_window_values(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "concurrence-surface", "--delta-min", "0", "--delta-max", "1",
            "--delta-steps", "2", "--b-min", "-2", "--b-max", "2", "--b-steps", "41",
            "--samples", "200")
        assert code == 0
        header, data = rows(payload)
        assert header == ["delta", "b", "c_norm", "averaged"]
        table = {(float(r[0]), float(r[1])): r for r in data}
        assert float(table[(0.0, -0.3)][2]) == pytest.approx(1.0, abs=1e-9)
        assert float(table[(1.0, 2.0)][2]) == 0.0
        assert table[(1.0, 0.0)][3] == "1"  # zero-field rows carry the averaged flag
        assert table[(1.0, 0.1)][3] == "0"

    def test_window_collapses_near_critical_anisotropy(self, tmp_path):
        # half-width at Delta=-0.99 is (3*Delta + sqrt(8+Delta^2))/4 = 0.00667
        _, payload = run_cli(
            tmp_path, "concurrence-surface", "--delta", "-0.99",
            "--b-min", "0.006", "--b-max", "0.01", "--b-steps", "2",
            "--samples", "200")
        _, data = rows(payload)
        assert float(data[0][2]) > 0.9  # B=0.006 still inside the window
        assert float(data[1][2]) == 0.0  # B=0.010 outside

    def test_ferromagnetic_rows(self, tmp_path):
        _, payload = run_cli(tmp_path, "concurrence-surface", "--delta", "-2",
                             "--b-min", "-1", "--b-max", "1", "--b-steps", "3",
                             "--samples", "5000")
        _, data = rows(payload)
        assert [r[2] for r in data if r[1] != "0"] == ["0", "0"]
        zero_field = next(r for r in data if r[1] == "0")
        assert zero_field[3] == "1"
        assert float(zero_field[2]) == pytest.approx(np.pi / 4.0, abs=0.02)


class TestNegativityVsDelta:
    def test_key_rows(self, tmp_path):
        code, payload = run_cli(tmp_path, "negativity-vs-delta", "--delta-min", "-2",
                                "--delta-max", "1", "--delta-steps", "4",
                                "--samples", "2000")
        assert code == 0
        header, data = rows(payload)
        assert header == ["delta", "n_equilibrium", "n_average", "stderr"]
        by_delta = {float(r[0]): r for r in data}
        assert float(by_delta[-2.0][1]) == 0.0
        assert float(by_delta[-2.0][2]) == 0.0
        assert float(by_delta[1.0][1]) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert float(by_delta[1.0][2]) == pytest.approx(0.375, abs=0.02)
        assert float(by_delta[-1.0][2]) == pytest.approx(0.077, abs=0.02)


class TestPoint:
    def test_nondegenerate_window_point(self, tmp_path):
        out = tmp_path / "point.txt"
        assert main(["point", "--delta", "0", "--b", "-0.3",
                     "--output", str(out)]) == 0
        report = dict(line.split("=") for line in out.read_text().splitlines())
        assert report["degeneracy"] == "1"
        assert float(report["c_norm"]) == pytest.approx(1.0, abs=1e-9)
        assert float(report["entropy_bits"]) == pytest.approx(1.0, abs=1e-9)
        assert float(report["negativity"]) == pytest.approx(0.5, abs=1e-9)

    def test_polarized_point(self, tmp_path):
        out = tmp_path / "point.txt"
        assert main(["point", "--delta", "-2", "--b", "0.5",
                     "--output", str(out)]) == 0
        report = dict(line.split("=") for line in out.read_text().splitlines())
        assert report["degeneracy"] == "1"
        assert float(report["c_norm"]) == 0.0

    def test_degenerate_point_reports_average(self, tmp_path):
        out = tmp_path / "point.txt"
        assert main(["point", "--delta", "1", "--b", "0", "--samples", "2000",
                     "--seed", "5", "--output", str(out)]) == 0
        report = dict(line.split("=") for line in out.read_text().splitlines())
        assert report["degeneracy"] == "2"
        assert float(report["c_avg_stderr"]) > 0.0
        assert report["samples"] == "2000"
        assert report["seed"] == "5"
        assert float(report["negativity_equilibrium"]) == pytest.approx(1 / 3, abs=1e-9)


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert main(["avg-concurrence", "--delta", "1", "--samples", "50"]) == 2
        assert main(["avg-concurrence", "--delta-min", "0", "--delta-max", "1"]) == 2
        assert main(["avg-concurrence", "--delta-min", "1", "--delta-max", "0",
                     "--delta-steps", "5"]) == 2
        assert main(["avg-concurrence", "--delta", "1", "--delta-min", "0",
                     "--delta-max", "1", "--delta-steps", "3"]) == 2
        assert main(["spectrum", "--delta", "1", "--b-min", "0", "--b-max", "1",
                     "--b-steps", "0"]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["avg-concurrence", "--delta", "1", "--seed", "-3"]) == 2
        assert main(["point", "--delta", "1", "--b", "0", "--precision", "0"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_numeric_failure(self):
        # finite flags whose Hamiltonian overflows
        assert main(["spectrum", "--delta", "1e308", "--b", "1e308"]) == 3

    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--delta", "nan", "--b", "0"], "--delta"),
        (["spectrum", "--delta", "0", "--b", "nan"], "--b"),
        (["spectrum", "--delta", "0", "--b-min", "0", "--b-max", "inf", "--b-steps", "3"],
         "--b-max"),
        (["ground", "--delta-min=-inf", "--delta-max", "0", "--delta-steps", "3", "--b", "0"],
         "--delta-min"),
        (["avg-concurrence", "--delta-min", "nan", "--delta-max", "1", "--delta-steps", "2"],
         "--delta-min"),
        (["energy-vs-b", "--delta", "0", "--b-min", "0", "--b-max", "1e400", "--b-steps", "2"],
         "--b-max"),
        (["point", "--delta", "inf", "--b", "0"], "--delta"),
    ])
    def test_non_finite_values_are_usage_errors(self, argv, flag, capsys):
        assert main(argv) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "spinpair" in capsys.readouterr().out
