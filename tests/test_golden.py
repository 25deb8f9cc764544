"""CLI output against golden files recorded with the former Jacobi eigensolver.

Each file in tests/data holds the output of one flag set below.  Every cell
must match as a string, except cells whose recorded and current values are
both below 1e-12 in magnitude: those are eigenvalues that are exactly zero,
and their rounding noise depends on the eigensolver.
"""

import re
from pathlib import Path

import pytest

from spinpair.cli import main

DATA = Path(__file__).parent / "data"
ZERO_NOISE = 1e-12

GOLDEN = {
    # flag sets of tests/test_cli.py
    "spectrum_d1_b0_p4.csv": ["spectrum", "--delta", "1", "--b", "0", "--precision", "4"],
    "spectrum_d0_b0.csv": ["spectrum", "--delta", "0", "--b", "0"],
    "spectrum_d0_b0_p12.csv": ["spectrum", "--delta", "0", "--b", "0", "--precision", "12"],
    "avg_concurrence_grid5_seed2a.csv": [
        "avg-concurrence", "--delta-min", "-2", "--delta-max", "2", "--delta-steps", "5",
        "--samples", "500", "--seed", "0x2A"],
    "avg_concurrence_d1_seed1.csv": [
        "avg-concurrence", "--delta", "1", "--samples", "500", "--seed", "1"],
    "avg_concurrence_d1_seed2.csv": [
        "avg-concurrence", "--delta", "1", "--samples", "500", "--seed", "2"],
    "avg_concurrence_critical_pair.csv": [
        "avg-concurrence", "--delta-min", "-1", "--delta-max", "1", "--delta-steps", "2",
        "--samples", "2000"],
    "avg_concurrence_ferro.csv": ["avg-concurrence", "--delta", "-2", "--samples", "20000"],
    "avg_concurrence_snap.csv": [
        "avg-concurrence", "--delta", "-1.0000000000000002", "--samples", "500"],
    "energy_vs_b_d1_25.csv": [
        "energy-vs-b", "--delta", "1", "--b-min", "-3", "--b-max", "3", "--b-steps", "25"],
    "energy_vs_b_d0_b0.csv": ["energy-vs-b", "--delta", "0", "--b", "0"],
    "surface_window.csv": [
        "concurrence-surface", "--delta-min", "0", "--delta-max", "1", "--delta-steps", "2",
        "--b-min", "-2", "--b-max", "2", "--b-steps", "41", "--samples", "200"],
    "surface_near_critical.csv": [
        "concurrence-surface", "--delta", "-0.99", "--b-min", "0.006", "--b-max", "0.01",
        "--b-steps", "2", "--samples", "200"],
    "surface_ferro.csv": [
        "concurrence-surface", "--delta", "-2", "--b-min", "-1", "--b-max", "1",
        "--b-steps", "3", "--samples", "5000"],
    "negativity_vs_delta_4.csv": [
        "negativity-vs-delta", "--delta-min", "-2", "--delta-max", "1", "--delta-steps", "4",
        "--samples", "2000"],
    "point_window.txt": ["point", "--delta", "0", "--b", "-0.3"],
    "point_polarized.txt": ["point", "--delta", "-2", "--b", "0.5"],
    "point_degenerate.txt": [
        "point", "--delta", "1", "--b", "0", "--samples", "2000", "--seed", "5"],
    # acceptance criterion 10
    "avg_concurrence_feed.csv": [
        "avg-concurrence", "--delta-min", "-2", "--delta-max", "2", "--delta-steps", "9",
        "--samples", "20000", "--seed", "0xFEED"],
    "negativity_vs_delta_7.csv": [
        "negativity-vs-delta", "--delta-min", "-1.5", "--delta-max", "1.5",
        "--delta-steps", "7", "--samples", "20000", "--seed", "7"],
    # dense spectra, where the eigensolver does all the work
    "spectrum_grid_61x41.csv": [
        "spectrum", "--delta-min", "-3", "--delta-max", "3", "--delta-steps", "61",
        "--b-min", "-2", "--b-max", "2", "--b-steps", "41"],
    "energy_vs_b_d1_601.csv": [
        "energy-vs-b", "--delta", "1", "--b-min", "-3", "--b-max", "3", "--b-steps", "601"],
}


def cells(text):
    return [re.split("[,=]", line) for line in text.splitlines()]


def same_cell(old, new):
    if old == new:
        return True
    try:
        return abs(float(old)) < ZERO_NOISE and abs(float(new)) < ZERO_NOISE
    except ValueError:
        return False


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--output", str(out)]) == 0
    old = cells((DATA / name).read_text(encoding="ascii"))
    new = cells(out.read_text(encoding="ascii"))
    assert [len(row) for row in new] == [len(row) for row in old]
    changed = [(i, j, o, n) for i, (old_row, new_row) in enumerate(zip(old, new))
               for j, (o, n) in enumerate(zip(old_row, new_row)) if not same_cell(o, n)]
    assert changed == []
