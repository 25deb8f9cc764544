"""Command line sweeps over (Delta, B, p) with CSV output.

Subcommands
-----------
spectrum             six eigenvalues per (Delta, B) grid point
ground               ground energy and degeneracy per grid point
avg-concurrence      subspace-averaged concurrence vs Delta at B = 0
energy-vs-b          the six levels along a B grid at fixed Delta
concurrence-surface  ground concurrence over a (Delta, B) grid
negativity-vs-delta  equilibrium and averaged mixture negativity vs Delta
point                consolidated report for a single (Delta, B)

Output is RFC-4180-style CSV (numbers only, so no quoting), newline line
endings, a header in the first row, every numeric cell rendered with the
configured number of significant digits.  Identical flags and seed give byte
identical output.  Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import haar, measures, model, rng, states

CRITICAL_SNAP_ATOL = 1e-12
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 1
DEFAULT_PRECISION = 9

_MC_COMMANDS = {"avg-concurrence", "concurrence-surface", "negativity-vs-delta", "point"}


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def _add_axis(parser: argparse.ArgumentParser, name: str, single_help: str) -> None:
    parser.add_argument(f"--{name}", type=float, default=None, help=single_help)
    parser.add_argument(f"--{name}-min", type=float, default=None)
    parser.add_argument(f"--{name}-max", type=float, default=None)
    parser.add_argument(f"--{name}-steps", type=int, default=None,
                        help=f"number of grid points between --{name}-min and --{name}-max")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default="-", help="output path, or - for stdout")
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help="significant digits per numeric cell")


def _add_mc(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help="Monte Carlo samples per averaged value")
    parser.add_argument("--seed", type=rng.parse_seed, default=DEFAULT_SEED,
                        help="decimal or 0x-prefixed 64-bit seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinpair", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, axes in [
        ("spectrum", ("delta", "b")),
        ("ground", ("delta", "b")),
        ("avg-concurrence", ("delta",)),
        ("energy-vs-b", ("delta", "b")),
        ("concurrence-surface", ("delta", "b")),
        ("negativity-vs-delta", ("delta",)),
        ("point", ("delta", "b")),
    ]:
        p = sub.add_parser(name)
        for axis in axes:
            _add_axis(p, axis, f"single {axis} value")
        if name in _MC_COMMANDS:
            _add_mc(p)
        _add_output(p)
    return parser


def _axis_grid(args, name: str) -> np.ndarray:
    single = getattr(args, name)
    lo = getattr(args, f"{name}_min")
    hi = getattr(args, f"{name}_max")
    steps = getattr(args, f"{name}_steps")
    ranged = [v is not None for v in (lo, hi, steps)]
    for flag, value in ((name, single), (f"{name}-min", lo), (f"{name}-max", hi)):
        if value is not None and not np.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value}")
    if single is not None:
        if any(ranged):
            raise UsageError(f"--{name} conflicts with --{name}-min/max/steps")
        return np.array([single], dtype=float)
    if not all(ranged):
        raise UsageError(f"give either --{name} or all of --{name}-min/max/steps")
    if steps < 1:
        raise UsageError(f"--{name}-steps must be >= 1, got {steps}")
    if not lo <= hi:
        raise UsageError(f"--{name}-min {lo} exceeds --{name}-max {hi}")
    return np.linspace(lo, hi, steps)


def _single(args, name: str) -> float:
    grid = _axis_grid(args, name)
    if grid.size != 1:
        raise UsageError(f"command needs a single --{name} value")
    return float(grid[0])


def _snap_delta(delta: float) -> float:
    return -1.0 if abs(delta + 1.0) <= CRITICAL_SNAP_ATOL else delta


def _check_mc(args) -> None:
    if args.samples < haar.MIN_SAMPLES:
        raise UsageError(f"--samples must be >= {haar.MIN_SAMPLES}, got {args.samples}")
    if args.precision < 1:
        raise UsageError(f"--precision must be >= 1, got {args.precision}")


class _Table:
    def __init__(self, header: list[str], precision: int):
        if precision < 1:
            raise UsageError(f"--precision must be >= 1, got {precision}")
        self._fmt = f".{precision}g"
        self.lines = [",".join(header)]

    def cell(self, value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), self._fmt)

    def row(self, *values) -> None:
        self.lines.append(",".join(self.cell(v) for v in values))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _equilibrium_negativity(basis: np.ndarray) -> float:
    k = basis.shape[0]
    rho = states.density_of_mixture(np.full(k, 1.0 / k), basis)
    return measures.negativity(rho)


def _cmd_spectrum(args) -> str:
    table = _Table(["delta", "b", "e0", "e1", "e2", "e3", "e4", "e5"], args.precision)
    for delta in _axis_grid(args, "delta"):
        for b in _axis_grid(args, "b"):
            vals = model.spectrum(model.ModelParams(delta=float(delta), b=float(b))).values
            table.row(delta, b, *vals)
    return table.text()


def _cmd_ground(args) -> str:
    table = _Table(["delta", "b", "energy", "degeneracy"], args.precision)
    for delta in _axis_grid(args, "delta"):
        for b in _axis_grid(args, "b"):
            gs = model.ground_subspace(model.ModelParams(delta=float(delta), b=float(b)))
            table.row(delta, b, gs.energy, gs.degeneracy)
    return table.text()


def _cmd_avg_concurrence(args) -> str:
    _check_mc(args)
    table = _Table(["delta", "c_avg", "stderr", "degeneracy"], args.precision)
    for index, delta in enumerate(_axis_grid(args, "delta")):
        delta = _snap_delta(float(delta))
        basis = model.zero_field_ground_basis(delta)
        est = haar.average_concurrence(basis, args.samples, rng.RandomStream(args.seed, index))
        table.row(delta, est.mean, est.stderr, len(basis))
    return table.text()


def _cmd_energy_vs_b(args) -> str:
    delta = _single(args, "delta")
    grid = _axis_grid(args, "b")
    step = float(grid[-1] - grid[0]) / (grid.size - 1) if grid.size > 1 else 0.0
    crit = model.critical_fields(delta)
    table = _Table(["b", "e0", "e1", "e2", "e3", "e4", "e5", "is_critical"], args.precision)
    for b in grid:
        vals = model.spectrum(model.ModelParams(delta=delta, b=float(b))).values
        near = int(np.abs(crit - b).min() <= step + 1e-12)
        table.row(b, *vals, near)
    return table.text()


def _cmd_concurrence_surface(args) -> str:
    _check_mc(args)
    table = _Table(["delta", "b", "c_norm", "averaged"], args.precision)
    row_index = 0
    for delta in _axis_grid(args, "delta"):
        delta = _snap_delta(float(delta))
        for b in _axis_grid(args, "b"):
            b = float(b)
            stream = rng.RandomStream(args.seed, row_index)
            row_index += 1
            if delta <= -1.0:
                if b == 0.0:
                    est = haar.average_concurrence(model.zero_field_ground_basis(delta),
                                                   args.samples, stream)
                    table.row(delta, b, est.mean, 1)
                else:
                    table.row(delta, b, 0.0, 0)
                continue
            try:
                table.row(delta, b, model.ground_concurrence_field(delta, b), 0)
            except model.DegenerateGroundError:
                if b == 0.0:
                    basis = model.zero_field_ground_basis(delta)
                else:
                    basis = model.ground_subspace(model.ModelParams(delta=delta, b=b)).basis
                est = haar.average_concurrence(basis, args.samples, stream)
                table.row(delta, b, est.mean, 1)
    return table.text()


def _cmd_negativity_vs_delta(args) -> str:
    _check_mc(args)
    table = _Table(["delta", "n_equilibrium", "n_average", "stderr"], args.precision)
    for index, delta in enumerate(_axis_grid(args, "delta")):
        delta = _snap_delta(float(delta))
        if delta < -1.0:
            eq = 0.0
        elif delta == -1.0:
            eq = model.critical_mixture_negativity(0.25, 0.25, 0.25, 0.25)
        else:
            eq = model.mixture_negativity_closed(0.5, delta)
        est = haar.average_mixture_negativity(delta, args.samples,
                                              rng.RandomStream(args.seed, index))
        table.row(delta, eq, est.mean, est.stderr)
    return table.text()


def _cmd_point(args) -> str:
    _check_mc(args)
    delta = _snap_delta(_single(args, "delta"))
    b = _single(args, "b")
    fmt = f".{args.precision}g"

    def render(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), fmt)

    if b == 0.0:
        basis = np.asarray(model.zero_field_ground_basis(delta))
        energy = model.ground_subspace(model.ModelParams(delta=delta, b=b)).energy
    else:
        gs = model.ground_subspace(model.ModelParams(delta=delta, b=b))
        basis, energy = gs.basis, gs.energy
    lines = [
        f"delta={render(delta)}",
        f"b={render(b)}",
        f"energy={render(energy)}",
        f"degeneracy={basis.shape[0]}",
    ]
    if basis.shape[0] == 1:
        ground = basis[0]
        lines += [
            f"c_norm={render(measures.concurrence_norm(ground))}",
            f"entropy_bits={render(measures.von_neumann_entropy(ground))}",
            f"negativity={render(measures.negativity(states.density_of_pure(ground)))}",
        ]
    else:
        est = haar.average_concurrence(basis, args.samples, rng.RandomStream(args.seed, 0))
        lines += [
            f"c_avg={render(est.mean)}",
            f"c_avg_stderr={render(est.stderr)}",
            f"samples={est.n}",
            f"seed={est.seed}",
            f"negativity_equilibrium={render(_equilibrium_negativity(basis))}",
        ]
    return "\n".join(lines) + "\n"


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "ground": _cmd_ground,
    "avg-concurrence": _cmd_avg_concurrence,
    "energy-vs-b": _cmd_energy_vs_b,
    "concurrence-surface": _cmd_concurrence_surface,
    "negativity-vs-delta": _cmd_negativity_vs_delta,
    "point": _cmd_point,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported; fold into a return code
        return 0 if exc.code in (0, None) else 2
    try:
        text = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"spinpair: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - any computational failure is exit 3
        print(f"spinpair: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
