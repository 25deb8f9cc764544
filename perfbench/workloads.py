"""The benchmark's three workloads.

Each workload takes the workload seed, derives the program's seeds from it,
runs one pass of work through spinpair's public API (``run_pass``, the timed
part), and checks a pass's outputs against ``oracles`` (``check``, untimed).
Sizes follow the paper's acceptance criteria: 10^6 samples per Monte Carlo
estimate and a 101 x 101 (Delta, B) grid for the CLI sweeps.

Why these three (see METRICS.md for the per-layer predictions):

* mc-concurrence: the rng -> haar -> states -> measures sampling pipeline
  with no eigensolver at all; linalg changes must leave it unchanged.
* mc-negativity: linalg in batched mode (partial transpose and eigenvalues
  of 10^6 stacked 6x6 matrices); the memory-heavy path.
* cli-grid: linalg in single-matrix mode, one Hamiltonian build per grid
  point, CSV formatting, and many small Haar estimates instead of a few
  big ones.
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib

import numpy as np

import oracles

N_SAMPLES = 1_000_000
GRID = {"delta": (-2.0, 4.0, 101), "b": (-3.0, 3.0, 101)}
SURFACE_SAMPLES = 1000
TARGET_STDERR = 1e-4
MAX_MESSAGES = 20


def derive_seed(workload_seed: int, name: str) -> int:
    """The 64-bit program seed of one workload, a pure function of the workload seed."""
    seq = np.random.SeedSequence([workload_seed, zlib.crc32(name.encode())])
    return int(seq.generate_state(1, np.uint64)[0])


class Checked:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ok: bool, message: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def add_rows(self, ok: np.ndarray, describe) -> None:
        """One operation per row; describe(i) explains a failing row i."""
        bad = np.flatnonzero(~ok)
        self.attempted += ok.size
        self.failed += bad.size
        for i in bad[:max(MAX_MESSAGES - len(self.messages), 0)]:
            self.messages.append(describe(i))


def _timed(fn, *args):
    """(seconds, result or the exception it raised) of one operation."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
        result = exc
    return time.perf_counter() - t0, result


class _Estimates:
    """A workload whose operations are Monte Carlo estimates, one per label."""

    labels: list[str]

    def references(self) -> list:
        raise NotImplementedError

    def check(self, output, checked: Checked) -> dict:
        summary = {}
        for (t, est), (ref_mean, ref_sd, ref_n), label in zip(output, self.references(), self.labels):
            if isinstance(est, Exception):
                checked.add(False, f"{label}: raised {type(est).__name__}: {est}")
                summary[label] = {"s": t, "error": repr(est)}
                continue
            why = oracles.check_estimate(est.mean, est.stderr, est.n, ref_mean, ref_sd, ref_n)
            checked.add(why is None, f"{label}: {why}")
            summary[label] = {"s": t, "mean": est.mean, "stderr": est.stderr, "reference": ref_mean}
        return summary

    def seconds_to_accuracy(self, output, wall: float) -> float:
        """Sum of wall time x (stderr / target)^2: the time to reach the target stderr."""
        return sum(t * (est.stderr / TARGET_STDERR) ** 2
                   for t, est in output if not isinstance(est, Exception))


class McConcurrence(_Estimates):
    """The seven Haar concurrence averages of acceptance criteria 1, 2 and 3."""

    name = "mc-concurrence"
    DELTAS = (0.1, 100.0, -1.0, -0.99, -1.01)

    def __init__(self, package: dict, seed: int, out_dir: str, n: int = N_SAMPLES):
        model, states = package["model"], package["states"]
        self.package, self.n = package, n
        self.seed = derive_seed(seed, self.name)
        self.labels = ["ferro", "quartet"] + [f"delta={d:g}" for d in self.DELTAS]
        self.bases = ([(states.basis_state("dD"), states.basis_state("uU")),
                       model.critical_ground_quartet()]
                      + [model.zero_field_ground_basis(d) for d in self.DELTAS])
        self.items = len(self.bases) * n
        self._references = None

    def record(self) -> dict:
        return {"n": self.n, "program_seed": self.seed,
                "estimates": [{"label": lab, "stream_id": i, "dim": len(b)}
                              for i, (lab, b) in enumerate(zip(self.labels, self.bases))]}

    def run_pass(self):
        haar, rng = self.package["haar"], self.package["rng"]
        return [_timed(haar.average_concurrence, basis, self.n, rng.RandomStream(self.seed, i))
                for i, basis in enumerate(self.bases)]

    def references(self):
        if self._references is None:
            e = np.eye(6)
            ferro = (np.pi / 4, oracles.doublet_moments((e[5], e[0]))[1], None)
            refs = [ferro, oracles.QUARTET_CONCURRENCE]
            for d in self.DELTAS:
                _, (basis,) = oracles.ground_spaces(np.array([d]), np.array([0.0]))
                refs.append(oracles.concurrence_reference(basis))
            self._references = refs
        return self._references

    def predicted_counts(self) -> dict:
        return {"rng.normals.count": sum(2 * len(b) * self.n for b in self.bases),
                "linalg.eig.calls": 0, "model.hamiltonian.calls": 0}


class McNegativity(_Estimates):
    """Criterion 5b: simplex-averaged negativity of the Delta = -1 quartet mixtures."""

    name = "mc-negativity"
    labels = ["negativity(-1)"]

    def __init__(self, package: dict, seed: int, out_dir: str, n: int = N_SAMPLES):
        self.package, self.n = package, n
        self.seed = derive_seed(seed, self.name)
        self.items = n

    def record(self) -> dict:
        return {"n": self.n, "program_seed": self.seed, "stream_id": 0, "delta": -1.0}

    def run_pass(self):
        haar, rng = self.package["haar"], self.package["rng"]
        return [_timed(haar.average_mixture_negativity, -1.0, self.n, rng.RandomStream(self.seed, 0))]

    def references(self) -> list:
        return [oracles.QUARTET_NEGATIVITY]

    def predicted_counts(self) -> dict:
        return {"linalg.eig.matrices": self.n}


class CliGrid:
    """spectrum, ground and concurrence-surface over one (Delta, B) grid, as CSV files."""

    name = "cli-grid"
    COLUMNS = {"spectrum": 8, "ground": 4, "concurrence-surface": 4}

    def __init__(self, package: dict, seed: int, out_dir: str, grid: dict = GRID,
                 samples: int = SURFACE_SAMPLES):
        self.package, self.grid, self.samples = package, grid, samples
        self.seed = derive_seed(seed, self.name)
        self.out_dir = out_dir
        self.passes = 0
        self.axes = []
        for axis, (lo, hi, steps) in grid.items():
            self.axes += [f"--{axis}-min", repr(lo), f"--{axis}-max", repr(hi), f"--{axis}-steps", str(steps)]
        d = np.linspace(*grid["delta"])
        b = np.linspace(*grid["b"])
        self.delta, self.b = (a.ravel() for a in np.meshgrid(d, b, indexing="ij"))
        self.points = self.delta.size
        self.items = len(self.COLUMNS) * self.points
        self._oracle = None

    def record(self) -> dict:
        return {"grid": {k: list(v) for k, v in self.grid.items()}, "points": self.points,
                "samples": self.samples, "program_seed": self.seed,
                "stream_ids": "row index of concurrence-surface",
                "argv": {cmd: self.argv(cmd, 0) for cmd in self.COLUMNS}}

    def argv(self, cmd: str, pass_index: int) -> list[str]:
        """CLI arguments of one command; each pass writes its own files."""
        mc = ["--samples", str(self.samples), "--seed", str(self.seed)] if cmd == "concurrence-surface" else []
        path = os.path.join(self.out_dir, f"{cmd}-{pass_index}.csv")
        return [cmd, *self.axes, *mc, "--output", path]

    def run_pass(self):
        cli = self.package["cli"]
        argvs = {cmd: self.argv(cmd, self.passes) for cmd in self.COLUMNS}
        self.passes += 1
        return {cmd: (*_timed(cli.main, argv), argv[-1]) for cmd, argv in argvs.items()}

    def oracle(self) -> dict:
        if self._oracle is None:
            deg, bases = oracles.ground_spaces(self.delta, self.b)
            averaged = deg > 1
            c = np.zeros(self.points)
            sd = np.zeros(self.points)
            ref_se = np.zeros(self.points)
            for i in np.flatnonzero(~averaged):
                c[i] = oracles.concurrence_norm(bases[i][0])
            for i in np.flatnonzero(averaged):
                if deg[i] == 2:
                    (c[i], sd[i]), n_ref = oracles.doublet_moments(bases[i], 64, 32), None
                else:
                    c[i], sd[i], n_ref = oracles.concurrence_reference(bases[i])
                ref_se[i] = sd[i] / np.sqrt(n_ref) if n_ref else 0.0
            self._oracle = {"spectra": oracles.block_spectra(self.delta, self.b),
                            "degeneracy": deg, "averaged": averaged, "c": c,
                            "c_tol": oracles.MC_SIGMAS * np.hypot(sd / np.sqrt(self.samples), ref_se),
                            "stderr": sd / np.sqrt(self.samples)}
        return self._oracle

    def check(self, output, checked: Checked) -> dict:
        """Check each CSV row, then delete the file."""
        o = self.oracle()
        summary = {}
        for cmd, (t, code, path) in output.items():
            checked.add(code == 0, f"{cmd}: exit {code!r}")
            summary[cmd] = {"s": t, "exit": code if isinstance(code, int) else repr(code)}
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                os.remove(path)
                summary[cmd]["sha256"] = hashlib.sha256(data).hexdigest()
                header, _, body = data.decode("ascii").partition("\n")
                table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
                if table.shape != (self.points, self.COLUMNS[cmd]) or header.count(",") + 1 != table.shape[1]:
                    raise ValueError(f"table shape {table.shape}")
            except (OSError, ValueError) as exc:
                checked.add(False, f"{cmd}: unreadable output: {exc}", count=self.points)
                continue
            ok = _close(table[:, 0], self.delta) & _close(table[:, 1], self.b)
            if cmd == "spectrum":
                ok &= _close(table[:, 2:], o["spectra"]).all(axis=1)
            elif cmd == "ground":
                ok &= _close(table[:, 2], o["spectra"][:, 0]) & (table[:, 3] == o["degeneracy"])
            else:
                avg = o["averaged"]
                ok &= table[:, 3] == avg
                ok &= np.where(avg, np.abs(table[:, 2] - o["c"]) <= o["c_tol"] + 1e-9,
                               _close(table[:, 2], o["c"]))
            checked.add_rows(ok, lambda i: f"{cmd}: row {i + 1} {table[i].tolist()} disagrees with the oracle")
        return summary

    def seconds_to_accuracy(self, output, wall: float) -> float:
        """Pass time x mean (stderr / target)^2 over the averaged surface cells.

        The CSV carries no stderr and the estimates inside one CLI call are
        not timed untraced, so this scales the whole pass by the oracle's
        stderr ratio: on this workload it moves with wall_s only.
        """
        o = self.oracle()
        return wall * ((o["stderr"][o["averaged"]] / TARGET_STDERR) ** 2).mean()

    def predicted_counts(self) -> dict:
        crossings = int((self.oracle()["averaged"] & (self.b != 0.0)).sum())
        calls = 2 * self.points + crossings   # spectrum + ground per point, crossing bases
        return {"linalg.eig.matrices": calls, "model.hamiltonian.calls": calls}


def _close(got, want) -> np.ndarray:
    """Agreement to the CLI's 9 significant digits."""
    return np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want))


WORKLOADS = {w.name: w for w in (McConcurrence, McNegativity, CliGrid)}
