"""Spans around calls into spinpair's modules, recorded from outside the package.

``Tracer.installed()`` replaces the public module attributes through which
the package calls itself (``rng.standard_normals``, ``model.spectrum``, ...)
with timing wrappers and restores them on exit.  Because spinpair's modules
call each other through module attributes and module globals, the wrappers
also see the package's internal calls, so spans nest: a ``model.spectrum``
span holds a ``model.hamiltonian`` and a ``linalg.eig_hermitian`` span.

Spans stay in memory as [parent, name, start_ns, end_ns, counts] and are
written out once, at the end of the run.  Self time is a span's duration
minus the durations of its direct children, so the self times of all spans
plus the benchmark's own time outside any span add up to the traced wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np


def _one(args, result):
    return (1,)


def _length(args, result):
    return (len(result),)


def _scalars(args, result):
    return (int(np.size(result)),)


def _stacked(args, result):
    return (int(np.prod(np.shape(result)[:-1], dtype=int)),)


def _matrices(args, result):
    return (int(np.prod(np.shape(result)[:-2], dtype=int)),)


def _samples(args, result):
    return (result.n,)


def _cli_output(args, result):
    """Rows (lines after the header) and bytes of the CSV file cli.main wrote."""
    argv = list(args[0])
    try:
        with open(argv[argv.index("--output") + 1], "rb") as fh:
            data = fh.read()
    except OSError:  # a failed invocation writes nothing; the check counts it
        return (0, 0)
    return (max(data.count(b"\n") - 1, 0), len(data))


# (module, attribute, counts(args, result)) for every wrapped entry point
WRAPPED = (
    ("rng", "standard_normals", _length),
    ("rng", "uniforms", _length),
    ("rng", "exponentials", _length),
    ("rng", "RandomStream.substream", _one),
    ("states", "require_normalized", _stacked),
    ("measures", "concurrence_bilinear", _scalars),
    ("measures", "negativity_of_stack", _scalars),
    ("linalg", "eig_hermitian", _one),
    ("linalg", "eigvals_hermitian", _stacked),
    ("linalg", "partial_transpose_qubit", _matrices),
    ("model", "hamiltonian", _one),
    ("model", "spectrum", _one),
    ("model", "ground_subspace", _one),
    ("model", "ground_concurrence_field", _one),
    ("haar", "average_concurrence", _samples),
    ("haar", "average_mixture_negativity", _samples),
    ("cli", "main", _cli_output),
)

LAYERS = ("linalg", "states", "measures", "model", "rng", "haar", "cli")


def owner_of(package: dict, module: str, attr: str):
    """(object holding the attribute, attribute name) for a WRAPPED entry."""
    owner = package[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counts):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, name_id, 0, 0, ()]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            span[4] = counts(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package: dict):
        """Wrap every WRAPPED attribute of the given {module name: module} map."""
        saved = []
        try:
            for module, attr, counts in WRAPPED:
                owner, leaf = owner_of(package, module, attr)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(f"{module}.{attr}", original, counts))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def totals(self) -> tuple[dict, dict, float]:
        """Per span name {calls, self_s, counts}; per (parent name, name) the
        same for direct children; and the seconds covered by top-level spans."""
        dur = [(s[3] - s[2]) * 1e-9 for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[0] >= 0:
                child[s[0]] += dur[i]
        by_name: dict = {}
        by_pair: dict = {}
        top = 0.0
        for i, (parent, name_id, _, _, counts) in enumerate(self.spans):
            name = self.names[name_id]
            keys = [(by_name, name)]
            if parent < 0:
                top += dur[i]
            else:
                keys.append((by_pair, (self.names[self.spans[parent][1]], name)))
            for table, key in keys:
                t = table.setdefault(key, {"calls": 0, "self_s": 0.0, "counts": [0, 0]})
                t["calls"] += 1
                t["self_s"] += dur[i] - child[i]
                for k, c in enumerate(counts):
                    t["counts"][k] += c
        return by_name, by_pair, top

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"format": "[parent, name, start_ns, end_ns, counts]",
                       "names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, traced_wall_s: float, passes: int) -> dict:
    """Per-pass per-layer metrics: '.s' names are self seconds, the rest counts."""
    by_name, by_pair, top = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0, "counts": [0, 0]}

    def self_s(*names):
        return sum(by_name.get(n, empty)["self_s"] for n in names) / passes

    def calls(*names):
        return sum(by_name.get(n, empty)["calls"] for n in names) // passes

    def count(*names, k=0):
        return sum(by_name.get(n, empty)["counts"][k] for n in names) // passes

    def child_calls(parents, name):
        return sum(by_pair.get((p, name), empty)["calls"] for p in parents) // passes

    def child_count(parents, name):
        return sum(by_pair.get((p, name), empty)["counts"][0] for p in parents) // passes

    eig = ("linalg.eig_hermitian", "linalg.eigvals_hermitian")
    haar = ("haar.average_concurrence", "haar.average_mixture_negativity")
    matrices = count(*eig)
    normals = count("rng.standard_normals")
    polar_uniforms = child_count(["rng.standard_normals"], "rng.uniforms")
    m = {
        "linalg.eig.s": self_s(*eig),
        "linalg.eig.calls": calls(*eig),
        "linalg.eig.matrices": matrices,
        "linalg.eig.us_per_matrix": 1e6 * self_s(*eig) / matrices if matrices else 0.0,
        "linalg.partial_transpose.s": self_s("linalg.partial_transpose_qubit"),
        "model.hamiltonian.s": self_s("model.hamiltonian"),
        "model.hamiltonian.calls": calls("model.hamiltonian"),
        "model.spectrum.self_s": self_s("model.spectrum"),
        "model.ground_subspace.self_s": self_s("model.ground_subspace"),
        "model.closed_form.s": self_s("model.ground_concurrence_field"),
        "cli.rows": count("cli.main"),
        "cli.bytes": count("cli.main", k=1),
        "rng.normals.s": self_s("rng.standard_normals"),
        "rng.normals.count": normals,
        "rng.uniforms.s": self_s("rng.uniforms"),
        "rng.uniforms.count": count("rng.uniforms"),
        "rng.exponentials.s": self_s("rng.exponentials"),
        "rng.substream.s": self_s("rng.RandomStream.substream"),
        "rng.substream.calls": calls("rng.RandomStream.substream"),
        "rng.polar_yield": normals / polar_uniforms if polar_uniforms else 0.0,
        "haar.estimates": calls(*haar),
        "haar.chunks": child_calls(haar, "rng.RandomStream.substream"),
        "haar.samples": count(*haar),
        "states.validate.s": self_s("states.require_normalized"),
        "measures.concurrence.s": self_s("measures.concurrence_bilinear"),
        "measures.concurrence.states": count("measures.concurrence_bilinear"),
        "measures.negativity.s": self_s("measures.negativity_of_stack"),
        "measures.negativity.matrices": count("measures.negativity_of_stack"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*(n for n in tracer.names if n.startswith(layer + ".")))
    m["bench.self_s"] = traced_wall_s - top / passes
    m["trace.wall_s"] = traced_wall_s
    return m
