"""The four workloads: set-up, closed-loop timed requests, and result checks.

Each workload is built from one seed (data and program generation happen
here, the program only receives the generated inputs), issues its requests
closed-loop — the next one when the previous one returned — and checks every
result against :mod:`reference`.  Everything a workload does before its timed
loop, including the discarded warm-up sweep that fills rule tables, lru
caches and lazy imports, is its set-up.

All requests pin ``backend="typed"``, the fastest configuration (ROADMAP).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from statistics import median

import numpy as np

from repro.baselines.base import output_shape
from repro.data.synthetic import random_sparse_matrix_coo, random_sparse_tensor3
from repro.execution.engine import PlanCache
from repro.kernels import KERNELS
from repro.serving import Server
from repro.session import Session
from repro.storage import (
    Catalog,
    COOFormat,
    CSCFormat,
    CSFFormat,
    CSRFormat,
    DenseFormat,
)

from stats import tail
from yardstick import REFERENCE_S, Yardstick

BACKEND = "typed"
#: Length of a slice of the timed loop (see ``Workload.close_slice``); the
#: clients of ``serve_mixed`` also pause this often for the yardstick.
SLICE_S = 1.0

#: Every size constant of the benchmark.  ``full`` was fixed from probes on
#: the 2-core reference machine so that each warm row's median is 6-14 ms
#: (about 270 samples per row in a 20 s run, >= 200 on a host a third slower),
#: a cold sweep of 12 rows takes about 1.6 s (>= 10 samples per row) and a
#: served request 0.4-3 ms.  ``smoke`` only checks that everything runs.
SIZES = {
    "full": {
        "warm_kernels": {
            "MMM": {"n": 4096, "density": 1.6e-3, "cols": 32},
            "BATAX": {"n": 2048, "density": 2e-3},
            "TTM": {"dims": (64, 256, 256), "nnz": 4000, "rank": 8},
            "MTTKRP": {"dims": (128, 1024, 1024), "nnz": 10000, "rank": 8},
        },
        "cold_oneshot": {
            "MMM": {"n": 144, "density": 0.02, "cols": 32},
            "BATAX": {"n": 144, "density": 0.02},
            "TTM": {"dims": (32, 1024, 1024), "nnz": 2000, "rank": 8},
            "MTTKRP": {"dims": (32, 1024, 1024), "nnz": 2000, "rank": 8},
            "optimizer_options": {},
        },
        "serve_mixed": {"n": 512, "density": 0.01, "cols": 16, "clients": 2,
                        "literals": (2, 3, 5), "miss_every": 32, "zipf_s": 1.0},
        "update_views": {"n": 4096, "density": 3e-3, "cols": 32, "delta": 8,
                         "steady_reads": 3, "check_every": 16},
    },
    "smoke": {
        "warm_kernels": {
            "MMM": {"n": 96, "density": 0.03, "cols": 8},
            "BATAX": {"n": 96, "density": 0.03},
            "TTM": {"dims": (8, 24, 24), "nnz": 200, "rank": 4},
            "MTTKRP": {"dims": (8, 24, 24), "nnz": 200, "rank": 4},
        },
        "cold_oneshot": {
            "MMM": {"n": 48, "density": 0.05, "cols": 8},
            "BATAX": {"n": 48, "density": 0.05},
            "TTM": {"dims": (8, 24, 24), "nnz": 200, "rank": 4},
            "MTTKRP": {"dims": (8, 24, 24), "nnz": 200, "rank": 4},
            # Saturation cost does not depend on data size; the smoke run
            # caps it so the whole command stays under ten seconds.
            "optimizer_options": {"iter_limit": 2},
        },
        "serve_mixed": {"n": 64, "density": 0.05, "cols": 4, "clients": 2,
                        "literals": (2, 3, 5), "miss_every": 32, "zipf_s": 1.0},
        "update_views": {"n": 128, "density": 0.02, "cols": 8, "delta": 4,
                         "steady_reads": 3, "check_every": 2},
    },
}

#: Density of the generated second operands (the paper uses 2^-5 for matrices;
#: the rank-8 factor matrices of TTM/MTTKRP are a quarter full).
OTHER_DENSITY = 2.0 ** -5
FACTOR_DENSITY = 0.25

#: The storage formats of the paper's Table 3 (STOREL column), per kernel.
TABLE3 = {
    "MMM": {"A": CSRFormat, "B": CSRFormat},
    "SUMMM": {"A": CSCFormat, "B": CSRFormat},
    "BATAX": {"A": CSRFormat},
    "BATAX-nested": {"A": CSRFormat},
    "TTM": {"A": CSFFormat, "B": CSCFormat},
    "MTTKRP": {"A": CSFFormat, "B": CSRFormat, "C": CSCFormat},
}


# -- data generation ------------------------------------------------------------


def matrix_coo(rng, rows, cols, density):
    coords, values = random_sparse_matrix_coo(rows, cols, density, rng=rng)
    return coords, values, (rows, cols)


def kernel_data(rng, kernel: str, size: dict) -> dict:
    """Seeded inputs of one Table-3 kernel: COO triples, vectors and scalars."""
    if kernel in ("MMM", "SUMMM"):
        n = size["n"]
        return {"A": matrix_coo(rng, n, n, size["density"]),
                "B": matrix_coo(rng, n, size["cols"], OTHER_DENSITY)}
    if kernel.startswith("BATAX"):
        n = size["n"]
        return {"A": matrix_coo(rng, n, n, size["density"]),
                "X": rng.uniform(0.1, 1.0, n), "beta": 0.5}
    d1, d2, d3 = dims = size["dims"]
    coords, values = random_sparse_tensor3(d1, d2, d3, size["nnz"] / (d1 * d2 * d3), rng=rng)
    data = {"A": (coords, values, dims)}
    if kernel == "TTM":
        data["B"] = matrix_coo(rng, size["rank"], d3, FACTOR_DENSITY)
    else:
        data["B"] = matrix_coo(rng, d2, size["rank"], FACTOR_DENSITY)
        data["C"] = matrix_coo(rng, d3, size["rank"], FACTOR_DENSITY)
    return data


# -- the common part of every workload --------------------------------------------


class Workload:
    """Set-up on construction; ``prepare_reference()`` then ``run(seconds)``."""

    name = ""

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.size = SIZES[scale][self.name]
        self.rng = np.random.default_rng([seed, sorted(SIZES["full"]).index(self.name)])
        self.build_s = 0.0          # all from_coo calls
        self.built: dict = {}       # (tensor data, format class) -> storage format
        self.clients = 1
        self.yardstick = Yardstick()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._checking = False
        self.reset()
        self.setup()
        self.sweep()

    # set-up helpers

    def build(self, cls, name: str, coo):
        start = time.perf_counter()
        fmt = cls.from_coo(name, *coo)
        self.build_s += time.perf_counter() - start
        return fmt

    def catalog(self, data: dict, formats: dict) -> Catalog:
        """A catalog over ``data``; a (tensor, format) pair is built only once."""
        catalog = Catalog()
        for name, value in data.items():
            if name == "beta":
                catalog.add_scalar(name, value)
            elif name in ("X", "Y"):
                catalog.add(DenseFormat.from_dense(name, value))
            else:
                key = (id(value), formats[name])
                if key not in self.built:
                    self.built[key] = self.build(formats[name], name, value)
                catalog.add(self.built[key])
        return catalog

    # the timed loop

    def request(self, row: str, call, expected=None):
        """Issue one closed-loop request; time it, count it, check its result."""
        if not self._checking:      # the warm-up sweep: neither timed nor checked
            return call()
        factor = self.yardstick.fresh_factor()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:    # a raised or refused request is a failed one
            self.failed += 1
            self.errors.append(f"{row}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.samples[row].append(elapsed * factor * 1e3)
        self.raw[row].append(elapsed * 1e3)
        if expected is not None:
            self.check(row, result, expected)
        return result

    def check(self, row: str, result, expected) -> None:
        if not self._matches(result, expected):
            self.failed += 1
            self.errors.append(f"{row}: result disagrees with the reference")

    def prepare_reference(self) -> None:
        """Compute the independent expected results (after set-up is timed)."""
        import reference

        self._matches = reference.matches
        self.reference(reference)
        self._checking = True

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        slice_end = time.perf_counter() + SLICE_S
        while True:
            self.sweep()
            now = time.perf_counter()
            if now >= slice_end or now >= deadline:
                self.close_slice()
                slice_end = now + SLICE_S
            if now >= deadline:
                break
        self.finish()

    def finish(self) -> None:
        """Hook: final checks after the timed loop."""

    # what was recorded

    def reset(self) -> None:
        """Forget every recorded sample (counts of attempts and failures stay)."""
        self.samples: dict[str, list[float]] = defaultdict(list)   # row -> ms at reference speed
        self.raw: dict[str, list[float]] = defaultdict(list)       # row -> wall-clock ms
        self.slice_p50: dict[str, list[float]] = defaultdict(list)
        self.slice_wall_p50: dict[str, list[float]] = defaultdict(list)
        self._closed: dict[str, int] = defaultdict(int)

    def close_slice(self) -> None:
        """End a slice: one median per row over the samples since the last one.

        A row's p50 is the median over the run's slices (about a second each)
        of these medians.  Pooling all samples instead lets a stretch in
        another regime — a slow host, or ``serve_mixed`` flipping between its
        two GIL modes — drag the median along in proportion to its length.
        """
        for row, values in self.samples.items():
            done = self._closed[row]
            if len(values) > done:
                self.slice_p50[row].append(median(values[done:]))
                self.slice_wall_p50[row].append(median(self.raw[row][done:]))
                self._closed[row] = len(values)

    def rows_summary(self) -> dict:
        """Per row: ``n``, p50 (at reference speed and wall-clock), supported tail."""
        rows = {}
        for row, values in self.samples.items():
            rows[row] = {"n": len(values), "p50_ms": median(self.slice_p50[row]),
                         "wall_p50_ms": median(self.slice_wall_p50[row])}
            supported = tail(values)
            if supported is not None:
                rows[row]["tail"], rows[row]["tail_ms"] = supported
        return rows

    def throughput_rps(self) -> float:
        """Requests per second of timed wall-clock, all rows together, with
        every request taking its row's p50 (so one stall does not count)."""
        rows = self.rows_summary()
        requests = sum(row["n"] for row in rows.values())
        busy_ms = sum(row["n"] * row["p50_ms"] for row in rows.values())
        return 1e3 * self.clients * requests / busy_ms


# -- warm_kernels -----------------------------------------------------------------


#: row -> (kernel, storage formats).  The first five are the Table-3 rows, the
#: last three run the same program text on another storage of A.
WARM_ROWS = {
    "MMM-csr": ("MMM", TABLE3["MMM"]),
    "SUMMM-csc": ("SUMMM", TABLE3["SUMMM"]),
    "BATAX-csr": ("BATAX", TABLE3["BATAX"]),
    "TTM-csf": ("TTM", TABLE3["TTM"]),
    "MTTKRP-csf": ("MTTKRP", TABLE3["MTTKRP"]),
    "MMM-coo": ("MMM", {**TABLE3["MMM"], "A": COOFormat}),
    "BATAX-csc": ("BATAX", {"A": CSCFormat}),
    "MTTKRP-coo": ("MTTKRP", {**TABLE3["MTTKRP"], "A": COOFormat}),
}


class WarmKernels(Workload):
    """Prepared ``Statement.execute()`` round-robin over the Table-3 kernels."""

    name = "warm_kernels"

    def setup(self) -> None:
        self.data = {kernel: kernel_data(self.rng, kernel, self.size[kernel])
                     for kernel in ("MMM", "BATAX", "TTM", "MTTKRP")}
        self.data["SUMMM"] = self.data["MMM"]
        self.rows = {}
        for row, (kernel, formats) in WARM_ROWS.items():
            data = self.data[kernel]
            catalog = self.catalog(data, formats)
            session = Session(catalog, backend=BACKEND, cache=PlanCache())
            shape = output_shape(KERNELS[kernel], catalog)
            statement = session.prepare(KERNELS[kernel].source, dense_shape=shape)
            self.rows[row] = {"kernel": kernel, "catalog": catalog, "shape": shape,
                              "statement": statement, "data": data, "expected": None}

    def reference(self, reference) -> None:
        for row, spec in self.rows.items():
            spec["expected"] = reference.kernel(row, spec["data"])

    def sweep(self) -> None:
        for row, spec in self.rows.items():
            self.request(row, spec["statement"].execute, spec["expected"])


# -- cold_oneshot -----------------------------------------------------------------


class ColdOneshot(Workload):
    """Every request is a fresh ``Session(...).run(source_text)``."""

    name = "cold_oneshot"
    METHODS = ("greedy", "egraph")

    def setup(self) -> None:
        self.options = self.size["optimizer_options"]
        self.programs = {}
        for kernel in ("MMM", "SUMMM", "BATAX", "BATAX-nested", "TTM", "MTTKRP"):
            size = self.size["BATAX" if kernel == "BATAX-nested" else
                             "MMM" if kernel == "SUMMM" else kernel]
            data = kernel_data(self.rng, kernel, size)
            catalog = self.catalog(data, TABLE3[kernel])
            self.programs[kernel] = {
                "catalog": catalog, "data": data, "source": KERNELS[kernel].source,
                "expected": None, "shape": output_shape(KERNELS[kernel], catalog)}
        self.rows = {f"{kernel}-{method}": (kernel, method)
                     for kernel in self.programs for method in self.METHODS}

    def reference(self, reference) -> None:
        for kernel, spec in self.programs.items():
            spec["expected"] = reference.kernel(kernel, spec["data"])

    def oneshot(self, kernel: str, method: str):
        spec = self.programs[kernel]
        session = Session(spec["catalog"], backend=BACKEND, cache=PlanCache(),
                          optimizer_options=self.options)
        return session.run(spec["source"], method=method, dense_shape=spec["shape"])

    def sweep(self) -> None:
        for row, (kernel, method) in self.rows.items():
            self.request(row, lambda: self.oneshot(kernel, method),
                         self.programs[kernel]["expected"])


# -- serve_mixed --------------------------------------------------------------------


#: template -> program text with a literal factor ``{c}``.
TEMPLATES = {
    "spmv": "sum(<(i,j), a> in A, <j2, x> in X) if (j == j2) then "
            "{{ i -> {c} * beta * a * x }}",
    "rowsum": "sum(<(i,j), a> in A) {{ i -> {c} * beta * a }}",
    "colsum": "sum(<(i,j), a> in A) {{ j -> {c} * beta * a }}",
    "dot": "sum(<i, x> in X, <i2, y> in Y) if (i == i2) then {c} * beta * x * y",
    "summm": "sum(<(i,j), a> in A, <(j2,k), b> in B) if (j == j2) then "
             "{c} * beta * a * b",
    "mmm": "sum(<(i,j), a> in A, <(j2,k), b> in B) if (j == j2) then "
           "{{ (i, k) -> {c} * beta * a * b }}",
    "batax": "sum(<(i,j), a1> in A, <(i2,k), a2> in A, <k2, x> in X) if (i == i2) then "
             "if (k == k2) then {{ j -> {c} * beta * a1 * a2 * x }}",
    "axpy": "sum(<i, x> in X) {{ i -> {c} * beta * x }}",
}
BETAS = (0.25, 0.5, 1.0, 2.0)
#: Never-seen texts use literals from here upwards; pool literals are small.
FRESH_LITERALS = 1000


class ServeMixed(Workload):
    """Client threads issue ``Server.execute(text, ...)`` over one catalog."""

    name = "serve_mixed"

    def setup(self) -> None:
        size = self.size
        n = size["n"]
        self.data = {"A": matrix_coo(self.rng, n, n, size["density"]),
                     "B": matrix_coo(self.rng, n, size["cols"], 2 * OTHER_DENSITY),
                     "X": self.rng.uniform(0.1, 1.0, n),
                     "Y": self.rng.uniform(0.1, 1.0, n), "beta": 0.5}
        self.catalog_ = self.catalog(self.data, {"A": CSRFormat, "B": CSRFormat})
        self.server = Server(self.catalog_, backend=BACKEND)
        self.shapes = {"spmv": (n,), "rowsum": (n,), "colsum": (n,), "dot": (),
                       "summm": (), "mmm": (n, size["cols"]), "batax": (n,),
                       "axpy": (n,)}
        # The pool: templates x literals, requested Zipf-wise.  Popularity
        # ranks are fixed (every template once per literal, in TEMPLATES
        # order), so the traffic mix — and with it what the other client is
        # likely running — does not change with the seed; the seed draws the
        # data and the request sequence.
        self.pool = [(template, literal) for literal in size["literals"]
                     for template in TEMPLATES]
        weights = 1.0 / np.arange(1, len(self.pool) + 1) ** size["zipf_s"]
        self.weights = weights / weights.sum()
        self.clients = size["clients"]
        self.pool_texts = [self.text(*entry) for entry in self.pool]
        self.expected: dict = {}
        self._phase = 0

    def text(self, template: str, literal: int) -> str:
        return TEMPLATES[template].format(c=literal)

    def reference(self, reference) -> None:
        self.expected = reference.served(self.data)

    def sweep(self) -> None:
        """The warm-up: every pool text once, so pool requests are plan hits."""
        for template, literal in self.pool:
            self.server.execute(self.text(template, literal),
                                dense_shape=self.shapes[template], beta=0.5)

    def client(self, index: int, clients: int, phase: int, barrier, deadline_box,
               results: list) -> None:
        rng = np.random.default_rng([self.seed, 100 + index, phase])
        picks = rng.choice(len(self.pool), size=4096, p=self.weights)
        betas = rng.choice(BETAS, size=4096)
        templates = list(TEMPLATES)
        miss_every = self.size["miss_every"]
        execute = self.server.execute
        samples: dict[str, list[float]] = defaultdict(list)
        attempted = failed = 0
        errors = []
        barrier.wait()
        deadline = deadline_box[0]
        i = 0
        while i == 0 or time.perf_counter() < deadline:   # at least one request
            i += 1
            beta = float(betas[i % 4096])
            if i % miss_every == 0:
                k = i // miss_every
                template = templates[k % len(templates)]
                literal = FRESH_LITERALS + (phase * 100_000 + k) * clients + index
                text, row = self.text(template, literal), "miss"
            else:
                pick = picks[i % 4096]
                template, literal = self.pool[pick]
                text, row = self.pool_texts[pick], "hit-" + template
            attempted += 1
            start = time.perf_counter()
            try:
                result = execute(text, dense_shape=self.shapes[template], beta=beta)
            except Exception as exc:   # raised or refused (ServerBusy, timeout)
                failed += 1
                errors.append(f"{row}: {type(exc).__name__}: {exc}")
                continue
            samples[row].append((time.perf_counter() - start) * 1e3)
            if not self._matches(result, literal * beta * self.expected[template]):
                failed += 1
                errors.append(f"{row}: result disagrees with the reference")
        results[index] = (samples, attempted, failed, errors)

    def run_clients(self, seconds: float) -> None:
        """``self.clients`` closed-loop client threads for ``seconds``.

        The clients run in slices of ``SLICE_S``; between slices, while no
        client runs, the main thread times the yardstick, and a slice's
        latencies are scaled by the mean of the measurements around it.
        """
        clients = self.clients
        deadline = time.perf_counter() + seconds
        before = self.yardstick.steady()
        while True:
            self._phase += 1
            results: list = [None] * clients
            barrier = threading.Barrier(clients + 1)
            deadline_box = [0.0]
            threads = [threading.Thread(
                target=self.client,
                args=(index, clients, self._phase, barrier, deadline_box, results))
                for index in range(clients)]
            for thread in threads:
                thread.start()
            deadline_box[0] = min(time.perf_counter() + SLICE_S, deadline)
            barrier.wait()
            for thread in threads:
                thread.join()
            after = self.yardstick.steady()
            factor = REFERENCE_S / (0.5 * (before + after))
            before = after
            for samples, attempted, failed, errors in results:
                for row, values in samples.items():
                    self.raw[row].extend(values)
                    self.samples[row].extend(ms * factor for ms in values)
                self.attempted += attempted
                self.failed += failed
                self.errors.extend(errors[:5])
            self.close_slice()
            if time.perf_counter() >= deadline:
                break

    def run(self, seconds: float) -> None:
        self.run_clients(seconds)


# -- update_views -------------------------------------------------------------------

ROWSUM = "sum(<(i,j), a> in A) { i -> a }"


class UpdateViews(Workload):
    """Point updates beside reads: two materialized views and a prepared reader."""

    name = "update_views"

    def setup(self) -> None:
        size = self.size
        n = self.n = size["n"]
        self.data = {"A": matrix_coo(self.rng, n, n, size["density"]),
                     "B": matrix_coo(self.rng, n, size["cols"], OTHER_DENSITY)}
        self.catalog_ = self.catalog(self.data, TABLE3["MMM"])
        self.session = Session(self.catalog_, backend=BACKEND, cache=PlanCache())
        self.create_view_ms = []
        for name, program, shape in (("mmm", KERNELS["MMM"].source, (n, size["cols"])),
                                     ("rowsum", ROWSUM, (n,))):
            start = time.perf_counter()
            self.session.create_view(name, program, dense_shape=shape)
            self.create_view_ms.append((time.perf_counter() - start) * 1e3)
        self.reader = self.session.prepare(KERNELS["SUMMM"].source, dense_shape=())
        self.replay = None
        self.applied: list = []     # every delta so far, for the replay
        self.updates = 0

    def reference(self, reference) -> None:
        # The warm-up sweep already applied one delta; replay it first.
        self.replay = reference.UpdateReplay(self.data["A"], self.data["B"])
        for coords, values in self.applied:
            self.replay.apply(coords, values)

    def delta(self):
        k = self.size["delta"]
        coords = np.column_stack([self.rng.integers(0, self.n, k),
                                  self.rng.integers(0, self.n, k)])
        return coords, self.rng.uniform(0.1, 1.0, k)

    def sweep(self) -> None:
        coords, values = self.delta()
        self.request("update", lambda: self.session.update("A", coords, values))
        self.applied.append((coords, values))
        expected = None
        if self._checking:
            self.replay.apply(coords, values)
            expected = self.replay.summm()
        self.request("read_after_update", self.reader.execute, expected)
        for _ in range(self.size["steady_reads"]):
            self.request("read_steady", self.reader.execute, expected)
        self.updates += 1
        if self._checking and self.updates % self.size["check_every"] == 0:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Both views and the reader against the replayed SciPy copy (untimed)."""
        for name, expected in (("mmm", self.replay.mmm()), ("rowsum", self.replay.rowsum())):
            self.attempted += 1
            self.check(f"view-{name}", self.session.view(name).value(), expected)
        self.attempted += 1
        self.check("reader", self.reader.execute(), self.replay.summm())

    def finish(self) -> None:
        self.checkpoint()


WORKLOADS = {cls.name: cls for cls in (WarmKernels, ColdOneshot, ServeMixed, UpdateViews)}
