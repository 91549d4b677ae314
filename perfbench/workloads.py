"""The four benchmark workloads.

Each workload drives the program only through its public API
(``Runner.run``, ``augmentation_study``, ``ContinuousBatcher``,
``ServeDaemon``/``ServeClient``).  A workload object has three stages:

``setup(seed)``
    dataset, setup fit (seeded :data:`SETUP_FIT_SEED`) and an untimed
    warm-up op (``derive_seed(seed, 1)``); the harness times it, and
    repeats it keeping the last state, as ``setup_s``;
``op(index, seed)``
    one timed op, seeded ``derive_seed(workload seed, 2, index)``; it
    keeps what it produced for the checks;
``check()``
    verifies every kept output with :mod:`checks` after timing.

Importing this module imports numpy: the harness fixes the BLAS/OpenMP
thread pools before it does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from checks import (CheckError, check_augmentation, check_completed,
                    check_fairgen_graph, check_recurrent_graphs,
                    check_served_walks)
from repro.data import load_dataset
from repro.embedding import Node2VecConfig
from repro.eval import augmentation as augmentation_module
from repro.eval import augmentation_study
from repro.experiments import ExperimentSpec, Runner
from repro.obs.metrics import MetricsRegistry
from repro.serve import ContinuousBatcher
from repro.serve.daemon import ServeDaemon
from repro.serve.client import ServeClient

__all__ = ["WORKLOADS", "derive_seed", "serving_figures"]


#: spec seed of the model fitted in set-up (augment-blog, serve-blog): the
#: same model in every run, so runs differ only in their ops' seeds
SETUP_FIT_SEED = 0


def derive_seed(seed: int, *path: int) -> int:
    """A fixed 32-bit seed for one op (or setup step) of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _fresh_run(model: str, dataset: str, profile: str, seed: int,
               need_model: bool = False):
    """One fit + generate through a fresh, cache-less Runner."""
    runner = Runner(cache_dir=None, registry=MetricsRegistry())
    return runner.run(ExperimentSpec(model, dataset, profile, seed=seed),
                      need_model=need_model)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Workload:
    name: str
    #: operations one op attempts
    units = 1
    #: the traced run's span recorder, set by the harness
    recorder = None

    def close(self) -> None:
        """Release what set-up started."""


class FairGenBlog(Workload):
    """Table IV's FairGen row: fit + generate on BLOG, ``bench`` profile."""

    name = "fairgen-blog"

    def setup(self, seed: int) -> None:
        self.data = load_dataset("BLOG")
        self.graphs = []
        _fresh_run("fairgen", "BLOG", "smoke", derive_seed(seed, 1))

    def op(self, index: int, seed: int) -> None:
        result = _fresh_run("fairgen", "BLOG", "bench", seed)
        self.graphs.append(result.generated.adjacency)

    def check(self) -> None:
        for adj in self.graphs:
            check_fairgen_graph(adj, self.data.graph.adjacency,
                                self.data.protected_mask)



class RecurrentEmail(Workload):
    """GraphRNN then NetGAN fit + generate on EMAIL, ``bench`` profile."""

    name = "recurrent-email"
    models = ("graphrnn", "netgan")

    def setup(self, seed: int) -> None:
        self.data = load_dataset("EMAIL")
        self.graphs = []
        for model in self.models:
            _fresh_run(model, "EMAIL", "smoke", derive_seed(seed, 1))

    def op(self, index: int, seed: int) -> None:
        self.graphs.append([_fresh_run(model, "EMAIL", "bench", seed)
                            .generated.adjacency for model in self.models])

    def check(self) -> None:
        for graphrnn_adj, netgan_adj in self.graphs:
            check_recurrent_graphs(graphrnn_adj, netgan_adj,
                                   self.data.graph.adjacency)



#: Figure 6's embedding settings and folds
FIG6_EMBED = Node2VecConfig(dim=32, walks_per_node=6, walk_length=10,
                            epochs=2)
FIG6_FOLDS = 10
FIG6_FRACTION = 0.05
#: the warm-up study runs the same code on a smaller embedding budget
WARMUP_EMBED = Node2VecConfig(dim=8, walks_per_node=1, walk_length=10,
                              epochs=1)


class AugmentBlog(Workload):
    """Figure 6's augmentation study on BLOG against a setup-fitted FairGen."""

    name = "augment-blog"

    def setup(self, seed: int) -> None:
        self.data = load_dataset("BLOG")
        self.model = _fresh_run("fairgen", "BLOG", "smoke",
                                SETUP_FIT_SEED,
                                need_model=True).model
        self.studies = []
        self._inserted = []
        # Keep the proposals and the augmented graph the study builds:
        # insert_edges is the call where both meet.
        original = augmentation_module.insert_edges

        def keep_inserted(graph, edges):
            augmented = original(graph, edges)
            self._inserted.append((np.array(edges), augmented.adjacency))
            return augmented

        self._restore = original
        augmentation_module.insert_edges = keep_inserted
        self._study(derive_seed(seed, 1), WARMUP_EMBED, folds=2)
        self.studies.clear()
        self._inserted.clear()

    def _study(self, seed: int, embed: Node2VecConfig, folds: int) -> None:
        data = self.data
        result = augmentation_study(
            data.graph, data.labels, data.num_classes, self.model,
            np.random.default_rng(seed), fraction=FIG6_FRACTION,
            embed_config=embed, folds=folds)
        self.studies.append(result)

    def op(self, index: int, seed: int) -> None:
        self._study(seed, FIG6_EMBED, FIG6_FOLDS)

    def check(self) -> None:
        if len(self._inserted) != len(self.studies):
            raise CheckError(f"{len(self.studies)} studies inserted "
                             f"{len(self._inserted)} proposal sets")
        for study, (proposals, augmented) in zip(self.studies,
                                                 self._inserted):
            check_augmentation(self.data.graph.adjacency, proposals,
                               augmented, study.baseline_accuracy,
                               self.data.num_classes, FIG6_FRACTION)

    def close(self) -> None:
        augmentation_module.insert_edges = self._restore


#: phase (a) follows ``benchmarks/bench_serving.py``: 16 concurrent
#: clients, each asking for 1 or 2 walks of one of the model's five
#: longest lengths (44-48 of 48 there, 4-8 of 8 here).  Each client sends
#: its next request at the tick after its last one completed.
BATCH_CLIENTS = 16
BATCH_PER_CLIENT = 16
BATCH_SIZES = (1, 2)
BATCH_LENGTHS = 5
#: phase (b) sends what ``repro generate --server`` sends by default:
#: 64 walks (``--walks``) of the model's own walk length (no ``length``)
HTTP_REQUESTS = 100
HTTP_WALKS = 64
MAX_WALKS = 256


class ServeBlog(Workload):
    """A smoke-fitted FairGen generator served two ways per round:
    (a) closed-loop clients on engine ticks into ``ContinuousBatcher``,
    driven by the submitting thread, (b) one sequential HTTP connection
    to an in-process ``ServeDaemon``."""

    name = "serve-blog"
    key = "fairgen-blog-smoke"
    units = BATCH_CLIENTS * BATCH_PER_CLIENT + HTTP_REQUESTS

    def setup(self, seed: int) -> None:
        self.data = load_dataset("BLOG")
        fairgen = _fresh_run("fairgen", "BLOG", "smoke",
                             SETUP_FIT_SEED,
                             need_model=True).model
        self.generator = fairgen.generator
        self.max_length = self.generator.max_length
        self.daemon = ServeDaemon(None, max_walks=MAX_WALKS,
                                  registry=MetricsRegistry())
        self.daemon.house.adopt(self.key, self.generator)
        self.daemon.start()
        self.client = ServeClient(self.daemon.url, timeout=60.0)
        self.rounds: list[dict] = []
        warm = np.random.default_rng(derive_seed(seed, 1))
        self._batch_phase(warm, 2, _new_round())
        self._http_phase(warm, 5, _new_round())

    def _batch_request(self, rng):
        n = int(rng.choice(BATCH_SIZES))
        length = int(rng.integers(self.max_length - BATCH_LENGTHS + 1,
                                  self.max_length + 1))
        return n, length, int(rng.integers(2**31))

    def _batch_phase(self, rng, per_client: int, record: dict) -> None:
        """Phase (a): closed-loop clients on engine ticks, stepped
        in-thread, so the seed alone decides which requests share a
        batch."""
        queues = [[self._batch_request(rng) for _ in range(per_client)]
                  for _ in range(BATCH_CLIENTS)]
        engine = ContinuousBatcher(self.generator, max_walks=MAX_WALKS,
                                   registry=MetricsRegistry())
        ready = list(range(BATCH_CLIENTS))  # clients that submit this tick
        outstanding = []  # (ticket, client, submit tick, request)
        start = time.perf_counter()
        tick = 0
        while ready or outstanding:
            for client in ready:
                request = queues[client].pop(0)
                n, length, seed = request
                ticket = engine.submit(n, length, np.random.default_rng(seed))
                outstanding.append((ticket, client, tick, request))
            ready = []
            engine.step()
            tick += 1
            waiting = []
            for entry in outstanding:
                ticket, client, submit_tick, (n, length, seed) = entry
                if not ticket.done:
                    waiting.append(entry)
                    continue
                record["batch_latency_s"].append(ticket.finished_at
                                                 - ticket.submitted_at)
                record["batch_latency_ticks"].append(tick - submit_tick)
                record["batch_walks"] += n
                record["served"].append(("batcher", n, length, seed,
                                         ticket.result()))
                if queues[client]:
                    ready.append(client)
            outstanding = waiting
        record["batch_seconds"] += time.perf_counter() - start
        record["engine_counts"].append((engine.stats.submitted,
                                        engine.stats.completed))

    def _http_phase(self, rng, count: int, record: dict) -> None:
        """Phase (b): one sequential connection, one request at a time."""
        for _ in range(count):
            seed = int(rng.integers(2**31))
            start = time.perf_counter()
            walks = self.client.generate(self.key, HTTP_WALKS, seed=seed)
            record["req_latency_s"].append(time.perf_counter() - start)
            record["served"].append(("http", HTTP_WALKS, self.max_length,
                                     seed, walks))

    def _set_phase(self, phase) -> None:
        if self.recorder is not None:
            self.recorder.phase = phase

    def op(self, index: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        record = _new_round()
        record["traced"] = (self.recorder is not None
                            and self.recorder.installed)
        self.rounds.append(record)
        self._set_phase("a")
        self._batch_phase(rng, BATCH_PER_CLIENT, record)
        self._set_phase("b")
        self._http_phase(rng, HTTP_REQUESTS, record)
        self._set_phase(None)

    def check(self) -> None:
        for record in self.rounds:
            for submitted, completed in record["engine_counts"]:
                check_completed(submitted, completed, "batcher")
        stats = self.daemon.house.get(self.key).engine.stats
        check_completed(stats.submitted, stats.completed, "daemon engine")
        for record in self.rounds:
            for i, (what, n, length, seed, walks) in enumerate(
                    record["served"]):
                reference = self.generator.sample(
                    n, length, np.random.default_rng(seed))
                check_served_walks(walks, reference,
                                   f"{what} request {i} ({n}x{length})")

    def close(self) -> None:
        self.daemon.shutdown()


def _new_round() -> dict:
    return {"batch_seconds": 0.0, "batch_walks": 0, "batch_latency_s": [],
            "batch_latency_ticks": [], "req_latency_s": [],
            "engine_counts": [], "served": []}


def serving_figures(rounds) -> dict[str, float]:
    """End-user serving figures pooled over ``rounds``."""
    batch = [x for r in rounds for x in r["batch_latency_s"]]
    req = [x for r in rounds for x in r["req_latency_s"]]
    return {
        "walks_per_s": (sum(r["batch_walks"] for r in rounds)
                        / sum(r["batch_seconds"] for r in rounds)),
        "batch_p50_s": statistics.median(batch),
        "batch_p90_s": _percentile(batch, 90),
        "req_p50_s": statistics.median(req),
        "req_p90_s": _percentile(req, 90),
        "batch_samples": len(batch),
        "req_samples": len(req),
    }


WORKLOADS = {cls.name: cls for cls in
             (FairGenBlog, RecurrentEmail, AugmentBlog, ServeBlog)}
