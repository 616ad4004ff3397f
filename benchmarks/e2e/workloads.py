"""The six workloads: what each builds, which ops it runs, its oracle.

Every workload reaches the program only through public constructors and
functions.  With a tracer, the same objects are handed over wrapped in
the proxies of :mod:`tracing`; without one, nothing is wrapped.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.bench.harness import methods_for
from repro.core.executor import execute_plan
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import JoinContext, SemiJoin, TupleSubstitution
from repro.core.optimizer import PlanEstimator, choose_join_method, optimize_multijoin
from repro.core.query import ResultShape, TextJoinPredicate, TextJoinQuery, TextSelection
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.remote.router import build_sharded_transport
from repro.serving import QueryService, TenantSpec
from repro.textsys.diskindex import DiskIndexBuilder, DiskInvertedIndex
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.workload import build_default_scenario, expanded_vocabulary, iter_synthetic_documents
from repro.workload.scenarios import DEFAULT_CONSTANTS

from tracing import TimedClient, TimedMethod, TimedSource, Tracer, monotonic_to_ns

if TYPE_CHECKING:
    from harness import RunRecorder

NPROC = os.cpu_count() or 1
TABLE2_QUERIES = ("q1", "q2", "q3", "q4")

#: (result keys, billed charged seconds, charged seconds as if alone)
Outcome = Tuple[frozenset, float, float]


class Workload:
    """One system under test plus its closed-loop op cycle."""

    name = "?"
    why = "?"
    #: Charges compared exactly unless the gateway cache is on, where
    #: ``total + seconds_saved`` reconstructs the alone charge only up to
    #: floating-point summation order.
    charge_tolerance = 0.0

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(seed)
        #: Set-up phases worth their own number, in seconds.
        self.setup_detail: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_cycle(self, recorder: RunRecorder) -> None:
        raise NotImplementedError

    def oracle(self, key: str) -> Outcome:
        """The op run serially, in process, against the reference backend."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative counts the program keeps, by per-layer metric stem."""
        return {}

    def trace_extras(self) -> Dict[str, List[float]]:
        """Per-op samples only this workload can take (nanoseconds)."""
        return {}

    def _timed_method(self, method: Any) -> Any:
        return TimedMethod(method, self.tracer) if self.tracer else method


def _server_counters(counters: Any) -> Dict[str, float]:
    return {
        "textsys.server.searches": counters.searches,
        "textsys.server.postings": counters.postings_processed,
        "textsys.server.long_docs": counters.long_documents,
    }


# ----------------------------------------------------------------------
# sequential workloads: one thread, one op after another
# ----------------------------------------------------------------------
class SequentialWorkload(Workload):
    """A cycle is a seeded shuffle of ``self.ops`` run back to back."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: key -> callable running the op against the system under test
        self.ops: Dict[str, Callable[[], Outcome]] = {}
        #: the cycle: op keys with their multiplicity
        self.cycle: List[str] = []

    def run_cycle(self, recorder: RunRecorder) -> None:
        order = list(self.cycle)
        self.rng.shuffle(order)
        tracer = self.tracer
        clock = time.perf_counter_ns
        for key in order:
            run = self.ops[key]
            started = clock()
            root = tracer.open_op(f"op:{key}") if tracer else None
            try:
                outcome = run()
            except Exception as error:  # noqa: BLE001 — a failed op is a result
                recorder.error(key, error)
                continue
            finally:
                if root is not None:
                    tracer.close(root)
            recorder.ok(key, clock() - started, outcome)


class Table2Workload(SequentialWorkload):
    """The Table-2 op set against ``self.source`` (set by subclasses)."""

    def _build_scenario(self) -> None:
        started = time.perf_counter()
        self.scenario = build_default_scenario(seed=self.seed)
        self.setup_detail["workload.scenario_build_s"] = time.perf_counter() - started
        self.queries = {qid: self.scenario.query(qid) for qid in TABLE2_QUERIES}
        self.forced = {
            f"{qid}/{method.name}": (qid, method)
            for qid in TABLE2_QUERIES
            for method in methods_for(self.queries[qid], self.scenario)
        }

    def _context(self, source: Any) -> JoinContext:
        return JoinContext(
            self.scenario.catalog,
            TextClient(source, constants=self.scenario.constants),
        )

    def _run_forced(self, key: str, source: Any) -> Outcome:
        qid, method = self.forced[key]
        execution = self._timed_method(method).execute(
            self.queries[qid], self._context(source)
        )
        total = execution.cost.total
        return execution.result_keys(), total, total

    def _add_forced_ops(self, copies: int) -> None:
        for key in self.forced:
            self.ops[key] = lambda key=key: self._run_forced(key, self.source)
            self.cycle.extend([key] * copies)

    def oracle(self, key: str) -> Outcome:
        return _untraced(self, lambda: self._run_forced(key, self.scenario.server))


def _untraced(workload: Workload, run: Callable[[], Outcome]) -> Outcome:
    tracer, workload.tracer = workload.tracer, None
    try:
        return run()
    finally:
        workload.tracer = tracer


class LibTable2(Table2Workload):
    name = "lib_table2"
    why = (
        "the paper's own evaluation in process: optimizer, join methods, RTP "
        "matching and the gateway client do the work; remote, serving and "
        "diskindex do none"
    )

    def setup(self) -> None:
        self._build_scenario()
        server = self.scenario.server
        self.source = (
            TimedSource(server, self.tracer, "textsys.server") if self.tracer else server
        )
        self.q5 = self.scenario.q5()
        self._add_forced_ops(copies=4)
        for qid in TABLE2_QUERIES:
            key = f"auto/{qid}"
            self.ops[key] = lambda qid=qid: self._run_auto(qid, self.source)
            self.cycle.extend([key] * 4)
        self.ops["q5"] = lambda: self._run_q5(self.source)
        self.cycle.extend(["q5"] * 2)

    def _span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _run_auto(self, qid: str, source: Any) -> Outcome:
        query = self.queries[qid]
        context = self._context(source)
        with self._span("core.optimizer:plan"):
            choice = choose_join_method(query, build_cost_inputs(query, context))
        execution = self._timed_method(choice.method).execute(query, context)
        total = execution.cost.total
        return execution.result_keys(), total, total

    def _run_q5(self, source: Any) -> Outcome:
        with self._span("core.optimizer:multijoin_plan"):
            estimator = PlanEstimator(self.q5, self._context(source))
            optimized = optimize_multijoin(self.q5, estimator, space="prl")
        context = self._context(source)
        with self._span("core.executor:execute"):
            if self.tracer:
                context.client = TimedClient(context.client, self.tracer)
            execution = execute_plan(optimized.plan, self.q5, context)
        total = execution.cost.total
        return execution.result_keys(), total, total

    def oracle(self, key: str) -> Outcome:
        server = self.scenario.server
        if key == "q5":
            return _untraced(self, lambda: self._run_q5(server))
        if key.startswith("auto/"):
            return _untraced(self, lambda: self._run_auto(key[5:], server))
        return super().oracle(key)

    def counters(self) -> Dict[str, float]:
        return _server_counters(self.scenario.server.counters)


class RemoteSharded(Table2Workload):
    name = "remote_sharded"
    why = (
        "the same Table-2 ops over nproc shards on a lan link with sleeps "
        "scaled to zero: codec, transport, endpoint and router CPU and thread "
        "hand-offs are the difference to lib_table2"
    )

    def setup(self) -> None:
        self._build_scenario()
        self.transport = build_sharded_transport(
            self.scenario.server,
            shards=NPROC,
            profile="lan",
            seed=self.seed,
            time_scale=0.0,
            pool_size=1,
        )
        self.source = self.transport
        if self.tracer:
            self.source = self._wrap(self.transport, self.tracer)
        self._add_forced_ops(copies=1)

    @staticmethod
    def _wrap(transport: Any, tracer: Tracer) -> Any:
        """Proxies at every boundary of the link, outermost last."""
        for backend in transport.backends:
            primary = backend.primary
            endpoint = primary.channel.handler.__self__
            endpoint.server = TimedSource(endpoint.server, tracer, "textsys.server")
            primary.channel.handler = tracer.timed(
                endpoint.handle, "remote.endpoint:handle"
            )
            backend.primary = TimedSource(primary, tracer, "remote.transport")
        return TimedRouter(transport, tracer)

    def teardown(self) -> None:
        self.transport.close()

    def counters(self) -> Dict[str, float]:
        stats = self.transport.stats
        counts = _server_counters(self.transport.counters)
        counts.update(
            {
                "remote.transport.frames": stats.frames_sent,
                "remote.transport.retries": stats.retries,
                "remote.router.failovers": self.transport.failovers,
            }
        )
        return counts


class TimedRouter(TimedSource):
    """The router proxy: also times the two published values every SJ
    op reads, because the router scatters a call to every shard for
    each read."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        super().__init__(inner, tracer, "remote.router", handoff=True)
        self._read = tracer.timed(
            lambda name: getattr(inner, name), "remote.router:meta", handoff=True
        )

    @property
    def term_limit(self) -> int:
        return self._read("term_limit")

    @property
    def document_count(self) -> int:
        return self._read("document_count")


# ----------------------------------------------------------------------
# serving workloads: lockstep rounds through QueryService
# ----------------------------------------------------------------------
class ServeWorkload(Table2Workload):
    """Submit one ticket per tenant, wait for all, next round."""

    def service_options(self) -> Dict[str, Any]:
        """Extra ``QueryService`` arguments (none: no cache, no sharing)."""
        return {}

    def setup(self) -> None:
        self._build_scenario()
        server = self.scenario.server
        self.tenants = [f"tenant{index}" for index in range(2 * NPROC)]
        options = self.service_options()
        self.cache: Optional[GatewayCache] = options.get("cache")
        self.service = QueryService(
            self.scenario,
            [TenantSpec(name) for name in self.tenants],
            workers=NPROC,
            capacity=64,
            backend=(
                TimedSource(server, self.tracer, "textsys.server")
                if self.tracer
                else None
            ),
            **options,
        ).start()
        #: One cycle: per round, the op key each tenant submits.
        self.rounds: List[List[str]] = [
            [key] * len(self.tenants) for key in self.forced
        ]
        self.queue_waits_ns: List[float] = []

    def teardown(self) -> None:
        self.service.stop()

    def run_cycle(self, recorder: RunRecorder) -> None:
        order = list(self.rounds)
        self.rng.shuffle(order)
        service = self.service
        tracer = self.tracer
        for round_keys in order:
            tickets = []
            for tenant, key in zip(self.tenants, round_keys):
                qid, method = self.forced[key]
                root = submit = None
                submitted = time.monotonic()
                if tracer:
                    root = tracer.open_op(f"op:{key}", push=False)
                    root.start = monotonic_to_ns(submitted)
                    method = TimedMethod(method, tracer, root)
                    submit = tracer.open("serving.service:submit", root)
                try:
                    ticket = service.submit(tenant, self.queries[qid], method)
                except Exception as error:  # noqa: BLE001 — refused counts as failed
                    recorder.error(key, error)
                    continue
                finally:
                    if submit is not None:
                        tracer.close(submit)
                tickets.append((key, submitted, ticket, root, submit, method))
            for key, submitted, ticket, root, submit, method in tickets:
                try:
                    execution = ticket.result(timeout=120)
                except Exception as error:  # noqa: BLE001
                    recorder.error(key, error)
                    continue
                finished = ticket.submitted_at + ticket.latency
                if root is not None:
                    root.end = monotonic_to_ns(finished)
                    self.queue_waits_ns.append(method.started - submit.end)
                cost = execution.cost
                recorder.ok(
                    key,
                    int((finished - submitted) * 1e9),
                    (execution.result_keys(), cost.total, cost.total + cost.seconds_saved),
                    exec_wall_s=execution.wall_seconds,
                )
        # The service's default tracer keeps every foreign call for the
        # life of the process; dropping them per cycle keeps peak RSS a
        # property of the code, not of how many cycles fitted in the run.
        service.tracer.clear()

    def counters(self) -> Dict[str, float]:
        counts = _server_counters(self.scenario.server.counters)
        counts["serving.admission.rejected"] = self.service.metrics.rejected
        counts["serving.admission.submitted"] = self.service.metrics.submitted
        if self.service.sharing is not None:
            sharing = self.service.sharing.stats.snapshot()
            counts["serving.sharing.windows"] = sharing["windows"]
            counts["serving.sharing.shared_searches"] = sharing["shared_searches"]
        if self.cache is not None:
            stats = self.cache.stats()
            counts["gateway.cache.hits"] = self.cache.hits
            counts["gateway.cache.lookups"] = self.cache.hits + self.cache.misses
            counts["gateway.cache.coalesced"] = stats["coalesced"]
            counts["gateway.cache.evictions"] = (
                self.cache.search.stats.evictions + self.cache.retrieve.stats.evictions
            )
        return counts

    def trace_extras(self) -> Dict[str, List[float]]:
        return {"serving.service.queue_wait": self.queue_waits_ns}


class ServePlain(ServeWorkload):
    name = "serve_plain"
    why = (
        "QueryService with something queued (2*nproc tenants on nproc "
        "workers), no cache, no sharing: isolates service, admission and "
        "scheduler overhead against lib_table2"
    )


class ServeCoalesced(ServeWorkload):
    name = "serve_coalesced"
    why = (
        "same service with share_window=2ms and a 64-entry gateway cache; in 4 "
        "of 5 rounds every tenant submits the identical op, so the three "
        "coalescing mechanisms do the work that serve_plain bypasses"
    )
    charge_tolerance = 1e-9

    def service_options(self) -> Dict[str, Any]:
        # The cache is smaller than one cycle's distinct searches: hits
        # come from in-flight coalescing and repeats inside a query, not
        # from replaying earlier rounds.
        return {
            "share_window": 0.002,
            "cache": GatewayCache(search_capacity=64, retrieve_capacity=64),
        }

    #: Rounds per cycle in which nothing is shared; with the 15 identical
    #: rounds that is 4 shared rounds in 5 (15 of 19).
    DISTINCT_ROUNDS = 4

    def setup(self) -> None:
        super().setup()
        # In a distinct round tenant i runs a different query of Q1-Q4
        # than its neighbours, rotating through that query's methods.
        for turn in range(self.DISTINCT_ROUNDS):
            keys = []
            for index in range(len(self.tenants)):
                qid = TABLE2_QUERIES[(index + turn) % len(TABLE2_QUERIES)]
                options = [key for key in self.forced if key.startswith(qid + "/")]
                keys.append(options[turn % len(options)])
            self.rounds.append(keys)


# ----------------------------------------------------------------------
# disk workloads: the block-paged index behind the Boolean server
# ----------------------------------------------------------------------
class DiskWorkload(SequentialWorkload):
    """Docids-shape joins of a small ``topic`` relation with the corpus.

    ``topic.word in mercury.abstract and '<w>' in mercury.title``, by TS
    (one search per topic word) and SJ (one OR-batched search).  Topic
    words are frequent abstract words (long lists); the title word rotates
    through ``TITLE_WORDS`` distinct moderately frequent words, chosen so
    that every seed does similar work.

    One more title word per cycle is a broad one (a tenth of all titles
    carry it).  Its two ops are 2.4 % of a cycle, so ``latency_p99_ms``
    falls inside a class of ops that is slow for a reason, not on
    whichever selective op the machine happened to interrupt.
    """

    DOCUMENTS = 20_000
    VOCABULARY = 1500
    TOPIC_WORDS = 6
    TITLE_WORDS = 40
    BROAD_TITLE_RANK = 4
    cache_budget: Optional[int] = None

    def setup(self) -> None:
        started = time.perf_counter()
        self.store = DocumentStore(["title", "abstract"], short_fields=["title"])
        for document in iter_synthetic_documents(
            self.DOCUMENTS, seed=self.seed, vocabulary_size=self.VOCABULARY
        ):
            self.store.add(document)
        built = time.perf_counter()
        self.setup_detail["workload.scenario_build_s"] = built - started

        self.workdir.mkdir(parents=True, exist_ok=True)
        builder = DiskIndexBuilder(
            ["title", "abstract"],
            self.workdir / "corpus.ridx",
            tmp_dir=self.workdir / "segments",
        )
        builder.add_documents(self.store)
        path = builder.finish(version=self.store.version)
        self.setup_detail["textsys.diskindex.build_s"] = time.perf_counter() - built
        self.setup_detail["textsys.diskindex.documents"] = self.DOCUMENTS

        self.index = DiskInvertedIndex(path, cache_budget=self.cache_budget, io_mode="read")
        self.setup_detail["textsys.diskindex.bytes_per_posting"] = self.index.stats()[
            "bytes_per_posting"
        ]
        server = BooleanTextServer(self.store, index=self.index)
        self.source = (
            TimedSource(server, self.tracer, "textsys.server") if self.tracer else server
        )
        self.server = server
        self.reference: Optional[BooleanTextServer] = None

        vocabulary = expanded_vocabulary(self.VOCABULARY)
        pick = random.Random(self.seed)
        # Vocabulary rank is frequency rank (Zipf).  The long lists set
        # the cost of an op, so their ranks are fixed and the seed only
        # orders the rows; two neighbouring ranks further down have lists
        # of nearly the same length, so there the seed picks the word.
        topic = [vocabulary[12 + 8 * index] for index in range(self.TOPIC_WORDS)]
        pick.shuffle(topic)
        titles = [
            vocabulary[40 + 4 * index + pick.randrange(2)]
            for index in range(self.TITLE_WORDS)
        ]
        titles.append(vocabulary[self.BROAD_TITLE_RANK])
        self.catalog = Catalog()
        table = self.catalog.create_table("topic", Schema.of(("word", DataType.VARCHAR)))
        for word in topic:
            table.insert([word])
        self.methods = {"TS": TupleSubstitution(), "SJ": SemiJoin()}
        self.queries = {
            word: TextJoinQuery(
                relation="topic",
                join_predicates=(TextJoinPredicate("topic.word", "abstract"),),
                text_selections=(TextSelection(word, "title"),),
                shape=ResultShape.DOCIDS,
            )
            for word in titles
        }
        for word in titles:
            for method in self.methods:
                key = f"{method}/{word}"
                self.ops[key] = lambda key=key: self._run(key, self.source)
                self.cycle.append(key)

    def _run(self, key: str, source: Any) -> Outcome:
        method, _, word = key.partition("/")
        context = JoinContext(self.catalog, TextClient(source, constants=DEFAULT_CONSTANTS))
        execution = self._timed_method(self.methods[method]).execute(
            self.queries[word], context
        )
        total = execution.cost.total
        return execution.result_keys(), total, total

    def oracle(self, key: str) -> Outcome:
        if self.reference is None:
            self.reference = BooleanTextServer(self.store)
        return _untraced(self, lambda: self._run(key, self.reference))

    def teardown(self) -> None:
        self.index.close()

    def counters(self) -> Dict[str, float]:
        counts = _server_counters(self.server.counters)
        io = self.index.io_stats()
        cache = io["cache"]
        counts.update(
            {
                "textsys.diskindex.block_fetches": io["block_fetches"],
                "textsys.diskindex.bytes_read": io["bytes_read"],
                "textsys.diskindex.blocks_decoded": io["blocks_decoded"],
                "textsys.diskindex.cache_hits": cache["hits"],
                "textsys.diskindex.cache_lookups": cache["hits"] + cache["misses"],
                "textsys.diskindex.evictions": cache["evictions"],
            }
        )
        return counts


class DiskCold(DiskWorkload):
    name = "disk_cold"
    why = (
        "block cache a tenth of the blocks one cycle touches: block fetch, "
        "group-varint decode and long-list merges dominate; textmatch and "
        "remote do nothing"
    )
    cache_budget = 16 * 1024


class DiskWarm(DiskWorkload):
    name = "disk_warm"
    why = (
        "the same file, ops and server with the working set in cache: a decode "
        "speed-up must move disk_cold and not this"
    )
    cache_budget = 64 * 1024 * 1024


WORKLOADS = {
    workload.name: workload
    for workload in (
        LibTable2,
        RemoteSharded,
        ServePlain,
        ServeCoalesced,
        DiskCold,
        DiskWarm,
    )
}
