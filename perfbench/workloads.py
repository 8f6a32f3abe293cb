"""The three benchmark workloads: set-up, timed requests, output checks.

Each workload object is built from ``seed`` (its inputs are a pure
function of it), then:

* :meth:`build` constructs and loads a fresh engine stack (timed as
  set-up; ``run.py`` closes the previous stack and builds again
  ``run.BUILDS`` times per worker process, and reports the median);
* :meth:`run` executes the fixed amount of work with one closed-loop
  client and returns a :class:`Samples` of per-request latencies;
* :meth:`verify` checks the program's outputs after the run.

Layer counters (device, buffer pool, MV-PBT, WAL, scheduler, coordinator)
are read through :meth:`Workload.counters` as deltas over the timed region.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

from repro.config import PAGE_SIZE, EngineConfig
from repro.engine.database import Database
from repro.serve.config import ServeConfig
from repro.shard.router import ShardConfig, ShardedDatabase
from repro.workloads import (WORKLOAD_B, CHBenchmark, DatabaseBackend,
                             TPCCConfig, TPCCRunner, WorkloadTxn,
                             served_backend, shard_served_backend,
                             tpcc_consistency_errors)
from repro.workloads.distributions import make_distribution

#: the TPC-C transaction timed as a query on tpcc: a range scan of recent
#: order lines plus stock lookups.  One kind only, so the query percentiles
#: do not straddle the gap between two kinds' latencies.
TPCC_QUERY = "stock_level"


@dataclass
class Samples:
    """Per-request measurements of one timed region."""

    #: wall ns and sim seconds per OLTP op / transaction
    op_ns: list[int] = field(default_factory=list)
    op_sim: list[float] = field(default_factory=list)
    #: wall ns and sim seconds per query (read-only request)
    query_ns: list[int] = field(default_factory=list)
    query_sim: list[float] = field(default_factory=list)
    #: (ops, wall ns) per chunk, for the median chunk throughput
    chunks: list[tuple[int, int]] = field(default_factory=list)
    #: logical row bytes written (inserted / updated row images)
    row_bytes_written: int = 0
    #: requests attempted (ops, plus queries that are not ops)
    attempted: int = 0
    commits: int = 0
    failed: int = 0
    #: wall ns of the whole timed region
    wall_ns: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {message}", file=sys.stderr)


def row_bytes(row: Any) -> int:
    """Logical size of a row image: 8 bytes per number, UTF-8 per string."""
    return sum(len(v.encode()) if isinstance(v, str) else 8 for v in row)


def sim_clocks(backend: Any) -> list[Any]:
    """Every simulated clock of a backend's topology."""
    router = getattr(backend, "router", None)
    if router is not None:
        return [router.clock, *(db.clock for db in router.shards)]
    return [backend.db.clock]


def databases(backend: Any) -> list[Database]:
    router = getattr(backend, "router", None)
    return list(router.shards) if router is not None else [backend.db]


class Workload:
    """Shared counter plumbing; subclasses supply build/run/verify."""

    name = ""
    #: requests per --seconds on a 2-core reference host; the work of a run
    #: is fixed (seconds x this), so sim figures are a function of the seed
    nominal_rate = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.backend: Any = None

    def build(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, samples: Samples) -> None:
        raise NotImplementedError

    def verify(self, samples: Samples) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    # ---------------------------------------------------------- counters

    def devices(self) -> list[Any]:
        devs = [db.device for db in databases(self.backend)]
        router = getattr(self.backend, "router", None)
        if router is not None and router.coordinator_device is not None:
            devs.append(router.coordinator_device)
        return devs

    def counters(self) -> dict[str, Any]:
        """A snapshot of every engine counter the metrics are derived from."""
        dbs = databases(self.backend)
        trees = [ix.mvpbt for db in dbs for ix in db.catalog.indexes
                 if ix.is_mvpbt]
        out: dict[str, Any] = Counter()
        for dev in self.devices():
            s = dev.stats
            out["dev.rand_reads"] += s.rand_reads
            out["dev.seq_reads"] += s.seq_reads
            out["dev.rand_writes"] += s.rand_writes
            out["dev.seq_writes"] += s.seq_writes
            out["dev.bytes_read"] += s.bytes_read
            out["dev.bytes_written"] += s.bytes_written
            out["dev.busy"] += s.busy_time
            out["dev.allocated"] += dev.allocated_bytes
        for db in dbs:
            pool = db.pool.total_stats()
            out["pool.requests"] += pool.requests
            out["pool.hits"] += pool.hits
            out["pool.evictions"] += db.pool.evictions
            if db.durability is not None:
                out["wal.appends"] += db.durability.wal.appends
                out["wal.pages"] += db.durability.wal.pages_written
                out["manifest.writes"] += db.durability.manifest.flips
        for tree in trees:
            st = tree.stats
            for name in ("searches", "hits_returned", "records_checked",
                         "partitions_skipped_bloom", "evictions", "merges",
                         "pages_batch_decoded", "pages_skipped_zonemap"):
                out[f"tree.{name}"] += getattr(st, name)
            out["tree.gc_bytes"] += tree.gc_stats.bytes_reclaimed
            out["tree.persisted"] += tree.partition_count - 1
        out["tree.count"] = len(trees)
        for i, db in enumerate(dbs):
            out[f"shard{i}.writes"] = (db.device.stats.rand_writes
                                       + db.device.stats.seq_writes)
        out["clocks"] = [c.now for c in sim_clocks(self.backend)]
        server = getattr(self.backend, "server", None)
        if server is not None:
            sched = server.scheduler
            out["sched.ticks"] = sched.ticks
            scan = sched.kind_stats.get("scan")
            out["sched.scan_grants"] = scan.grants if scan else 0
            committer = getattr(server, "committer", None)
            if committer is not None:
                out["group.groups"] = committer.stats.groups
                out["group.commits"] = committer.stats.commits
        router = getattr(self.backend, "router", None)
        if router is not None:
            out["coord.decisions"] = len(router.coordinator.decisions)
            log = router.coordinator.log
            out["coord.appends"] = log.appends if log is not None else 0
        out["shards"] = len(dbs)
        return out

    def live_row_bytes(self) -> int:
        """Logical bytes of every committed row (fresh snapshot)."""
        db = databases(self.backend)[0]
        return sum(row_bytes(row)
                   for info in db.catalog.tables
                   for row in self.backend.dump_table(info.name))


def timed_op(clocks: list[Any], fn: Callable[[], Any]
             ) -> tuple[Any, int, float]:
    """Run one request; returns (result, wall ns, sim seconds).

    The sim latency is the largest advance of any clock during the call:
    on one node the clock advance, on a sharded topology the slowest
    component, so a serial client never overlaps its own requests.
    """
    before = [c.now for c in clocks]
    t0 = perf_counter_ns()
    result = fn()
    wall = perf_counter_ns() - t0
    sim = max(c.now - b for c, b in zip(clocks, before))
    return result, wall, sim


# ------------------------------------------------------------- ycsb-b-point


class YcsbPoint(Workload):
    """YCSB-B point lookups on a bare Database bigger than its pool."""

    name = "ycsb-b-point"
    nominal_rate = 9000.0
    records = 100_000
    table, index = "usertable", "ycsb_pk"
    #: engine settings that differ from EngineConfig's defaults
    config = dict(buffer_pool_pages=256,
                  partition_buffer_bytes=16 * PAGE_SIZE,
                  durability=True,
                  manifest_slot_pages=16)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.rows = [(f"user{i:010d}", rng.randbytes(50).hex())
                     for i in range(self.records)]
        #: the loaded values, and the client's writes since the build: the
        #: harness's copy of the data exists before the memory baseline
        self.loaded = dict(self.rows)
        self.model: dict[str, str] = {}

    def build(self) -> None:
        db = Database(EngineConfig(**self.config))
        backend = DatabaseBackend(db)
        backend.create_table(self.table, [("k", "str"), ("v", "str")])
        backend.create_index(self.index, self.table, ["k"], unique=True)
        backend.bulk_insert(self.table, self.rows)
        db.flush_all()
        self.backend = backend
        self.model = {}

    def plan(self, count: int) -> list[tuple[bool, str, str]]:
        """The op stream: (is_read, key, value to write)."""
        rng = random.Random(self.seed * 7919 + 1)
        dist = make_distribution("zipfian", self.records, rng)
        read_share = WORKLOAD_B.read_proportion
        keys = [row[0] for row in self.rows]
        ops = []
        for _ in range(count):
            key = keys[dist.next_index()]
            if rng.random() < read_share:
                ops.append((True, key, ""))
            else:
                ops.append((False, key, rng.randbytes(50).hex()))
        return ops

    def run(self, seconds: float, samples: Samples) -> None:
        ops = self.plan(int(seconds * self.nominal_rate))
        backend, clock = self.backend, self.backend.db.clock
        table, index = self.table, self.index
        model, loaded = self.model, self.loaded
        chunk = max(1, len(ops) // 20)
        start = perf_counter_ns()
        for lo in range(0, len(ops), chunk):
            c0 = perf_counter_ns()
            batch = ops[lo:lo + chunk]
            for is_read, key, value in batch:
                samples.attempted += 1
                s0 = clock.now
                t0 = perf_counter_ns()
                try:
                    txn = backend.begin()
                    if is_read:
                        got = txn.select(index, (key,))
                    else:
                        got = txn.select_hits(index, (key,))
                        if got:
                            txn.update(table, got[0], {"v": value})
                    txn.commit()
                except Exception as exc:        # counted, run continues
                    samples.fail(f"{'read' if is_read else 'update'} "
                                 f"{key}: {exc!r}")
                    continue
                wall = perf_counter_ns() - t0
                sim = clock.now - s0
                samples.commits += 1
                if is_read:
                    samples.query_ns.append(wall)
                    samples.query_sim.append(sim)
                    expected = model.get(key) or loaded[key]
                    if got != [(key, expected)]:
                        samples.fail(f"read {key} returned {got!r}, "
                                     f"expected {expected!r}")
                else:
                    if not got:
                        samples.fail(f"update {key}: key missing")
                    model[key] = value
                    samples.row_bytes_written += row_bytes((key, value))
                samples.op_ns.append(wall)
                samples.op_sim.append(sim)
            samples.chunks.append((len(batch), perf_counter_ns() - c0))
        samples.wall_ns = perf_counter_ns() - start

    def verify(self, samples: Samples) -> None:
        rows = self.backend.dump_table(self.table)
        expected = sorted({**self.loaded, **self.model}.items())
        if rows != expected:
            samples.fail("final table differs from the client's model "
                         f"({len(rows)} rows, {len(expected)} expected)")


# ------------------------------------------------------- TPC-C family


class _TpccBase(Workload):
    """Drives TPCCRunner one transaction at a time."""

    warehouses = 1
    remote_prob = 0.01
    runner: Any = None
    bench: Any = None

    def close(self) -> None:
        super().close()
        self.runner = self.bench = None     # they hold the backend

    def _runner_config(self) -> TPCCConfig:
        return TPCCConfig(warehouses=self.warehouses,
                          remote_order_line_prob=self.remote_prob,
                          seed=self.seed)

    def _one_txn(self, runner: TPCCRunner, clocks: list[Any],
                 samples: Samples, *, timed_queries: bool) -> None:
        samples.attempted += 1
        try:
            result, wall, sim = timed_op(clocks, lambda: runner.run(1))
        except Exception as exc:            # counted, run continues
            samples.fail(f"tpcc transaction raised {exc!r}")
            runner.op_log.clear()
            return
        note = runner.op_log[-1] if runner.op_log else ""
        runner.op_log.clear()
        if result.aborted and not note.endswith("rollback=1"):
            samples.fail(f"unexpected abort ({note or 'no op noted'})")
        samples.commits += result.committed
        samples.op_ns.append(wall)
        samples.op_sim.append(sim)
        if timed_queries and TPCC_QUERY in result.by_type:
            samples.query_ns.append(wall)
            samples.query_sim.append(sim)


class _RowRecorder:
    """Wraps a WorkloadTxn class's insert/update to total row bytes."""

    def __init__(self, txn_cls: type, schema_of: Callable[[str], Any],
                 samples: Samples) -> None:
        self._cls = txn_cls
        self._old = (txn_cls.__dict__["insert"], txn_cls.__dict__["update"])
        old_insert, old_update = self._old

        def insert(txn: Any, table: str, row: Any) -> None:
            old_insert(txn, table, row)
            samples.row_bytes_written += row_bytes(row)

        def update(txn: Any, table: str, hit: Any,
                   updates: dict[str, object]) -> None:
            old_update(txn, table, hit, updates)
            image = list(hit.row)
            schema = schema_of(table)
            for col, value in updates.items():
                image[schema.position(col)] = value
            samples.row_bytes_written += row_bytes(image)

        txn_cls.insert = insert
        txn_cls.update = update

    def undo(self) -> None:
        self._cls.insert, self._cls.update = self._old


class TpccShardServed(_TpccBase):
    """TPC-C through a ShardServer over a 4-shard hash router."""

    name = "tpcc-4shard-served"
    nominal_rate = 300.0
    warehouses = 16
    shards = 4
    #: ~1-(1-p)^10 of new-orders get a remote line -> ~15% of all
    #: transactions commit through 2PC
    remote_prob = 0.05
    #: a 16-page partition buffer (default 64) makes P_N evictions complete
    #: several cycles per run (~1 in 40 transactions) instead of a handful
    config = dict(durability=True, partition_buffer_bytes=16 * PAGE_SIZE)
    serve = dict(parallel_scatter_gather=False)
    #: a shard whose share of device writes falls below this fraction of
    #: the fair share 1/N is starved
    starved_fraction = 0.5

    def build(self) -> None:
        router = ShardedDatabase(EngineConfig(**self.config),
                                 ShardConfig(shards=self.shards,
                                             partitioning="hash"))
        self.backend = shard_served_backend(router,
                                            ServeConfig(**self.serve))
        self.runner = TPCCRunner(self.backend, self._runner_config(),
                                 record_ops=True)
        self.runner.load()
        self.txn_class = _txn_class(self.backend)

    def run(self, seconds: float, samples: Samples) -> None:
        runner, clocks = self.runner, sim_clocks(self.backend)
        count = int(seconds * self.nominal_rate)
        chunk = max(1, count // 20)
        recorder = _RowRecorder(self.txn_class, self._schema, samples)
        try:
            start = perf_counter_ns()
            for lo in range(0, count, chunk):
                c0 = perf_counter_ns()
                n = min(chunk, count - lo)
                for _ in range(n):
                    self._one_txn(runner, clocks, samples,
                                  timed_queries=True)
                samples.chunks.append((n, perf_counter_ns() - c0))
            samples.wall_ns = perf_counter_ns() - start
        finally:
            recorder.undo()

    def _schema(self, table: str) -> Any:
        return self.backend.router.shards[0].catalog.table(table).schema

    def verify(self, samples: Samples) -> None:
        for error in tpcc_consistency_errors(self.backend):
            samples.fail(error)

    def shard_write_shares(self, before: dict[str, Any],
                           after: dict[str, Any]) -> list[float]:
        writes = [after[f"shard{i}.writes"] - before[f"shard{i}.writes"]
                  for i in range(self.shards)]
        total = sum(writes) or 1
        return [w / total for w in writes]


def _txn_class(backend: Any) -> type:
    """The WorkloadTxn implementation a backend hands out."""
    txn = backend.begin()
    try:
        return type(txn)
    finally:
        txn.abort()


class ChHtapSingle(_TpccBase):
    """CH-benchmark rounds through the single-node Server."""

    name = "ch-htap-single"
    #: rounds per --seconds
    nominal_rate = 1.5
    warehouses = 4
    oltp_per_round = 100
    #: the manifest grows with the persisted partitions: after ~3,200
    #: transactions in one process (a 30 s traced run) its body outgrows
    #: the default 8-page slot ("manifest body (68317 bytes, 9 pages)
    #: exceeds slot capacity (8 pages); raise manifest_slot_pages")
    config = dict(durability=True, manifest_slot_pages=16)
    serve = dict(parallel_scatter_gather=False)

    def build(self) -> None:
        db = Database(EngineConfig(**self.config))
        self.backend = served_backend(db, ServeConfig(**self.serve))
        self.bench = CHBenchmark(self.backend, self._runner_config())
        # the same runner, noting each transaction (rollbacks are expected)
        self.bench.tpcc = TPCCRunner(self.backend, self._runner_config(),
                                     record_ops=True)
        self.bench.load()
        self.txn_class = _txn_class(self.backend)

    def run(self, seconds: float, samples: Samples) -> None:
        bench, runner = self.bench, self.bench.tpcc
        clocks = sim_clocks(self.backend)
        rounds = max(1, round(seconds * self.nominal_rate))
        recorder = _RowRecorder(self.txn_class, self._schema, samples)
        try:
            start = perf_counter_ns()
            for _ in range(rounds):
                olap = self.backend.begin()
                c0 = perf_counter_ns()
                for _ in range(self.oltp_per_round):
                    self._one_txn(runner, clocks, samples,
                                  timed_queries=False)
                samples.chunks.append((self.oltp_per_round,
                                       perf_counter_ns() - c0))
                for query in CHBenchmark.QUERIES:
                    samples.attempted += 1
                    try:
                        _rows, wall, sim = timed_op(
                            clocks,
                            lambda q=query: bench.run_query(olap, q))
                    except Exception as exc:    # counted, run continues
                        samples.fail(f"query {query} raised {exc!r}")
                        continue
                    samples.query_ns.append(wall)
                    samples.query_sim.append(sim)
                olap.commit()
                samples.commits += 1
            samples.wall_ns = perf_counter_ns() - start
        finally:
            recorder.undo()

    def _schema(self, table: str) -> Any:
        return self.backend.db.catalog.table(table).schema

    def verify(self, samples: Samples) -> None:
        for error in tpcc_consistency_errors(self.backend):
            samples.fail(error)
        txn = self.backend.begin()
        try:
            got = query_results(self.bench, txn)
        finally:
            txn.commit()
        expected = recompute_queries(self.backend, self.warehouses)
        for name, value in expected.items():
            if not same_result(got[name], value):
                samples.fail(f"query {name} under a fresh snapshot "
                             f"returned {got[name]!r:.200}, recomputed "
                             f"{value!r:.200}")


def query_results(bench: CHBenchmark, txn: WorkloadTxn) -> dict[str, Any]:
    """The full results (not just cardinalities) of the 7 CH queries."""
    return {
        "q1": bench.query_q1(txn),
        "q6": bench.query_q6(txn),
        "carrier": bench.query_orders_by_carrier(txn),
        "low_stock": bench.query_low_stock(txn),
        "q4": bench.query_q4(txn),
        "top_customers": bench.query_top_customers(txn),
        "district_revenue": bench.query_revenue_by_district(txn),
    }


def recompute_queries(backend: Any, warehouses: int) -> dict[str, Any]:
    """The same 7 queries in plain Python over ``dump_table`` rows."""
    lines = backend.dump_table("order_line")
    orders = backend.dump_table("orders")
    stock = backend.dump_table("stock")
    customers = backend.dump_table("customer")
    groups: dict[int, list[float]] = {}
    revenue: dict[tuple[int, int], float] = {}
    by_order: dict[tuple[int, int, int], list[Any]] = {}
    for row in lines:
        agg = groups.setdefault(row[3], [0.0, 0.0, 0])
        agg[0] += row[6]
        agg[1] += row[7]
        agg[2] += 1
        key = (row[0], row[1])
        revenue[key] = revenue.get(key, 0.0) + row[7]
        by_order.setdefault((row[0], row[1], row[2]), []).append(row)
    delivered = sum(
        1 for o in orders
        if o[4] != 0 and by_order.get((o[0], o[1], o[2]))
        and all(line[8] > 0 for line in by_order[(o[0], o[1], o[2])]))
    top = sorted(customers, key=lambda r: -r[5])[:10]
    return {
        "q1": [(n, q, a, c) for n, (q, a, c) in sorted(groups.items())],
        "q6": sum(row[7] for row in lines if 1 <= row[6] <= 7),
        "carrier": dict(Counter(o[4] for o in orders)),
        "low_stock": sum(1 for s in stock
                         if 1 <= s[0] <= warehouses and s[2] < 15),
        "q4": delivered,
        "top_customers": [(r[0], r[1], r[2], r[5]) for r in top],
        "district_revenue": revenue,
    }


def same_result(a: Any, b: Any) -> bool:
    """Structural equality with a relative tolerance on floats (the
    engine and the recomputation may add in a different order)."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_result(a[k], b[k])
                                            for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_result(x, y)
                                        for x, y in zip(a, b))
    return a == b


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (YcsbPoint, TpccShardServed, ChHtapSingle)}
