"""Proof that the benchmark measures: traced-run reconciliation and a
sensitivity check per layer.

Usage (from the repository root)::

    python3 perfbench/check.py

Every run uses the gated set-up: ``run.py``'s worker processes and
``run_seconds`` from ``BENCHMARK.json`` (twice that on the ungated
``ch-htap-single``, whose 7 queries a round need the extra samples).

1. **Reconciliation.**  Each workload runs once with ``--trace 1``; the
   traced run itself fails when too much of its wall time lies outside
   every wrapped entry point or tracing costs too much (``run.py``), and,
   on ``ycsb-b-point``, when the per-op sim latencies do not add up to the
   clock advance.  Every wrapped entry point must fire on at least one
   workload, every layer must fire on the workloads that exercise it and
   stay silent where the workload bypasses it (``serve`` on
   ``ycsb-b-point``; ``shard`` off ``tpcc-4shard-served``).
2. **Sensitivity.**  For each row of :data:`ROWS`, ``run.py --inject
   NAME=DELAY`` adds a fixed delay after each call of that layer's entry
   points (a wall-clock busy wait, or a simulated-clock advance), or
   ``--cost-scale`` raises every term of the CPU cost model by a share.
   On each gated exercising workload the delay runs as a series: halved
   while the predicted metric still moves past its bound
   (``BENCHMARK.json``) in the predicted direction, doubled while it does
   not; the smallest delay that moved it is recorded, and the row fails
   when none did.  ``ch-htap-single`` checks run once, at their own delay.
   On a bypass workload the row's largest delay that moved its gated
   metric must never fire (read from the reconciliation's call counts, so
   no run is needed) or must leave the metric within its bound.
   Wall-clock metrics are medians over :data:`SEEDS`.  A simulated-clock
   metric is a pure function of the seed, so it is compared on the first
   seed alone, where baseline and injected runs differ only by the delay.

Results are written to ``sensitivity.json`` next to this file and
summarised on stdout; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "sensitivity.json"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
GATED = {w["name"] for w in SPEC["workloads"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SEEDS = (1, 2, 3)
SIM_METRICS = {"sim_ops_per_s", "sim_tail_us", "query_sim_mean_ms"}

YCSB, TPCC, CH = "ycsb-b-point", "tpcc-4shard-served", "ch-htap-single"
ALL = [YCSB, TPCC, CH]
SECONDS_FACTOR = {CH: 2.0}

#: a series halves a delay that moved its metric at most this often, and
#: doubles one that did not at most this often
MAX_HALVINGS, MAX_DOUBLINGS = 3, 2

TREE = "repro.core.tree:MVPBT"
WAL = "repro.durability.wal:WriteAheadLog"
POOL = "repro.buffer.pool:BufferPool"

#: injection name -> which entry points to delay, and how: a wall-clock
#: busy wait after each call (per item yielded or returned with
#: ``per_item``), or a simulated-clock advance on the clock named
INJECTIONS: dict[str, dict[str, Any]] = {
    "core.search": {"entries": [(TREE, "search")]},
    "core.scan": {"entries": [(TREE, "cursor"), (TREE, "range_scan")],
                  "per_item": True},
    "core.evict": {"entries": [(TREE, "evict_partition")]},
    "durability.wal": {"entries": [(WAL, "log_group"), (WAL, "log_prepare")],
                       "clock": "wal"},
    "txn": {"entries": [("repro.txn.manager:TransactionManager", name)
                        for name in ("begin", "begin_adopted",
                                     "finish_commit")]},
    "buffer": {"entries": [(POOL, "get")], "clock": "pool"},
    "serve": {"entries": [("repro.serve.scheduler:FairScheduler",
                           "acquire")]},
    "shard": {"entries": [("repro.shard.router:ShardedDatabase", name)
                          for name in ("begin", "commit", "insert",
                                       "select", "select_hits_tagged",
                                       "range_select", "range_hits_tagged",
                                       "update_hit", "delete_hit")]},
    "engine": {"entries": [("repro.engine.executor:Executor", "lookup"),
                           ("repro.engine.executor:Executor", "scan"),
                           ("repro.engine.database:Database", "insert"),
                           ("repro.engine.database:Database",
                            "update_row")]},
    "table": {"entries": [("repro.table.sias:SIASTable", name)
                          for name in ("insert", "update", "fetch")]},
    "workloads": {"entries": [("repro.workloads.tpcc:TPCCRunner", "run")]},
    "storage": {"entries": [("repro.storage.page:SlottedPage", "read")]},
}

#: row -> (injection, checks).  A check is (workload, metric, direction,
#: delay): direction +1 or -1 is the way the metric must move past its
#: bound, 0 marks a bypass workload (delay unused: the row's largest
#: delay that moved its gated metric is applied).  Delays are in µs; for
#: "cost" they are the percentage added to every CostModel term.  The
#: starting delays are about twice the threshold estimated from short
#: runs, so a series takes two or three steps.
ROWS: dict[str, tuple[str, list[tuple[str, str, int, float]]]] = {
    "core search": ("core.search", [(YCSB, "p99_us", +1, 100),
                                    (CH, "query_p90_ms", 0, 0)]),
    "core scan": ("core.scan", [(TPCC, "query_p90_ms", +1, 20),
                                (CH, "query_p90_ms", +1, 5),
                                (YCSB, "p99_us", 0, 0)]),
    "core evict": ("core.evict", [(TPCC, "p99_us", +1, 40_000)]),
    "durability": ("durability.wal", [(YCSB, "sim_ops_per_s", -1, 40),
                                      (CH, "query_sim_mean_ms", 0, 0)]),
    "txn": ("txn", [(YCSB, "p99_us", +1, 50)]),
    "buffer": ("buffer", [(YCSB, "sim_tail_us", +1, 20),
                          (TPCC, "sim_tail_us", 0, 0)]),
    "serve": ("serve", [(TPCC, "p99_us", +1, 60), (CH, "p99_us", +1, 100),
                        (YCSB, "p99_us", 0, 0)]),
    "shard": ("shard", [(TPCC, "p99_us", +1, 60), (YCSB, "p99_us", 0, 0),
                        (CH, "p99_us", 0, 0)]),
    "engine": ("engine", [(TPCC, "p99_us", +1, 40)]),
    "table": ("table", [(TPCC, "p99_us", +1, 25)]),
    "workloads": ("workloads", [(TPCC, "p99_us", +1, 12_000)]),
    "storage": ("storage", [(TPCC, "query_p90_ms", +1, 20),
                            (CH, "query_p90_ms", +1, 5)]),
    "sim": ("cost", [(YCSB, "sim_ops_per_s", -1, 300),
                     (TPCC, "sim_tail_us", +1, 50),
                     (CH, "query_sim_mean_ms", +1, 300)]),
}

#: layer -> workloads on which it must fire / must not fire
FIRES_ON = {
    "serve": ([TPCC, CH], [YCSB]),
    "shard": ([TPCC], [YCSB, CH]),
}


# ------------------------------------------------------ in-process side


def install_injection(arg: str) -> Any:
    """Called by ``run.py --inject NAME=DELAY`` before the workload is
    built; ``bind(workload)`` must follow the build (sim delays need the
    clock of the delayed object)."""
    from tracing import Injector
    name, _, delay = arg.partition("=")
    if name not in INJECTIONS or not delay:
        raise SystemExit(f"bad injection {arg!r}; use NAME=DELAY with NAME "
                         f"one of {', '.join(INJECTIONS)}")
    spec, delay_us = INJECTIONS[name], float(delay)
    injector = Injector()
    clock = spec.get("clock")
    if clock is None:
        injector.add_wall(spec["entries"], delay_us,
                          per_item=spec.get("per_item", False))
    elif clock == "wal":
        injector.add_sim(spec["entries"], delay_us,
                         lambda wal: wal.file.device.clock)
    else:
        # a buffer miss is a get that made the file's device read a page
        pool_clocks: dict[int, Any] = {}

        def device_reads(_pool: Any, file: Any, *_args: Any) -> int:
            return file.device.stats.reads

        def bind(wl: Any) -> None:
            from workloads import databases
            pool_clocks.update((id(db.pool), db.clock)
                               for db in databases(wl.backend))

        injector.add_sim(
            spec["entries"], delay_us,
            lambda pool: pool_clocks[id(pool)], probe=device_reads,
            only_if=lambda before, *call: device_reads(*call) != before)
        injector.binders.append(bind)
    return injector


# ------------------------------------------------------- parent side


def run_bench(workload: str, seed: int, *extra: str) -> dict[str, Any]:
    """One run.py run; adds ``fired``, the injected delays that fired."""
    seconds = SECONDS * SECONDS_FACTOR.get(workload, 1.0)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["fired"] = sum(int(n) for n in re.findall(
        r"injected delays fired (\d+) times", proc.stderr))
    return result


def reconcile_all() -> dict[str, Any]:
    from tracing import LAYERS, entry_label
    fired: dict[str, dict[str, int]] = {}
    problems: list[str] = []
    layer_calls: dict[str, dict[str, int]] = {}
    shares: dict[str, dict[str, float]] = {}
    for workload in ALL:
        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            result = run_bench(workload, SEEDS[0], "--trace", "1",
                               "--details", tmp.name)
            details = json.loads(Path(tmp.name).read_text())
        if not result["correct"]:
            problems.append(f"{workload}: traced run failed its checks")
        metrics = result["metrics"]
        shares[workload] = {
            "harness_share": metrics["bench.harness_share"]["value"],
            "tracing_overhead": metrics["bench.tracing_overhead"]["value"]}
        layer_calls[workload] = details["layer_calls"]
        for label, entry in details["entries"].items():
            fired.setdefault(label, {})[workload] = entry["calls"]
    for layer, entries in LAYERS.items():
        must, must_not = FIRES_ON.get(layer, (ALL, []))
        for workload in must:
            if layer_calls[workload][layer] == 0:
                problems.append(f"layer {layer} never fired on {workload}")
        for workload in must_not:
            if layer_calls[workload][layer] != 0:
                problems.append(f"layer {layer} fired on bypass workload "
                                f"{workload}")
        for owner, attr in entries:
            label = entry_label(owner, attr)
            if not any(fired[label].values()):
                problems.append(f"entry point {label} never fired")
    return {"problems": problems, "layer_calls": layer_calls,
            "entry_calls": fired, "trace_shares": shares}


class Sensitivity:
    """Runs and caches (workload, injection, delay, seed) results."""

    def __init__(self, entry_calls: dict[str, dict[str, int]]) -> None:
        self.entry_calls = entry_calls
        self.cache: dict[tuple[str, str, float, int], dict[str, Any]] = {}

    def result(self, workload: str, variant: str, delay: float,
               seed: int) -> dict[str, Any]:
        key = (workload, variant, delay, seed)
        if key not in self.cache:
            extra: list[str] = []
            if variant == "cost":
                extra = ["--cost-scale", repr(1 + delay / 100)]
            elif variant:
                extra = ["--inject", f"{variant}={delay!r}"]
            run = run_bench(workload, seed, *extra)
            if not run["correct"]:
                raise RuntimeError(f"{workload} {variant}={delay} seed "
                                   f"{seed}: the run failed its checks")
            self.cache[key] = run
            print(f"  ran {workload} [{variant or 'baseline'}"
                  f"{'=%g' % delay if variant else ''}] seed {seed}",
                  file=sys.stderr, flush=True)
        return self.cache[key]

    def change(self, workload: str, metric: str, variant: str,
               delay: float) -> dict[str, Any]:
        seeds = SEEDS[:1] if metric in SIM_METRICS else SEEDS

        def median(v: str, d: float) -> float:
            return statistics.median(
                self.result(workload, v, d, s)["metrics"][metric]["value"]
                for s in seeds)
        base, new = median("", 0.0), median(variant, delay)
        return {"delay": delay, "baseline": base, "injected": new,
                "change": (new - base) / base,
                "fired": sum(self.result(workload, variant, delay, s)
                             ["fired"] for s in seeds)}

    def fires_on(self, workload: str, variant: str) -> bool:
        if variant == "cost":
            return True
        from tracing import entry_label
        return any(self.entry_calls[entry_label(o, a)][workload]
                   for o, a in INJECTIONS[variant]["entries"])

    def series(self, workload: str, metric: str, direction: int,
               variant: str, start: float) -> list[dict[str, Any]]:
        def step(delay: float) -> dict[str, Any]:
            point = self.change(workload, metric, variant, delay)
            point["moved"] = direction * point["change"] > BOUND[metric]
            return point

        points = [step(start)]
        factor, tries = ((0.5, MAX_HALVINGS) if points[0]["moved"]
                         else (2.0, MAX_DOUBLINGS))
        for _ in range(tries):
            points.append(step(points[-1]["delay"] * factor))
            if points[-1]["moved"] != points[0]["moved"]:
                break
        return points

    def row(self, name: str, variant: str,
            checks: list[tuple[str, str, int, float]]) -> dict[str, Any]:
        out = []
        strongest = 0.0
        for workload, metric, direction, delay in checks:
            if direction == 0:
                continue
            if workload in GATED:
                points = self.series(workload, metric, direction, variant,
                                     delay)
            else:
                point = self.change(workload, metric, variant, delay)
                point["moved"] = direction * point["change"] > BOUND[metric]
                points = [point]
            moved = [p["delay"] for p in points if p["moved"]]
            if workload in GATED and moved:
                strongest = max(strongest, *moved)
            out.append({"kind": "moves", "workload": workload,
                        "metric": metric, "bound": BOUND[metric],
                        "points": points,
                        "smallest_moving_delay": min(moved, default=None),
                        "ok": bool(moved)})
        for workload, metric, direction, _delay in checks:
            if direction != 0:
                continue
            check: dict[str, Any] = {"kind": "stays", "workload": workload,
                                     "metric": metric,
                                     "bound": BOUND[metric]}
            if not strongest:
                check["ok"] = False
            elif not self.fires_on(workload, variant):
                # the entry points never run there: nothing can move
                check.update(delay=strongest, never_fires=True, ok=True)
            else:
                point = self.change(workload, metric, variant, strongest)
                check.update(point, never_fires=False,
                             ok=abs(point["change"]) <= BOUND[metric])
            out.append(check)
        for c in out:
            if c["kind"] == "moves":
                trail = ", ".join(f"{p['delay']:g}:{p['change']:+.1%}"
                                  for p in c["points"])
                detail = f"smallest moving {c['smallest_moving_delay']} " \
                         f"[{trail}]"
            elif c.get("never_fires"):
                detail = f"at {c['delay']:g}: never fires"
            else:
                detail = f"at {c.get('delay', 0):g}: " \
                         f"{c.get('change', 0):+.1%}"
            print(f"{name:12s} {c['kind']:6s} {c['workload']:20s} "
                  f"{c['metric']:18s} (bound {c['bound']:.0%}) {detail} "
                  f"{'ok' if c['ok'] else 'FAIL'}", flush=True)
        return {"row": name, "injection": variant,
                **{k: v for k, v in INJECTIONS.get(variant, {}).items()
                   if k != "entries"},
                "entries": [f"{o}.{a}" for o, a in
                            INJECTIONS.get(variant, {}).get("entries", [])],
                "checks": out, "ok": all(c["ok"] for c in out)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    recon = reconcile_all()
    for problem in recon["problems"]:
        print(f"RECONCILE FAIL: {problem}", flush=True)
    sens = Sensitivity(recon["entry_calls"])
    rows = [sens.row(name, variant, checks)
            for name, (variant, checks) in ROWS.items()]
    ok = not recon["problems"] and all(r["ok"] for r in rows)
    OUT.write_text(json.dumps({
        "seconds": SECONDS, "seconds_factor": SECONDS_FACTOR,
        "seeds": SEEDS, "reconciliation": recon, "sensitivity": rows,
        "ok": ok,
    }, indent=1) + "\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
