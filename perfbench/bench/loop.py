"""The closed-loop run: one in-process server, one client, one sync at a time.

Each measured iteration applies the workload's server write batch
(``add_items`` then ``remove_items``), then runs one
``repro.service.client.sync`` and checks its result against the
generator's ground truth.  The next iteration starts only after the
server has accounted the finished session, so no work of one sync
overlaps the next.

``run_plain`` gives the end-to-end metrics (tracing off).  ``run_traced``
runs traced and untraced iterations on one server, one of each per pair:
the traced ones give the per-layer ledger, and the two latency medians
give the tracing overhead.  A seeded coin picks which of the pair is
traced, so an event with an even period (an auto-checkpoint every 16
iterations) is not always left untraced.

Timings are host-normalised.  The benchmark host's CPU speed drifts by
tens of percent between half-minute windows, and every timing moves with
it.  A fixed pure-Python probe loop runs before each set-up and each
iteration (outside every timed region), and each sync, write and set-up
time is scaled by ``HOST_REF_PROBE_MS`` over the probe time taken just
before it, so it reads as the time it would have taken on a host running
the probe in the reference time.  The speed drifts within seconds, so a
probe next to each sample corrects far better than one factor per run.
The traced run's per-layer times use the run's median probe.  The raw
timings and the probes are kept in the record.
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from bench.stats import (
    median,
    min_samples_for,
    percentile,
    samples_beyond,
    tail_percentile,
)
from bench.trace import ROOT_NAMES, SpanRecorder, Tracer, ledger, self_ms_name
from bench.workloads import BLOCK_SIZE, NUM_SHARDS, Generator, Workload

SETUPS = 5
"""Server set-ups per plain run; ``setup_s`` is their median."""

SETUPS_BEFORE = 3
"""Set-ups before the measured loop (the last one is measured); the rest
run after it, so the median samples the host's drifting speed at both
ends of the run."""

TAIL_PERCENTILE = 80.0
"""The tail every workload reports (``min_syncs`` guarantees at least
ten samples above it)."""

MIN_SYNCS = min_samples_for(TAIL_PERCENTILE)
"""A plain run measures at least this many syncs, however short ``--seconds``."""

MIN_TRACED = 10
"""A traced run measures at least this many traced and untraced syncs each."""

DRAIN_TIMEOUT_S = 5.0

HOST_REF_PROBE_MS = 4.5
"""Probe time the timings are scaled to: typical of the two-core host the
bounds in BENCHMARK.json were set on."""


@dataclass
class SyncOutcome:
    index: int
    latency_s: float
    write_s: float
    symbols: int = 0
    wire_bytes: int = 0
    difference: int = 0
    error: Optional[str] = None
    attempts: int = 0
    busy_waits: int = 0
    scale: float = 1.0
    """Host normalisation of this iteration's times (see module docstring)."""


@dataclass
class Tally:
    outcomes: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    def add(self, outcome: SyncOutcome) -> None:
        self.outcomes.append(outcome)
        if outcome.error is not None:
            self.errors[outcome.error] = self.errors.get(outcome.error, 0) + 1

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)


class Bench:
    """One workload's server plus its generator, inside one event loop."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.gen = Generator(workload, seed)
        self.server = None
        self.address = None
        self._sessions_seen = 0
        self.probes: list = []

    def probe(self) -> float:
        """Probe the host; returns the scale for the sample taken next."""
        probe_ms = host_probe_ms()
        self.probes.append(probe_ms)
        return HOST_REF_PROBE_MS / probe_ms

    @property
    def host(self) -> dict:
        probe = median(self.probes)
        return {
            "probe_ms": probe,
            "probes": len(self.probes),
            "ref_probe_ms": HOST_REF_PROBE_MS,
            "scale": HOST_REF_PROBE_MS / probe,
        }

    # -- set-up -----------------------------------------------------------

    async def setup(self, attempt: int) -> tuple:
        """Build, start and warm a fresh server.

        Returns ``(seconds, normalised seconds)``.  Construction and each
        warm-up sync are normalised by a probe taken just before them.
        """
        from repro.durable import DurableConfig
        from repro.service.server import ReconciliationServer, ServerConfig

        await self.close()
        # The previous server holds reference cycles; free them now rather
        # than inside this set-up's timed region, and keep them from
        # stacking up in peak_rss_mb.
        gc.collect()
        config = ServerConfig(block_size=BLOCK_SIZE, max_symbols_per_shard=None)
        extra = {}
        if self.workload.durable:
            data_dir = self.workdir / f"data-{attempt}"
            shutil.rmtree(data_dir, ignore_errors=True)
            extra = {"data_dir": data_dir, "durable": DurableConfig(fsync=False)}
        scale = self.probe()
        start = time.perf_counter()
        server = ReconciliationServer(
            self.gen.initial, num_shards=NUM_SHARDS, config=config, **extra
        )
        self.server = server
        self.address = await server.start()
        self._sessions_seen = 0
        elapsed = time.perf_counter() - start
        total, normalised = elapsed, elapsed * scale
        for client, only_server, only_client in self.gen.warmups():
            scale = self.probe()
            start = time.perf_counter()
            result = await self._sync(client, push=False)
            await self._drain()
            elapsed = time.perf_counter() - start
            total += elapsed
            normalised += elapsed * scale
            if (
                result.only_in_server != only_server
                or result.only_in_client != only_client
            ):
                raise AssertionError("warm-up sync returned a wrong difference")
        return total, normalised

    async def close(self) -> None:
        if self.server is not None:
            await self.server.close()
            self.server = None

    # -- one iteration ----------------------------------------------------

    async def _sync(self, client: list, push: bool):
        from repro.service.client import RetryPolicy, sync

        host, port = self.address
        return await sync(
            host, port, client, push=push, retry=RetryPolicy(attempts=1)
        )

    async def _drain(self) -> None:
        """Wait until the server accounted every session it was sent."""
        self._sessions_seen += 1
        stats = self.server.stats
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        spins = 0
        while stats.sessions_completed + stats.sessions_dropped < self._sessions_seen:
            if time.perf_counter() > deadline:
                raise TimeoutError("server never finished the session")
            spins += 1
            await asyncio.sleep(0 if spins < 100 else 0.001)

    async def iterate(self, recorder: Optional[SpanRecorder] = None) -> SyncOutcome:
        scale = self.probe()
        it = self.gen.next_iteration()
        server = self.server
        if recorder is not None:
            recorder.iteration = it.index
        try:
            span = recorder.open("write") if recorder is not None else None
            start = time.perf_counter()
            try:
                server.add_items(it.adds)
                server.remove_items(it.removes)
            finally:
                write_s = time.perf_counter() - start
                if span is not None:
                    recorder.close(span[0])
            span = recorder.open("sync") if recorder is not None else None
            start = time.perf_counter()
            error = None
            result = None
            try:
                result = await self._sync(it.client, push=self.workload.push)
            except Exception as exc:  # every failure is counted, by class
                error = type(exc).__name__
            finally:
                latency_s = time.perf_counter() - start
                if span is not None:
                    recorder.close(span[0])
        finally:
            if recorder is not None:
                recorder.iteration = -1
        outcome = SyncOutcome(
            index=it.index,
            latency_s=latency_s,
            write_s=write_s,
            difference=len(it.only_in_server) + len(it.only_in_client),
            error=error,
            scale=scale,
        )
        try:
            await self._drain()
        except TimeoutError:
            outcome.error = outcome.error or "DrainTimeout"
        if result is None:
            return outcome
        outcome.symbols = result.symbols
        outcome.wire_bytes = result.bytes_received + result.bytes_sent
        outcome.attempts = result.attempts
        outcome.busy_waits = result.busy_waits
        if (
            result.only_in_server != it.only_in_server
            or result.only_in_client != it.only_in_client
        ):
            outcome.error = "WrongDifference"
        elif self.workload.push and (
            result.pushed != len(it.only_in_client)
            or len(server) != len(self.gen.members)
            or any(item not in server for item in it.only_in_client)
        ):
            outcome.error = "WrongPush"
        return outcome

    def server_counters(self) -> dict:
        stats = self.server.stats
        return {
            "server.sessions_completed": stats.sessions_completed,
            "server.sessions_dropped": stats.sessions_dropped,
            "server.sessions_shed": stats.sessions_shed,
            "server.errors_sent": sum(stats.errors_sent.values()),
        }


def _done(started: float, seconds: float, count: int, min_count: int) -> bool:
    return count >= min_count and time.perf_counter() - started >= seconds


def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_normalised(metrics: dict, scale: float) -> dict:
    """Timings (``*_ms``, ``*_s``) times ``scale``; rates (``*_per_s``) over it."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            out[name] = value / scale
        elif name.endswith(("_ms", "_s")):
            out[name] = value * scale
        else:
            out[name] = value
    return out


def _latency_metrics(tally: Tally, normalise: bool) -> dict:
    ok = [o for o in tally.outcomes if o.error is None]
    latencies = [o.latency_s * (o.scale if normalise else 1.0) for o in ok]
    busy = sum(latencies)
    symbols = sum(o.symbols for o in ok)
    diff = sum(o.difference for o in ok)
    return {
        "sync_p50_ms": median(latencies) * 1e3,
        "sync_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
        "syncs_per_s": len(ok) / busy,
        "symbols_per_s": symbols / busy,
        "symbols_per_diff": symbols / diff,
        "bytes_per_diff": sum(o.wire_bytes for o in ok) / diff,
        "write_p50_ms": median(
            [o.write_s * (o.scale if normalise else 1.0) for o in tally.outcomes]
        ) * 1e3,
        "success_frac": 1.0 - tally.failed / tally.attempted,
    }


def _tail_record(tally: Tally) -> dict:
    """The fixed tail's sample counts, and the highest tail the run supports."""
    ok = [o.latency_s * o.scale for o in tally.outcomes if o.error is None]
    record = {
        "percentile": TAIL_PERCENTILE,
        "samples": len(ok),
        "samples_beyond": samples_beyond(len(ok), TAIL_PERCENTILE) if ok else 0,
    }
    highest = tail_percentile(ok)
    if highest is not None:
        value, pct, _ = highest
        record["highest"] = {"percentile": pct, "value_ms": value * 1e3}
    return record


async def run_plain(
    workload: Workload, seed: int, seconds: float, workdir: Path
) -> dict:
    """End-to-end metrics with tracing off."""
    bench = Bench(workload, seed, workdir)
    tally = Tally()
    try:
        setups_done = [await bench.setup(k) for k in range(SETUPS_BEFORE)]
        before = bench.server_counters()
        started = time.perf_counter()
        while not _done(started, seconds, tally.attempted, MIN_SYNCS):
            tally.add(await bench.iterate())
        after = bench.server_counters()
        for k in range(SETUPS_BEFORE, SETUPS):
            setups_done.append(await bench.setup(k))
    finally:
        await bench.close()
    metrics, raw = {}, {}
    if tally.failed < tally.attempted:
        metrics = _latency_metrics(tally, normalise=True)
        raw = _latency_metrics(tally, normalise=False)
    for out in (metrics, raw):
        out["failed_frac"] = tally.failed / max(1, tally.attempted)
        out["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = median([normalised for _, normalised in setups_done])
    raw["setup_s"] = median([seconds for seconds, _ in setups_done])
    return {
        "tally": tally,
        "metrics": metrics,
        "raw_metrics": raw,
        "host": bench.host,
        "setup_times_s": [seconds for seconds, _ in setups_done],
        "server_counters": {k: after[k] - before[k] for k in after},
        "tail": _tail_record(tally),
    }


LAYERS = (
    "hashing", "shard", "encoder.ingest", "encoder.produce", "cellbank.walk",
    "decoder", "cellbank.pack", "cellbank.unpack", "framing", "machine.client",
    "machine.server", "backends.serve", "backends.patch", "durable",
)
COUNTERS = (
    "hashing.items", "shard.items", "encoder.ingest_items",
    "encoder.cells_produced", "cellbank.walk_calls", "decoder.cells_absorbed",
    "decoder.recovered", "framing.frames", "framing.bytes",
    "backends.cells_served", "backends.patch_calls", "durable.checkpoints",
    "durable.journal_bytes",
)


async def run_traced(
    workload: Workload, seed: int, seconds: float, workdir: Path,
    spans_path: Optional[Path] = None,
) -> dict:
    """Per-layer ledger: one iteration of each pair traced, the other not."""
    bench = Bench(workload, seed, workdir)
    recorder = SpanRecorder()
    tally_traced = Tally()
    tally_plain = Tally()
    traced_iterations: list = []
    server_delta = dict.fromkeys(
        ("server.sessions_completed", "server.sessions_dropped",
         "server.sessions_shed", "server.errors_sent"), 0)
    try:
        await bench.setup(0)
        tracer = Tracer(recorder)
        started = time.perf_counter()
        coin = random.Random(f"perfbench-trace:{seed}")
        count = 0
        while not _done(started, seconds, count, 2 * MIN_TRACED):
            if count % 2 == 0:
                trace_first = coin.random() < 0.5
            if (count % 2 == 0) == trace_first:
                before = bench.server_counters()
                tracer.install()
                try:
                    outcome = await bench.iterate(recorder)
                finally:
                    tracer.uninstall()
                after = bench.server_counters()
                for key in server_delta:
                    server_delta[key] += after[key] - before[key]
                traced_iterations.append(outcome.index)
                tally_traced.add(outcome)
            else:
                tally_plain.add(await bench.iterate())
            count += 1
    finally:
        await bench.close()
    n = max(1, len(traced_iterations))
    book = ledger(recorder.spans, traced_iterations)
    metrics = {}
    for layer in LAYERS:
        metrics[self_ms_name(layer)] = book.get(self_ms_name(layer), 0.0)
    for counter in COUNTERS:
        metrics[counter] = book.get(counter, 0)
    absorbed = metrics["decoder.cells_absorbed"]
    metrics["decoder.useful_ratio"] = (
        metrics["decoder.recovered"] / absorbed if absorbed else 0.0
    )
    for key, value in server_delta.items():
        metrics[key] = value / n
    metrics["client.attempts"] = (
        sum(o.attempts for o in tally_traced.outcomes) / n
    )
    metrics["client.busy_waits"] = (
        sum(o.busy_waits for o in tally_traced.outcomes) / n
    )
    metrics["unattributed_ms"] = book["unattributed_ms"]
    metrics["trace.wall_ms"] = book["wall_ms"]
    traced_ok = [o.latency_s for o in tally_traced.outcomes if o.error is None]
    plain_ok = [o.latency_s for o in tally_plain.outcomes if o.error is None]
    if traced_ok and plain_ok:
        metrics["trace.overhead_frac"] = median(traced_ok) / median(plain_ok) - 1.0
    self_sum = sum(metrics[self_ms_name(layer)] for layer in LAYERS)
    if spans_path is not None:
        recorder.write_jsonl(spans_path)
    stray = sum(
        1 for span in recorder.spans
        if span.iteration >= 0 and span.parent < 0 and span.name not in ROOT_NAMES
    )
    host = bench.host
    return {
        "tally": tally_traced,
        "tally_untraced": tally_plain,
        "metrics": host_normalised(metrics, host["scale"]),
        "raw_metrics": metrics,
        "host": host,
        "ledger_check": {
            "self_sum_ms": self_sum,
            "unattributed_ms": book["unattributed_ms"],
            "wall_ms": book["wall_ms"],
            "residual_ms": book["wall_ms"] - self_sum - book["unattributed_ms"],
            "stray_root_spans": stray,
        },
        "spans": len(recorder.spans),
    }
