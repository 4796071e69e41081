"""Seeded determinism, ground truth, and the untraced run's purity.

The workloads here are scaled-down copies of the real ones, so a full
closed-loop run takes a few seconds.
"""

import asyncio
import dataclasses

import pytest

from bench import loop
from bench.workloads import WORKLOADS, Generator, Workload

TINY = Workload(
    "tiny-bulk", set_size=3000, adds=4, removes=4, missing=40, extra=40,
)
TINY_PUSH = Workload(
    "tiny-churn", set_size=3000, adds=8, removes=8, shared_removes=8,
    push=True, durable=True,
)

# Exact counts.  The client-side ones depend only on the inputs.  The
# server-side ones (cells served or produced while a SHARD_DONE is in
# flight, and the frames carrying them) also depend on how the one event
# loop interleaves server and client, which is fixed for a given input
# over loopback; see README.md.
EXACT_E2E = ("symbols_per_diff", "bytes_per_diff")
EXACT_LAYER = (
    "hashing.items", "shard.items", "encoder.ingest_items",
    "encoder.cells_produced", "cellbank.walk_calls", "decoder.cells_absorbed",
    "decoder.recovered", "framing.frames", "framing.bytes",
    "backends.cells_served", "backends.patch_calls", "durable.journal_bytes",
    "durable.checkpoints",
)


def _initial(workload, seed):
    return Generator(workload, seed).initial


def test_inputs_depend_only_on_workload_and_seed():
    for workload in (TINY, TINY_PUSH):
        a, b = Generator(workload, 7), Generator(workload, 7)
        assert a.initial == b.initial
        assert a.warmups() == b.warmups()
        for _ in range(5):
            x, y = a.next_iteration(), b.next_iteration()
            assert dataclasses.asdict(x) == dataclasses.asdict(y)
        assert _initial(workload, 7) != _initial(workload, 8)
    assert _initial(TINY, 7) != _initial(TINY_PUSH, 7)


def test_real_workloads_keep_their_shape():
    for workload in WORKLOADS.values():
        gen = Generator(workload, 3)
        assert len(set(gen.initial)) == workload.set_size
        it = gen.next_iteration()
        assert len(it.only_in_server) + len(it.only_in_client) == workload.difference


def test_fresh_items_are_distinct_without_a_record_of_them():
    gen = Generator(TINY, 9)
    seen = set(gen.initial)
    for _, _, extra in gen.warmups():
        assert not extra & seen
        seen |= extra
    state = dict(vars(gen))
    for _ in range(20):
        it = gen.next_iteration()
        fresh = set(it.adds) | (it.only_in_client - set(it.removes))
        assert len(fresh) == TINY.adds + TINY.extra
        assert not fresh & seen
        seen |= fresh
    # Only the counter and the served-set mirror change; nothing grows.
    assert len(gen.members) == len(state["members"])
    assert {k for k in vars(gen) if vars(gen)[k] is not state[k]} <= {
        "members", "_counter", "_index",
    }


@pytest.mark.parametrize("workload", [TINY, TINY_PUSH], ids=lambda w: w.name)
def test_ground_truth_matches_a_model_server(workload):
    gen = Generator(workload, 5)
    server = set(gen.initial)
    for client, only_server, only_client in gen.warmups():
        assert server - set(client) == only_server
        assert set(client) - server == only_client
    for _ in range(6):
        it = gen.next_iteration()
        assert not set(it.adds) & server
        assert set(it.removes) <= server
        server = (server | set(it.adds)) - set(it.removes)
        client = set(it.client)
        assert len(client) == len(it.client)
        assert server - client == it.only_in_server
        assert client - server == it.only_in_client
        if workload.push:
            server |= it.only_in_client
        assert server == set(gen.members)
    # The churn-push shape keeps the served set's size stable.
    if workload.push:
        assert len(server) == workload.set_size


def _plain(workload, seed, tmp_path):
    """A plain run with ``seconds=0``: exactly ``MIN_SYNCS`` syncs."""
    return asyncio.run(loop.run_plain(workload, seed, 0.0, tmp_path))


def _traced(workload, seed, tmp_path):
    """A traced run with ``seconds=0``: exactly ``2 * MIN_TRACED`` syncs."""
    return asyncio.run(loop.run_traced(workload, seed, 0.0, tmp_path))


@pytest.mark.parametrize("workload", [TINY, TINY_PUSH], ids=lambda w: w.name)
def test_exact_counts_repeat_for_a_seed(workload, tmp_path):
    first = _plain(workload, 11, tmp_path / "a")
    second = _plain(workload, 11, tmp_path / "b")
    other = _plain(workload, 12, tmp_path / "c")
    for record in (first, second, other):
        assert record["tally"].failed == 0
        assert record["metrics"]["failed_frac"] == 0
    for key in EXACT_E2E:
        assert first["metrics"][key] == second["metrics"][key]
    assert any(first["metrics"][key] != other["metrics"][key] for key in EXACT_E2E)

    traced_a = _traced(workload, 11, tmp_path / "d")
    traced_b = _traced(workload, 11, tmp_path / "e")
    for key in EXACT_LAYER:
        assert traced_a["metrics"][key] == traced_b["metrics"][key], key


@pytest.mark.parametrize("workload", [TINY, TINY_PUSH], ids=lambda w: w.name)
def test_traced_ledger_adds_up(workload, tmp_path):
    record = _traced(workload, 2, tmp_path)
    metrics = record["raw_metrics"]
    check = record["ledger_check"]
    assert record["tally"].failed == 0 and record["tally_untraced"].failed == 0
    assert check["stray_root_spans"] == 0
    assert check["residual_ms"] == pytest.approx(0.0, abs=1e-6)
    assert check["self_sum_ms"] + check["unattributed_ms"] == pytest.approx(
        metrics["trace.wall_ms"]
    )
    assert metrics["decoder.recovered"] == workload.difference
    assert metrics["client.attempts"] == 1
    assert metrics["server.sessions_completed"] == 1
    assert "trace.overhead_frac" in metrics
    if workload.push:
        assert metrics["backends.patch_calls"] > 0
        assert metrics["durable.journal_bytes"] > 0
    # Normalising scales every time alike, so the identity survives it.
    scaled = record["metrics"]
    layer_sum = sum(v for k, v in scaled.items() if k.endswith("self_ms"))
    assert layer_sum + scaled["unattributed_ms"] == pytest.approx(
        scaled["trace.wall_ms"]
    )


def test_host_normalisation_scales_times_and_rates():
    raw = {"sync_p50_ms": 2.0, "setup_s": 1.0, "syncs_per_s": 4.0,
           "symbols_per_diff": 5.0, "framing.bytes": 7}
    assert loop.host_normalised(raw, 2.0) == {
        "sync_p50_ms": 4.0, "setup_s": 2.0, "syncs_per_s": 2.0,
        "symbols_per_diff": 5.0, "framing.bytes": 7,
    }


def test_untraced_run_calls_the_original_functions(tmp_path, monkeypatch):
    """A plain run never installs a wrapper and never records a span."""
    from bench import trace

    made = []
    real_tracer = trace.Tracer

    def spy(*args, **kwargs):
        made.append(1)
        return real_tracer(*args, **kwargs)

    monkeypatch.setattr(loop, "Tracer", spy)
    opened = []
    monkeypatch.setattr(
        trace.SpanRecorder, "open",
        lambda self, *a, **k: opened.append(a) or (0, ()),
    )
    record = _plain(TINY, 3, tmp_path)
    assert record["tally"].failed == 0
    assert made == [] and opened == []
    from test_trace import _marked_sites

    assert _marked_sites() == []


def test_wrong_difference_is_counted(tmp_path, monkeypatch):
    """A sync whose result disagrees with the ground truth is a failure."""
    from bench import workloads

    real = workloads.Generator.next_iteration

    def lying(self):
        it = real(self)
        it.only_in_server = set(it.only_in_server) | {b"\x00" * 8}
        return it

    monkeypatch.setattr(workloads.Generator, "next_iteration", lying)
    record = _plain(TINY, 4, tmp_path)
    assert record["tally"].failed == loop.MIN_SYNCS
    assert record["tally"].errors == {"WrongDifference": loop.MIN_SYNCS}
    assert record["metrics"]["failed_frac"] == 1.0
