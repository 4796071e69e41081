"""Warm client encoders: a repeat sync patches the client's cached banks.

Every check compares a warm sync with a cold one (the warm entry cleared
first) against the same server: the same difference (equal to the truth),
the same symbol count and the same captured payloads.  After each warm
sync the client's cached cells must equal those of a fresh encoder over
the same shard members.  Both CI legs (NumPy and ``REPRO_NO_NUMPY``) run
this file.
"""

import asyncio
import random

import pytest

from repro.core.encoder import RatelessEncoder
from repro.service import (
    ProtocolError,
    ReconciliationServer,
    ServerBusy,
    ServerConfig,
    sync,
)
from repro.service import client
from repro.service.framing import (
    PROTOCOL_VERSION,
    FrameType,
    SyncMode,
    encode_frame,
    pack_uvarints,
)
from repro.service.shard import partition_items

from helpers import make_items

SYNC_TIMEOUT = 180.0


def run(coro):
    """Drive one test coroutine (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SYNC_TIMEOUT))


@pytest.fixture(autouse=True)
def empty_slot():
    client.clear_warm_encoders()
    yield
    client.clear_warm_encoders()


def churn(rng, items, n, fresh):
    """``items`` minus ``n`` random members plus ``n`` items of ``fresh``."""
    gone = set(rng.sample(items, n))
    return [x for x in items if x not in gone] + [fresh.pop() for _ in range(n)]


def assert_cells_match_fresh(entry):
    """Each cached shard bank equals a fresh encoder's over its members."""
    encoders = entry.encoders
    codec = encoders[0].codec
    parts = partition_items(codec.hasher.hash64, list(entry.members), len(encoders))
    for encoder, part in zip(encoders, parts):
        assert sorted(encoder.export_rows()[0]) == sorted(codec.to_int_batch(part))
        produced = encoder.produced_count
        fresh = RatelessEncoder(codec, part)
        assert encoder.bank.slice(0, produced).cells() == (
            fresh.produce_block(produced).cells()
        )


async def warm_and_cold(address, items, server_set):
    """One warm sync, then the same sync cold; the warm entry survives."""
    host, port = address
    warm = await sync(host, port, items, capture_payloads=True)
    entry = client._warm
    assert entry is not None and list(entry.members) == list(dict.fromkeys(items))
    client.clear_warm_encoders()
    cold = await sync(host, port, items, capture_payloads=True)
    client._warm = entry
    truth = (server_set - set(items), set(items) - server_set)
    for result in (warm, cold):
        assert (result.only_in_server, result.only_in_client) == truth
    assert warm.symbols == cold.symbols
    assert warm.payloads == cold.payloads
    assert_cells_match_fresh(entry)
    return entry


def test_warm_syncs_equal_cold_syncs_through_every_rebuild_rule():
    rng = random.Random(12)
    pool = make_items(rng, 1400)
    served, fresh = pool[:600], pool[600:]
    served_set = set(served)

    async def scenario():
        async with ReconciliationServer(served, num_shards=4) as four:
            items = served[10:] + [fresh.pop() for _ in range(10)]
            first = await warm_and_cold(four.address, items, served_set)
            assert len(first.encoders) == 4

            # Small churn patches the same encoders in place.
            items = churn(rng, items, 8, fresh)
            entry = await warm_and_cold(four.address, items, served_set)
            assert entry.encoders is first.encoders

            # An empty delta reuses them untouched.
            entry = await warm_and_cold(four.address, list(items), served_set)
            assert entry.encoders is first.encoders

            # A delta at least as large as the new set rebuilds.
            items = [fresh.pop() for _ in range(20)]
            entry = await warm_and_cold(four.address, items, served_set)
            assert entry.encoders is not first.encoders
            items = served[5:] + [fresh.pop() for _ in range(5)]
            rebuilt = await warm_and_cold(four.address, items, served_set)
            assert rebuilt.encoders is not entry.encoders

        # A server with another shard count rebuilds, then patches.
        async with ReconciliationServer(served, num_shards=2) as two:
            entry = await warm_and_cold(two.address, items, served_set)
            assert len(entry.encoders) == 2
            items = churn(rng, items, 6, fresh)
            patched = await warm_and_cold(two.address, items, served_set)
            assert patched.encoders is entry.encoders

    run(scenario())


def test_repeat_sync_hashes_only_the_delta(monkeypatch):
    rng = random.Random(3)
    pool = make_items(rng, 900)
    served, fresh = pool[:800], pool[800:]
    hashed = []
    real = client.hash_items

    def counting(hash64, items):
        hashed.append(len(items))
        return real(hash64, items)

    monkeypatch.setattr(client, "hash_items", counting)

    async def scenario():
        async with ReconciliationServer(served, num_shards=4) as server:
            host, port = server.address
            items = served[4:] + [fresh.pop() for _ in range(4)]
            await sync(host, port, items)
            assert hashed == [len(items)]
            items = churn(rng, items, 7, fresh)
            result = await sync(host, port, items)
            assert hashed[1:] == [7]
            assert result.only_in_server == set(served) - set(items)

    run(scenario())


def test_other_schemes_leave_the_warm_entry_alone():
    items = make_items(random.Random(5), 300)

    async def scenario():
        async with ReconciliationServer(items, num_shards=2) as riblt:
            await sync(*riblt.address, items[3:])
        entry = client._warm
        async with ReconciliationServer(
            items, num_shards=2, scheme="regular_iblt"
        ) as iblt:
            result = await sync(
                *iblt.address, items[5:], scheme="regular_iblt", difference_bound=16
            )
        assert result.only_in_server == set(items[:5])
        assert client._warm is entry

    run(scenario())


def test_concurrent_syncs_each_get_a_consistent_entry():
    rng = random.Random(7)
    pool = make_items(rng, 1000)
    served, fresh = pool[:700], pool[700:]
    served_set = set(served)

    async def scenario():
        async with ReconciliationServer(served, num_shards=4) as server:
            host, port = server.address
            await sync(host, port, served[9:])
            near = churn(rng, served[9:], 6, fresh)
            far = served[200:] + [fresh.pop() for _ in range(30)]
            results = await asyncio.gather(
                sync(host, port, near), sync(host, port, far)
            )
            for items, result in zip((near, far), results):
                assert result.only_in_server == served_set - set(items)
                assert result.only_in_client == set(items) - served_set
            # Whichever sync parked last, the entry it left is exact.
            assert_cells_match_fresh(client._warm)
            await warm_and_cold(server.address, churn(rng, far, 4, fresh), served_set)

    run(scenario())


def test_failed_sessions_drop_the_entry_then_a_sync_is_correct():
    rng = random.Random(9)
    pool = make_items(rng, 700)
    served, fresh = pool[:500], pool[500:]
    served_set = set(served)

    async def closes_after_welcome(reader, writer):
        await reader.read(64)  # the HELLO
        welcome = pack_uvarints(PROTOCOL_VERSION, SyncMode.STREAM, 4, 64)
        writer.write(encode_frame(FrameType.WELCOME, welcome))
        await writer.drain()
        writer.close()

    async def scenario():
        stub = await asyncio.start_server(closes_after_welcome, "127.0.0.1", 0)
        stub_port = stub.sockets[0].getsockname()[1]
        shedding = ReconciliationServer(
            served, num_shards=4, config=ServerConfig(max_concurrent_sessions=0)
        )
        try:
            async with ReconciliationServer(served, num_shards=4) as server:
                async with shedding:
                    host, port = server.address
                    items = served[6:] + [fresh.pop() for _ in range(6)]
                    await sync(host, port, items)

                    # The server closes mid-stream: the patch already ran
                    # on the checked-out entry, which is dropped, not parked.
                    items = churn(rng, items, 5, fresh)
                    with pytest.raises(ProtocolError):
                        await sync("127.0.0.1", stub_port, items)
                    assert client._warm is None
                    await warm_and_cold(server.address, items, served_set)

                    # A BUSY shed fails the sync before WELCOME; same outcome.
                    items = churn(rng, items, 5, fresh)
                    with pytest.raises(ServerBusy):
                        await sync(*shedding.address, items)
                    assert client._warm is None
                    await warm_and_cold(server.address, items, served_set)
        finally:
            stub.close()
            await stub.wait_closed()

    run(scenario())


def test_a_server_announcing_sketch_mode_for_riblt_is_a_protocol_error():
    async def sketch_welcome(reader, writer):
        await reader.read(64)  # the HELLO
        welcome = pack_uvarints(PROTOCOL_VERSION, SyncMode.SKETCH, 2, 64)
        writer.write(encode_frame(FrameType.WELCOME, welcome))
        await writer.drain()
        await reader.read(64)
        writer.close()

    async def scenario():
        stub = await asyncio.start_server(sketch_welcome, "127.0.0.1", 0)
        try:
            port = stub.sockets[0].getsockname()[1]
            with pytest.raises(ProtocolError, match="SKETCH"):
                await sync("127.0.0.1", port, make_items(random.Random(2), 50))
        finally:
            stub.close()
            await stub.wait_closed()

    run(scenario())


def test_two_worker_cluster_resync_matches_cold():
    from repro.cluster import ClusterConfig, ClusterSupervisor

    rng = random.Random(11)
    pool = make_items(rng, 700, size=16)
    served, fresh = pool[:500], pool[500:]
    served_set = set(served)
    config = ClusterConfig(num_workers=2, fsync=False, restart_backoff=0.05)

    async def scenario():
        async with ClusterSupervisor(served, num_shards=4, config=config) as sup:
            items = served[8:] + [fresh.pop() for _ in range(8)]
            first = await warm_and_cold(sup.entry_address, items, served_set)
            items = churn(rng, items, 6, fresh)
            entry = await warm_and_cold(sup.entry_address, items, served_set)
            # Both workers' sessions shared the one patched entry.
            assert entry.encoders is first.encoders

    run(scenario())


def test_threads_syncing_at_once_never_share_an_entry():
    """Several threads, each with its own event loop, sync different sets
    against one server; a lost update on the slot (two syncs patching one
    entry) would corrupt a difference."""
    import sys
    import threading

    from repro.service import sync_once

    rng = random.Random(13)
    pool = make_items(rng, 1200)
    served, fresh = pool[:400], pool[400:]
    served_set = set(served)
    loop = asyncio.new_event_loop()
    server = ReconciliationServer(served, num_shards=4)
    host, port = loop.run_until_complete(server.start())
    serving = threading.Thread(target=loop.run_forever, daemon=True)
    serving.start()
    workloads = [
        [churn(rng, served[k:], 3, fresh) for _ in range(6)] for k in range(1, 6)
    ]
    failures = []

    def worker(sets):
        try:
            for items in sets:
                result = sync_once(host, port, items)
                truth = (served_set - set(items), set(items) - served_set)
                if (result.only_in_server, result.only_in_client) != truth:
                    failures.append("wrong difference")
        except Exception as exc:  # reported through the assertion below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in workloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SYNC_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(SYNC_TIMEOUT)
        loop.call_soon_threadsafe(loop.stop)
        serving.join(timeout=SYNC_TIMEOUT)
        loop.close()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert_cells_match_fresh(client._warm)
