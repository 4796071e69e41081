import pytest

from bench.trace import Span, SpanRecorder, Tracer, ledger, self_ms_name, self_times


def _tree():
    """root [0,100) > A [10,60) > B [20,30); root > C [70,80); stray [200,210)."""
    return [
        Span("sync", 0, 100, parent=-1, iteration=0),
        Span("decoder", 10, 60, parent=0, iteration=0, counters={"decoder.recovered": 3}),
        Span("cellbank.walk", 20, 30, parent=1, iteration=0,
             counters={"cellbank.walk_calls": 1}),
        Span("hashing", 70, 80, parent=0, iteration=0, counters={"hashing.items": 5}),
        Span("hashing", 200, 210, parent=-1, iteration=-1, counters={"hashing.items": 9}),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [40, 40, 10, 10, 10]


def test_ledger_self_times_plus_unattributed_equal_wall():
    spans = _tree()
    book = ledger(spans, [0])
    layer_sum = sum(v for k, v in book.items() if k.endswith("self_ms"))
    assert book["wall_ms"] == pytest.approx(100 / 1e6)
    assert book["unattributed_ms"] == pytest.approx(40 / 1e6)
    assert layer_sum + book["unattributed_ms"] == pytest.approx(book["wall_ms"])
    assert book["decoder.self_ms"] == pytest.approx(40 / 1e6)
    # The stray span outside any iteration is left out.
    assert book["hashing.items"] == 5
    assert book["cellbank.walk_calls"] == 1


def test_ledger_averages_over_iterations():
    spans = _tree()
    second = [
        Span("sync", 300, 330, parent=-1, iteration=1),
        Span("hashing", 305, 315, parent=5, iteration=1, counters={"hashing.items": 7}),
    ]
    book = ledger(spans + second, [0, 1])
    assert book["hashing.items"] == 6
    assert book["wall_ms"] == pytest.approx(65 / 1e6)
    assert book["hashing.self_ms"] == pytest.approx(10 / 1e6)


def test_self_ms_names():
    assert self_ms_name("hashing") == "hashing.self_ms"
    assert self_ms_name("encoder.ingest") == "encoder.ingest_self_ms"


def test_recorder_links_parents_and_owns_outermost_counter():
    rec = SpanRecorder()
    rec.iteration = 4
    outer, owned_outer = rec.open("hashing", ("hashing.items",))
    inner, owned_inner = rec.open("hashing", ("hashing.items",))
    rec.close(inner, ("hashing.items",))
    rec.close(outer, ("hashing.items",))
    again, owned_again = rec.open("hashing", ("hashing.items",))
    rec.close(again, ("hashing.items",))
    assert owned_outer == ("hashing.items",)
    assert owned_inner == ()
    assert owned_again == ("hashing.items",)
    assert rec.spans[inner].parent == outer
    assert rec.spans[outer].parent == -1
    assert all(span.iteration == 4 for span in rec.spans)
    assert all(span.end >= span.start for span in rec.spans)


def test_recorder_rejects_out_of_order_close():
    rec = SpanRecorder()
    first, _ = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(first)


def test_recorder_writes_every_span(tmp_path):
    rec = SpanRecorder()
    index, _ = rec.open("sync")
    rec.close(index)
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and '"name": "sync"' in lines[0]


def _marked_sites():
    """(owner, attr) of every benchmark wrapper currently bound in repro."""
    import sys

    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append((name, attr))
            if isinstance(value, type):
                for key, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, "__wrapped_by_perfbench__", False):
                        found.append((f"{name}.{attr}", key))
    return found


def test_tracer_installs_and_restores_originals():
    import repro.core.cellbank as cellbank
    import repro.core.encoder as encoder
    import repro.service.shard as shard
    from repro.core.cellbank import CodedSymbolBank
    from repro.hashing.keyed import SipHasher

    originals = {
        "walk_in_encoder": encoder.scatter_walk_arrays,
        "walk_in_cellbank": cellbank.scatter_walk_arrays,
        "hash_items": shard.hash_items,
        "unpack": CodedSymbolBank.__dict__["unpack"],
        "batch": SipHasher.__dict__["hash64_batch"],
    }
    rec = SpanRecorder()
    tracer = Tracer(rec)
    assert _marked_sites() == []
    tracer.install()
    try:
        assert encoder.scatter_walk_arrays is not originals["walk_in_encoder"]
        assert cellbank.scatter_walk_arrays is not originals["walk_in_cellbank"]
        assert _marked_sites()
        hasher = SipHasher()
        shard.hash_items(hasher.hash64, [b"abcdefgh", b"bcdefghi"])
    finally:
        tracer.uninstall()
    assert [span.name for span in rec.spans] == ["hashing", "hashing"]
    assert rec.spans[0].counters == {"hashing.items": 2}
    assert rec.spans[1].counters == {}
    assert _marked_sites() == []
    assert encoder.scatter_walk_arrays is originals["walk_in_encoder"]
    assert cellbank.scatter_walk_arrays is originals["walk_in_cellbank"]
    assert shard.hash_items is originals["hash_items"]
    assert CodedSymbolBank.__dict__["unpack"] is originals["unpack"]
    assert SipHasher.__dict__["hash64_batch"] is originals["batch"]
    # Uninstalled wrappers record nothing: the program runs its originals.
    shard.hash_items(SipHasher().hash64, [b"abcdefgh"])
    assert len(rec.spans) == 2


def test_classmethod_wrapper_keeps_its_binding():
    from repro.core.cellbank import CodedSymbolBank
    from repro.core.symbols import SymbolCodec

    codec = SymbolCodec(8)
    bank = CodedSymbolBank()
    bank.append(5, 6, 1)
    blob = bank.pack(codec)
    rec = SpanRecorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        back = CodedSymbolBank.unpack(blob, codec)
    finally:
        tracer.uninstall()
    assert back.cells() == bank.cells()
    assert [span.name for span in rec.spans] == ["cellbank.unpack"]
