"""Tests of the benchmark harness: self-time arithmetic, the golden checker,
and a one-chain smoke run per workload."""

import json
from functools import partial
from pathlib import Path

import pytest

from perfbench import golden, workloads
from perfbench.run import check_item, checker_process, import_sepack, layer_metrics, run_pass
from perfbench.tracer import PassTrace, Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]

# a cheap chain of each kind the workloads hold, by the id of its first item
SMOKE = [
    ("catalog-audit", "gen --name P1 --window 12 --out P1-L12.json"),
    ("catalog-audit", "construct-diagonal --d 4 --depth 2 --out diagonal-d4-depth2-audit.json"),
    ("certify-oracle", "gen --name J1 --window 14 --out J1-L14.json"),
    ("certify-oracle", "contact-opt --n 1 --d 2 --oracle --out oracle-d2-n1.json"),
]
# per-layer metrics the harness adds outside layer_metrics
TRACE_EXTRAS = {
    "separability.directions", "trace.wall_s", "trace.overhead_s",
    "setup.import_s", "catalog.load_catalog.s",
}


@pytest.fixture(scope="module")
def sepack():
    return import_sepack()


@pytest.fixture(scope="module")
def records():
    return golden.load()["workloads"]


def _chain(workload, first_item):
    return next(c for c in workloads.chains(workload) if workloads.item_id(c[0]) == first_item)


def test_item_ids_are_unique_within_each_workload():
    for workload in workloads.WORKLOADS:
        ids = [workloads.item_id(argv) for chain in workloads.chains(workload) for argv in chain]
        assert len(ids) == len(set(ids))


def test_self_time_subtracts_children_and_grandchildren_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "a"),
        Span("child", 1.0, 4.0, 0, "a"),
        Span("grandchild", 2.0, 3.0, 1, "a"),
        Span("child", 5.0, 7.0, 0, "a"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    trace = PassTrace(spans, [])
    assert trace.s("child") == pytest.approx(5.0)
    assert trace.self_s("child") == pytest.approx(4.0)
    assert trace.total_self_s() == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),
        Span("c", 9.0, 12.0, 0, None),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_inclusive_time_skips_calls_nested_in_the_same_name():
    spans = [
        Span("gen", 0.0, 10.0, -1, None),
        Span("gen", 2.0, 6.0, 0, None),
        Span("gen", 3.0, 4.0, 1, None),
    ]
    trace = PassTrace(spans, [])
    assert trace.s("gen") == pytest.approx(10.0)
    assert trace.self_s("gen") == pytest.approx(10.0)
    assert trace.calls("gen") == 3


def test_checker_accepts_golden_and_flags_corrupted_outputs(sepack, records, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = records["catalog-audit"]["items"]
    chain = _chain(*SMOKE[0])
    assert run_pass(sepack, [chain], partial(check_item, expected)).failures == []

    verify = chain[1]
    record = expected[workloads.item_id(verify)]
    report_path = Path(verify[verify.index("--report") + 1])
    report = json.loads(report_path.read_text())

    changed_sep = json.loads(json.dumps(report))
    changed_sep["separability"]["sep"] = "311/312"
    assert golden.mismatch(record, {"rc": 0, "report": golden.report_summary(changed_sep)}) == [
        "report.sep"
    ]

    one_edge_less = json.loads(json.dumps(report))
    one_edge_less["contact_count"] -= 1
    one_edge_less["separability"]["total_edges"] -= 1
    one_edge_less["separability"]["clean_edges"] -= 1
    wrong = golden.mismatch(record, {"rc": 0, "report": golden.report_summary(one_edge_less)})
    assert {"report.contact_count", "report.total_edges", "report.clean_edges"} <= set(wrong)

    packing = Path(chain[0][-1])
    packing.write_bytes(packing.read_bytes().replace(b"-12.0", b"-12.5", 1))
    gen_record = golden.summarize(chain[0], 0, "")
    assert golden.mismatch(expected[workloads.item_id(chain[0])], gen_record) == ["sha256"]

    assert golden.mismatch(record, {"rc": 2}) != []
    assert golden.mismatch(None, record) == ["<no golden record>"]


def test_tangent_directions_of_the_square_grid(sepack):
    p = sepack.generate_named("P1", 6.0)
    graph = sepack.build_contact_graph(p)
    assert golden.tangent_directions(p.centers, graph.edges) == 2


@pytest.mark.parametrize("workload, first_item", SMOKE)
def test_one_chain_smoke_run(workload, first_item, sepack, records, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chain = _chain(workload, first_item)
    with checker_process(workload) as check:
        result = run_pass(sepack, [chain], check)
    assert result.failures == []
    assert result.attempted == len(chain)
    assert 0.0 < result.gen_s <= result.wall_s


def test_checker_process_flags_a_corrupted_file(sepack, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chain = _chain(*SMOKE[0])
    with checker_process("catalog-audit") as check:
        assert run_pass(sepack, [chain[:1]], check).failures == []
        packing = Path(chain[0][-1])
        packing.write_bytes(packing.read_bytes().replace(b"-12.0", b"-12.5", 1))
        assert check(chain[0], 0, "") == ["sha256"]


def test_traced_smoke_run_reports_the_declared_layer_metrics(sepack, records, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chain = _chain(*SMOKE[0])
    tracer = Tracer()
    original_main = sepack.cli.main
    with tracer.installed():
        assert sepack.cli.main is not original_main
        assert sepack.packio.build_contact_graph is sepack.contact.build_contact_graph
        result = run_pass(sepack, [chain], partial(check_item, records["catalog-audit"]["items"]), tracer)
    assert sepack.cli.main is original_main
    assert result.failures == []

    trace = PassTrace(tracer.spans, tracer.kdtree_builds)
    assert 0.0 < trace.total_self_s() <= result.wall_s
    verify_items = {workloads.item_id(argv) for argv in chain if argv[0] == "verify"}
    metrics = layer_metrics(trace, verify_items)
    # the counts follow from the raw spans, whatever their values in a given version
    graph_spans = [s for s in tracer.spans if s.name == "contact.build_contact_graph"]
    in_verify = sum(1 for s in graph_spans if s.item in verify_items)
    assert metrics["contact.graph_builds_per_verify"][0] == in_verify / len(verify_items)
    assert metrics["contact.build_contact_graph.calls"][0] == len(graph_spans)
    # every graph in the chain is built on the same packing
    contacts = records["catalog-audit"]["items"][workloads.item_id(chain[1])]["report"]["contact_count"]
    assert metrics["contact.edges"][0] == len(graph_spans) * contacts
    trees_in_verify = sum(1 for item, _ in tracer.kdtree_builds if item in verify_items)
    assert metrics["core.kdtree_builds_per_verify"][0] == trees_in_verify / len(verify_items)
    assert metrics["core.kdtree_builds"][0] == len(tracer.kdtree_builds)

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) | TRACE_EXTRAS == declared
