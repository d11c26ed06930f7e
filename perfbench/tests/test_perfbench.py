"""Self-tests of the benchmark: inputs, span arithmetic, gate and manifest.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import threading

import gate
import run
import spans
from spans import Recorder, Span, summarize
from workloads import REFERENCE_PATH, REFERENCE_POOL, WORKLOADS


def _prepare(tmp_path, name, seed, tag):
    workdir = tmp_path / tag
    workdir.mkdir()
    WORKLOADS[name].prepare(seed, workdir)
    return workdir


def test_dense_matrix_files_are_byte_identical_for_one_seed(tmp_path):
    a = _prepare(tmp_path, "sweep-dense400", 3, "a")
    b = _prepare(tmp_path, "sweep-dense400", 3, "b")
    c = _prepare(tmp_path, "sweep-dense400", 4, "c")
    for name in ("T.json", "S.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()
    payload = json.loads((a / "T.json").read_text())
    assert payload["dim"] == 400 and len(payload["entries"]) == 400


def test_spin_config_is_fixed_by_the_seed(tmp_path):
    a = _prepare(tmp_path, "sweep-spin401", 7, "a")
    b = _prepare(tmp_path, "sweep-spin401", 7, "b")
    grid_a = json.loads((a / "job.json").read_text())["sweep"]["grid"]
    grid_b = json.loads((b / "job.json").read_text())["sweep"]["grid"]
    assert grid_a == grid_b and sorted(grid_a) == [0.25, 0.5, 1.0, 1.5]


def test_self_time_on_a_nested_and_two_thread_trace():
    root = Span(0, "cli.main", 1, None, cpu0=0.0, cpu1=10.0)
    child = Span(1, "metrics.metric_spectral", 1, 0, cpu0=1.0, cpu1=7.0)
    grandchild = Span(2, "hilbert.to_eigenbasis", 1, 1, cpu0=2.0, cpu1=5.0)
    sibling = Span(3, "hilbert.to_eigenbasis", 1, 0, cpu0=8.0, cpu1=9.0)
    worker = Span(4, "metrics.metric_spectral", 2, None, cpu0=0.0, cpu1=6.0)
    worker_child = Span(5, "families.eval_g", 2, 4, cpu0=1.0, cpu1=2.5, work=4)
    # completion order: children close before their parents
    trace = [grandchild, child, sibling, worker_child, root, worker]
    summary = summarize(trace, busy_s=17.0)
    functions = summary["functions"]
    assert functions["cli.main"] == {"calls": 1, "self_s": 3.0, "work": 0}
    assert functions["metrics.metric_spectral"] == {"calls": 2, "self_s": 7.5, "work": 0}
    assert functions["hilbert.to_eigenbasis"] == {"calls": 2, "self_s": 4.0, "work": 0}
    assert functions["families.eval_g"] == {"calls": 1, "self_s": 1.5, "work": 4}
    layers = summary["layers"]
    assert (layers["cli"], layers["metrics"], layers["hilbert"], layers["families"]) == (3.0, 7.5, 4.0, 1.5)
    assert layers["dsf"] == layers["inequalities"] == 0.0
    assert summary["unattributed_s"] == 1.0
    assert math.isclose(sum(layers.values()) + summary["unattributed_s"], summary["busy_s"])


def test_recorder_keeps_one_parent_stack_per_thread():
    recorder = Recorder()
    inner = recorder.wrap("hilbert.inner", lambda: None)
    both_open = threading.Barrier(2)

    def outer_body():
        both_open.wait(timeout=5)
        inner()

    outer = recorder.wrap("cli.outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    outers = {s.id: s for s in recorder.spans if s.name == "cli.outer"}
    inners = [s for s in recorder.spans if s.name == "hilbert.inner"]
    assert len(outers) == len(inners) == 2
    assert all(s.parent is None for s in outers.values())
    for s in inners:
        assert outers[s.parent].thread == s.thread
    assert {s.thread for s in inners} == {t.ident for t in threads}


def test_traced_patches_every_namespace_and_restores_it():
    run.load_program()
    modules = [m for n, m in sys.modules.items() if n == "gibbsqfi" or n.startswith("gibbsqfi.")]
    originals = set(map(id, spans.public_functions().values()))
    before = {(id(m), a): v for m in modules for a, v in vars(m).items() if id(v) in originals}
    assert len(before) > len(originals)  # re-exported and imported names included
    with spans.traced(Recorder()):
        for m in modules:
            for a, v in vars(m).items():
                if (id(m), a) in before:
                    assert v.__wrapped__ is before[(id(m), a)]
    after = {(id(m), a): v for m in modules for a, v in vars(m).items() if (id(m), a) in before}
    assert all(after[k] is v for k, v in before.items())


REFERENCE = {
    "bkm|beta=1|oracle": 0.5,
    "bkm|beta=1|spectral": 0.5,
    "bkm|beta=1|dsf": 0.5,
    "bkm|beta=1|seriesA:6": 0.49,
}


def test_gate_accepts_the_reference_table():
    assert gate.check_table(0, dict(REFERENCE), REFERENCE) == []


def test_gate_flags_a_row_perturbed_by_1e_8():
    for key in REFERENCE:
        table = dict(REFERENCE)
        table[key] *= 1.0 + 1e-8
        problems = gate.check_table(0, table, REFERENCE)
        assert any("differs from reference" in p for p in problems), key


def test_gate_flags_a_failed_exit_disagreeing_routes_non_finite_and_missing_rows():
    assert gate.check_table(1, dict(REFERENCE), REFERENCE)
    table = {**REFERENCE, "bkm|beta=1|dsf": 0.5 * (1 + 1e-9)}
    assert any("routes disagree" in p for p in gate.check_table(0, table, table))
    table = {**REFERENCE, "bkm|beta=1|seriesA:6": float("nan")}
    assert any("non-finite" in p for p in gate.check_table(0, table, REFERENCE))
    table = {k: v for k, v in REFERENCE.items() if not k.endswith("oracle")}
    assert any("missing" in p for p in gate.check_table(0, table, REFERENCE))


def test_gate_flags_a_changed_verify_report():
    reference = {"checks": 24000, "failures": [], "gm_link_crossings": 80,
                 "gm_link_out_of_regime": 137, "passed": True, "seed": 0, "trials": 1000}
    assert gate.check_verify(0, dict(reference), reference) == []
    assert gate.check_verify(0, {**reference, "gm_link_crossings": 81}, reference)
    assert gate.check_verify(0, {**reference, "checks": 23999}, reference)
    assert gate.check_verify(1, dict(reference), reference)


def test_reference_covers_every_instance():
    reference = json.loads(REFERENCE_PATH.read_text())
    for workload in WORKLOADS.values():
        keys = {str(workload.instance(seed)) for seed in range(REFERENCE_POOL)}
        assert keys == set(reference[workload.name])


def test_manifest_matches_what_the_benchmark_reports():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()
