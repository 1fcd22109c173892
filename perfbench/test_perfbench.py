"""Smoke tests of the benchmark itself: a tiny pass per workload, the corpus
stream against the acceptance generator, the output checks and the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(ROOT), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _tiny_pass(items, deadline_s=run.DEADLINE_S["examples"]):
    import signal

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        result = run.Pass(deadline_s, run.KERNELS["examples"])
        run.run_pass(items, random.Random(0), workloads.Checker(), result)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result


def test_stream_matches_acceptance_generator():
    from ratmap.report import parse_map
    from tests.test_acceptance import _random_exact_map

    rng = random.Random(workloads.CORPUS_SEED)
    stream = workloads.exact_map_stream()
    for _ in range(workloads.CORPUS_SIZE + 2):
        expected = _random_exact_map(rng)
        got = parse_map(next(stream))
        assert got.p.coeffs == expected.p.coeffs
        assert got.q.coeffs == expected.q.coeffs


def test_decimal_twin_is_floating_with_the_same_values():
    from ratmap.report import parse_map

    doc = {"numerator": ["1", "-2+1i", "3i", "-1/2"], "denominator": ["-4-2i"]}
    twin = workloads.decimal_twin(doc)
    assert twin["numerator"] == ["1.0", "-2.0+1.0i", "0.0+3.0i", "-0.5"]
    exact, floating = parse_map(doc), parse_map(twin)
    assert not floating.is_exact
    assert [complex(c) for c in exact.p.coeffs] == list(floating.p.coeffs)
    assert [complex(c) for c in exact.q.coeffs] == list(floating.q.coeffs)


def test_examples_pass_checks_every_report():
    items = workloads.build_items("examples")[:2]
    result = _tiny_pass(items)
    assert result.ok == 2 and not result.failures


def test_corpus_exact_counts_hangs_and_charges_the_deadline():
    items = {i.label: i for i in workloads.build_items("corpus-exact")}
    # map000 hangs today and map002 gives a report in well under a second
    result = _tiny_pass([items["map000"], items["map002"]], deadline_s=1.0)
    assert result.ok == 1 and result.failures == {"timeout": 1}
    assert result.timed_out == {"map000"}
    assert max(result.charges) >= 1.0


def test_corpus_float_records_crashes_as_failures():
    items = {i.label: i for i in workloads.build_items("corpus-float")}
    result = _tiny_pass([items["map000"], items["map002"]])
    assert result.ok == 1
    failed = [c for c in result.charges if c >= run.DEADLINE_S["corpus-float"]]
    assert len(failed) == 1  # a fast crash is charged the full deadline on top
    assert sum(result.failures.values()) == 1


def test_render_pass_checks_the_image(tmp_path):
    items = workloads.build_items("render", workdir=str(tmp_path))
    chebyshev = [i for i in items if i.label == "chebyshev"]
    chebyshev[0].prepare()
    result = _tiny_pass(chebyshev * 2, deadline_s=run.DEADLINE_S["render"])
    assert result.ok == 2 and not result.failures


def test_checker_flags_changed_bytes_and_wrong_facts():
    item = workloads.build_items("examples")[0]
    out = item.call()
    checker = workloads.Checker()
    assert checker.check(item, out) == []
    assert checker.check(item, out) == []
    changed = workloads.Outputs(out.report_bytes.replace(b'"ratmap"', b'"ratmap" '), out.text)
    assert checker.check(item, changed) == ["repeat-bytes"]
    data = json.loads(out.report_bytes)
    data["critical_divisor_degree"] += 1
    data["algebra"]["julia"]["quotient_normal_text"] = "C(T)"
    wrong = workloads.Outputs(json.dumps(data).encode(), out.text)
    assert workloads.Checker().check(item, wrong) == ["critical-divisor", "worked-facts"]


def test_tracer_patches_direct_imports_and_restores_them():
    import ratmap.atlas
    import ratmap.dynamics
    import ratmap.report

    original = ratmap.dynamics.orbit_fate
    t = tracer.Tracer()
    t.install()
    try:
        assert ratmap.atlas.orbit_fate is ratmap.dynamics.orbit_fate is not original
        assert ratmap.report.orbit_fate is ratmap.dynamics.orbit_fate
        workloads.build_items("examples")[0].call()
    finally:
        t.uninstall()
    assert ratmap.atlas.orbit_fate is original and ratmap.report.orbit_fate is original
    metrics = t.metrics(1, 0.0)
    assert set(metrics) == set(tracer.metric_units())
    assert metrics["dynamics.orbit_fate_calls"] > 0
    assert metrics["report.run_analysis_s"] >= metrics["dynamics.periodic_cycles_s"] > 0
    assert metrics["trace.missing_layers"] == 0


def test_tracer_reports_a_missing_patch_point(monkeypatch):
    points = tracer.SPAN_POINTS + (("gone.layer", "ratmap.report", "no_such_function"),
                                   ("gone.module", "ratmap.no_such_module", "f"))
    monkeypatch.setattr(tracer, "SPAN_POINTS", points)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert len(t.missing) == 2
    assert t.metrics(1, 0.0)["trace.missing_layers"] == 2


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "examples", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 10
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "examples", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
