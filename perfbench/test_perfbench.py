"""Self-test of the benchmark: each workload at a tiny size.

Run with the package sources on the path, as the suite runs:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "reference"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = _result(_run(workload, 0))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_traced_run_emits_every_layer_metric_and_known_defect_fails():
    result = _result(_run("cli-files", 1))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.outside_s"] >= 0
    assert metrics["cli.solve.self_s"] > 0
    # the r=3 rule-backed rxn file still dies in min_cover_exact; it counts
    # as a failed operation and stays in the corpus
    assert metrics["multipartite.min_cover.fail"] >= 1
    assert result["failed"] >= 1
    assert metrics["failed_frac"] == result["failed"] / result["attempted"]


def test_corrupted_certificate_counts_as_failed_operation(monkeypatch):
    import workloads
    from monopart import tightpaths

    solve = tightpaths.split_into_two_mono

    def swapped_colours(col, path):
        p1, c1, p2, c2 = solve(col, path)
        return p1, c2, p2, c1

    monkeypatch.setattr(tightpaths, "split_into_two_mono", swapped_colours)
    corpus = workloads.build("random-large", 3, tiny=True)
    try:
        result = workloads.run_pass(corpus)
    finally:
        corpus.close()
    h3 = sum(1 for inst in corpus.instances if inst.family == "h3")
    assert h3 >= 1
    assert result.attempted == len(corpus.instances)
    assert result.failed == h3
    assert result.incorrect == h3


def test_time_metrics_follow_the_program_not_the_reference(monkeypatch):
    import run
    import workloads
    from monopart import tightpaths

    span = tightpaths.spanning_bicoloured_path

    def slowed(col):
        t_end = time.thread_time() + 0.004
        while time.thread_time() < t_end:
            pass
        return span(col)

    monkeypatch.setattr(tightpaths, "spanning_bicoloured_path", slowed)
    corpus = workloads.build("random-large", 3, tiny=True)
    reference = workloads.build("random-large", 3, tiny=True, m=workloads.package(workloads.REFERENCE))
    try:
        results = [workloads.run_pass(corpus, reference=reference, pass_no=p) for p in range(3)]
    finally:
        corpus.close()
        reference.close()
    assert all(r.failed == 0 for r in results)
    ratios = run._family_ratios(corpus, results)
    assert ratios["h3_s"] > 2
    assert 0.5 < ratios["kn3_s"] < 2


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("random-large", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
