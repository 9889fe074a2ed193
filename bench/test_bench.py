"""Smoke tests for the benchmark: ``PYTHONPATH=src python -m pytest -q bench``.

Runs every workload once untraced and once traced at ``--smoke`` size,
then checks the result files against ``BENCHMARK.json`` and the compare
tool against synthetic regressions.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    out = {}
    for trace in (0, 1):
        path = tmp / f"trace{trace}.json"
        proc = _run("--smoke", "--trace", str(trace), "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        out[trace] = json.loads(path.read_text())
    out["dir"] = tmp
    return out


def test_metric_names_and_counts():
    e2e, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in e2e)} in e2e


def test_every_declared_metric_appears_with_its_unit(results):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        workloads = results[trace]["workloads"]
        assert set(workloads) == {w["name"] for w in SPEC["workloads"]}
        for rec in workloads.values():
            assert rec["correct"] and rec["attempted"] >= 1
            assert {n: m["unit"] for n, m in rec["metrics"].items()} == \
                {m["name"]: m["unit"] for m in declared}
    for rec in results[0]["workloads"].values():
        assert all(m["value"] > 0 for m in rec["metrics"].values())


def test_machine_block(results):
    block = results[0]["machine"]
    assert set(block) == {"cpus", "available_cpus", "python", "numpy",
                          "scipy"}
    assert 1 <= block["available_cpus"] <= block["cpus"]


def test_each_workload_reaches_its_layers(results):
    workloads = results[1]["workloads"]

    def value(workload, metric):
        return workloads[workload]["metrics"][metric]["value"]

    assert value("mimo-sweep", "core.cnf.solve.calls") > 0
    assert value("mimo-sweep", "core.decomposition.calls") == 0
    assert value("siso-sweep", "core.decomposition.per_link") == 22
    assert value("siso-sweep", "core.cnf.solve.calls") == 0
    assert value("mimo-sweep-par", "exec.chunk_size") > 0
    assert value("mimo-sweep-par", "exec.sweep.wait_frac") > 0
    assert value("mimo-sweep", "exec.sweep.wait_frac") == 0
    assert value("mimo-sweep-par", "exec.cache.hit_frac") == 1.0
    assert value("service-saturated", "service.frames.processed") > 0
    assert value("service-saturated",
                 "runtime.spectral.fft_points_per_sample") > 0
    assert value("fleet-storm", "supervision.step.calls") > 0
    assert value("fleet-storm", "fleet.reroute.timeline.calls") > 0


def test_self_times_fit_inside_the_traced_lanes(results):
    for name, rec in results[1]["workloads"].items():
        metrics = rec["metrics"]
        wall = metrics["trace.wall_s"]["value"]
        lanes = metrics["trace.lane_s"]["value"]
        timed = [row for row in rec["layers"].values() if "self_s" in row]
        assert all(row["self_s"] >= 0 for row in timed), name
        assert sum(row["self_s"] for row in timed) <= lanes * (1 + 1e-9)
        if name != "mimo-sweep-par":
            assert lanes == wall, name
        shares = sum(row["share"] for row in timed)
        assert shares + metrics["trace.unattributed_share"]["value"] == \
            pytest.approx(1.0, abs=0.02), name


def _scaled(base, metric, factor):
    data = copy.deepcopy(base)
    for rec in data["workloads"].values():
        rec["metrics"][metric]["value"] *= factor
    return data


@pytest.mark.parametrize("metric, factor, flagged", [
    ("wall_s", 2.0, True),
    ("work_per_s", 0.5, True),
    ("work_per_s", 2.0, False),
])
def test_compare_flags_regressions(results, metric, factor, flagged):
    base = copy.deepcopy(results[0])
    for rec in base["workloads"].values():
        for m in rec["metrics"].values():
            m["spread"] = 0.0
    a, b = results["dir"] / "a.json", results["dir"] / f"b-{metric}.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_scaled(base, metric, factor)))
    proc = _run("--compare", str(a), str(b))
    assert proc.returncode == (1 if flagged else 0), proc.stdout
    verdicts = {line.split()[-1] for line in proc.stdout.splitlines()[1:]
                if line.split()[1] == metric}
    assert verdicts == ({"worse"} if flagged else {"better"})


def test_compare_same_file_is_clean(results):
    path = results["dir"] / "self.json"
    path.write_text(json.dumps(results[0]))
    proc = _run("--compare", str(path), str(path))
    assert proc.returncode == 0
    assert "worse" not in proc.stdout


@pytest.mark.parametrize("change, samples_b, verdict", [
    (2.0, [1.5, 2.5], "worse"),         # past bound + width
    (1.5, [0.9, 2.0], "unresolved"),    # inside the band, samples overlap
    (1.5, [1.4, 1.6], "worse"),         # inside the band, samples apart
    (1.1, [0.9, 1.3], "unresolved"),    # within the bound, spread wider
    (0.5, [0.4, 0.6], "better"),
])
def test_judge_with_a_wide_spread(change, samples_b, verdict):
    sys.path.insert(0, str(BENCH))
    try:
        from run import judge
    finally:
        sys.path.remove(str(BENCH))
    assert judge(1.0, change, "lower", 0.2, width=0.5,
                 samples=([0.8, 1.2], samples_b)) == verdict


def _compare_edited(results, name, edit):
    a, b = results["dir"] / "a.json", results["dir"] / f"b-{name}.json"
    a.write_text(json.dumps(results[0]))
    data = copy.deepcopy(results[0])
    edit(data)
    b.write_text(json.dumps(data))
    return _run("--compare", str(a), str(b))


def test_compare_flags_an_incorrect_set(results):
    def edit(data):
        data["workloads"]["fleet-storm"]["correct"] = False
    proc = _compare_edited(results, "incorrect", edit)
    assert proc.returncode == 1
    assert "fleet-storm" in proc.stdout and "incorrect" in proc.stdout


def test_compare_flags_a_missing_workload(results):
    def edit(data):
        del data["workloads"]["siso-sweep"]
    proc = _compare_edited(results, "missing", edit)
    assert proc.returncode == 1
    assert "missing" in proc.stdout


def test_compare_refuses_different_settings(results):
    def edit(data):
        data["seconds"] += 1
    proc = _compare_edited(results, "settings", edit)
    assert proc.returncode == 2
    assert "seconds" in proc.stderr


def test_no_program_source_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "fleet-storm", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
