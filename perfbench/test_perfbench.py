"""Smoke test of the benchmark itself, on minimal corpora.

    python3 -m pytest perfbench

It checks that every workload runs, that every metric is reported with its
unit, that the exact counts repeat for a seed, and that the correctness
checks fire on tampered outputs.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run(name: str, trace: bool) -> dict:
    return harness.run(name, SEED, 0, trace, 0.0, small=True)


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (run(name, True), run(name, True)) for name in WORKLOADS}


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics(name):
    res = run(name, False)
    assert res["failed"] == 0, res["failures"]
    assert set(res["metrics"]) == set(harness.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values()), res["metrics"]
    assert res["environment"]["seed"] == SEED


def test_per_layer_metrics(traced_twice):
    for name, (res, _again) in traced_twice.items():
        assert res["failed"] == 0, res["failures"]
        assert set(res["metrics"]) == set(harness.PER_LAYER), name
        assert res["metrics"]["homotopy_engine.hom_calls"] > 0, name


def test_exact_counts_repeat(traced_twice):
    for name, (a, b) in traced_twice.items():
        for key in harness.EXACT_COUNTS:
            assert a["metrics"][key] == b["metrics"][key], (name, key)
        assert a["digest_seed_round0"] == b["digest_seed_round0"], name


def _audited_item(kind: str):
    wl = WORKLOADS["audited-mixed"](small=True)
    state = wl.prepare(SEED)
    item = next(it for it in state.round(wl, 0) if it.kind == kind)
    assert wl.run_item(state, item).failure is None
    return wl, state, item


def test_tampered_counters_fail_the_audit():
    wl, state, item = _audited_item("closed")

    def tamper(text):
        lines = text.splitlines()
        ev = json.loads(lines[-1])
        ev["c"][0] += 1
        lines[-1] = json.dumps(ev, sort_keys=True, separators=(",", ":"))
        return "\n".join(lines) + "\n"

    failure = wl.run_item(state, item, tamper=tamper).failure
    assert failure is not None and failure.startswith("AuditFailure"), \
        failure


def test_non_canonical_trace_fails_the_round_trip():
    wl, state, item = _audited_item("closed")
    out = wl.run_item(state, item,
                      tamper=lambda text: text.replace(",", ", ", 1))
    assert out.failure == "parse -> serialize is not byte-identical"


def test_wrong_read_off_fails():
    wl, state, item = _audited_item("doubled_back")
    item.expect = {"class": "peripheral"}
    assert wl.run_item(state, item).failure.startswith("read off")


def test_reference_digest_mismatch_fails(monkeypatch, tmp_path):
    digests = tmp_path / "digests.json"
    digests.write_text("{}")
    monkeypatch.setattr(harness, "DIGESTS", digests)
    wl = WORKLOADS["oracle-small"](small=True)
    _digest, recorded, _items, failures = harness.reference_check(wl)
    assert recorded is None
    assert any("reference digest" in f for f in failures)


def test_command_prints_result_line():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-small",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    line = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        harness.END_TO_END


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audited-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert "correct" not in p.stdout
