"""Smoke-size self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

It checks that every workload prints every declared metric with its unit,
that a corrupted reference fails the run, and that another seed changes
the inputs but not the metric names.  One more test keeps the defect the
correctness gate found reproducible until it is fixed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run as bench  # noqa: E402
from repro import Engine, ServeRequest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run(workload: str, seed: int, trace: int) -> dict:
    reply = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert reply.returncode == 0, reply.stderr[-2000:]
    return json.loads(reply.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_corrupted_reference_fails_the_run(monkeypatch, capsys):
    honest = inputs.reference

    def corrupted(content):
        factor = honest(content)
        return type(factor)(factor.scope, {k: v * 1.5 + 1.0 for k, v in factor.table.items()})

    monkeypatch.setattr(inputs, "reference", corrupted)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    code = bench.main(
        ["--workload", "fresh-chain", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


def test_another_seed_changes_inputs_not_metric_names():
    assert inputs.chain(random.Random(1), "x") != inputs.chain(random.Random(2), "x")
    assert inputs.library_pool(1) != inputs.library_pool(2)
    assert inputs.zipf_classes(1) != inputs.zipf_classes(2)
    streams = [inputs.ZipfTraffic(seed, inputs.zipf_classes(1)) for seed in (1, 2)]
    assert [streams[0].next()[:2] for _ in range(50)] != [streams[1].next()[:2] for _ in range(50)]
    names = [set(_run("fresh-chain", seed, trace=0)["metrics"]) for seed in (3, 4)]
    assert names[0] == names[1] == set(_declared("end_to_end"))


@pytest.mark.xfail(
    strict=True,
    reason="an IncrementalView fed ~115 chained one-cell updates on a 5x5 grid "
    "marginal drifts past Factor.equals' 1e-9 relative tolerance",
)
def test_chained_updates_on_one_view_stay_exact():
    """Chained one-cell updates of a library-kernels grid marginal, each
    answer checked against the benchmark's reference.  library-kernels
    sends no updates; zipf-mixed's chained chain updates stay exact."""
    rng, content = random.Random(31), inputs.library_pool(31)[0]
    with Engine() as engine:
        for _ in range(150):
            index, cell, value = inputs.random_cell_update(rng, content)
            request = ServeRequest(query=content.build(), options={"strategy": "insideout"})
            delta = inputs.delta_for(content, index, cell, value)
            result = engine.server.update_factors(request, [(index, delta)])
            content = content.updated(index, cell, value)
            assert inputs.reference(content).equals(result.factor, content.semiring)
