"""Self-test of the benchmark: every workload at a tiny size.

Runs under pytest from the repository root (``python -m pytest
perfbench``).  Checks the output contract against BENCHMARK.json, the
per-layer accounting, and that wrong answers are caught.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro.cache  # noqa: E402
from repro.rewrite.multi_view import tpi_rewrite  # noqa: E402
from repro.rewrite.single_view import probabilistic_tp_plan  # noqa: E402

from inputs import PERSONS  # noqa: E402
from layers import NullProbe, TracedProbe  # noqa: E402
from measure import FLOAT_REL_TOL, SpeedGauge, compare, run_loop  # noqa: E402
from workloads import WORKLOADS, ViewCache  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    stdout, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    assert f"failed_share 0/{result['attempted']} = 0" in stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_fit_in_op_wall_time(name):
    probe = TracedProbe()
    workload = WORKLOADS[name](PERSONS["tiny"][name], 3, probe)
    workload.setup()
    workload.prepare_oracles()
    with probe.decisions():
        loop = run_loop(workload, 0.3, SpeedGauge(), probe)
    workload.close()
    assert loop.failed == 0 and probe.ops
    for op in probe.ops:
        assert sum(op["self"].values()) <= op["wall"] + 1e-9
    # The decision wrappers are gone again.
    assert repro.cache.probabilistic_tp_plan is probabilistic_tp_plan
    assert repro.cache.tpi_rewrite is tpi_rewrite


def _corrupt(workload, kind, corrupt):
    honest = workload.ops

    def ops():
        for op in honest():
            if op.kind == kind:
                op = dataclasses.replace(op, run=lambda run=op.run: corrupt(run()))
            yield op

    workload.ops = ops


def _view_cache():
    workload = ViewCache(PERSONS["tiny"]["view_cache"], 3, NullProbe())
    workload.setup()
    workload.prepare_oracles()
    return workload


def test_injected_wrong_answer_counts_as_failure():
    workload = _view_cache()
    _corrupt(
        workload,
        "direct_cold",
        lambda answer: {node: p / 2 for node, p in answer.items()},
    )
    loop = run_loop(workload, 0.3, SpeedGauge())
    assert loop.failed >= 1
    assert loop.samples["direct_cold"] == []
    assert all(reason.startswith("direct_cold: Pr(") for reason in loop.reasons)
    assert loop.samples["tp_cold"] and loop.samples["tpi"]


def test_dropped_answer_is_a_possibility_flip():
    workload = _view_cache()

    def drop_one(result):
        first = next(iter(result.answer))
        return dataclasses.replace(
            result, answer={n: p for n, p in result.answer.items() if n != first}
        )

    _corrupt(workload, "tp_cold", drop_one)
    loop = run_loop(workload, 0.3, SpeedGauge())
    assert loop.failed >= 1 and loop.samples["tp_cold"] == []
    assert all("possibility flip" in reason for reason in loop.reasons)


def test_answer_from_an_undeclared_source_fails():
    workload = _view_cache()
    direct = repro.cache.AnswerSource.DIRECT
    _corrupt(workload, "tpi", lambda result: dataclasses.replace(result, source=direct))
    loop = run_loop(workload, 0.3, SpeedGauge())
    assert loop.failed >= 1 and loop.samples["tpi"] == []
    assert all("declared MULTI_VIEW" in reason for reason in loop.reasons)


def test_float_answers_are_held_to_relative_error():
    half = Fraction(1, 2)
    assert compare({1: 0.5 * (1 + FLOAT_REL_TOL / 2)}, {1: half}, FLOAT_REL_TOL) is None
    assert compare({1: 0.5 * (1 + 2 * FLOAT_REL_TOL)}, {1: half}, FLOAT_REL_TOL)
    tiny = Fraction(1, 2**1200)  # underflows to 0.0 as a float
    assert "possibility flip" in compare({}, {1: tiny}, FLOAT_REL_TOL)
    assert compare({1: 0.0}, {1: tiny}, FLOAT_REL_TOL) is not None
