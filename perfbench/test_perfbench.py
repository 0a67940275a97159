"""The benchmark's own tests: each check trips on the corrupted output built
to trip it, and a tiny run of every workload prints every declared metric.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import repro  # noqa: E402
from repro.sim import execute  # noqa: E402
from repro.sim.ops import GateOp  # noqa: E402

from perfbench.checks import (  # noqa: E402
    gate_order_problems,
    load_reference_execute,
    paper_property_problems,
    physics_problems,
    report_problems,
)


@pytest.fixture(scope="module")
def program():
    return repro.compile("QFT_n16", "eml?capacity=4&modules=8").program


def corrupted(program, operations):
    return SimpleNamespace(circuit=program.circuit, operations=operations)


def test_clean_program_passes_order_and_reference(program):
    assert gate_order_problems(program) == []
    reference = load_reference_execute(ROOT)(program)
    assert report_problems(execute(program), reference, "cell") == []


def test_dropped_gate_is_rejected(program):
    ops = list(program.operations)
    dropped = next(i for i, op in enumerate(ops) if isinstance(op, GateOp))
    del ops[dropped]
    assert gate_order_problems(corrupted(program, ops))


def test_swapped_gates_of_one_qubit_are_rejected(program):
    ops = list(program.operations)
    gates = [i for i, op in enumerate(ops) if isinstance(op, GateOp)]
    first = gates[0]
    qubit = ops[first].gate.qubits[0]
    second = next(i for i in gates[1:] if qubit in ops[i].gate.qubits)
    ops[first], ops[second] = ops[second], ops[first]
    problems = gate_order_problems(corrupted(program, ops))
    assert problems and "after gate" in problems[0]


def test_tampered_report_field_is_rejected(program):
    report = execute(program)
    reference = load_reference_execute(ROOT)(program)
    tampered = replace(report, makespan_us=report.makespan_us + 1.0)
    problems = report_problems(tampered, reference, "cell")
    assert len(problems) == 1 and "makespan_us" in problems[0]
    # compile_time_s is run-dependent and never compared.
    assert report_problems(replace(report, compile_time_s=9.0), reference, "cell") == []


def arms(program):
    specs = (
        "table1",
        "perfect-gate",
        "perfect-shuttle",
        "table1?heating_rate=0.0005",
        "table1?heating_rate=0.002",
        "table1?heating_rate=0.005",
    )
    params = {spec: repro.resolve_physics(spec) for spec in specs}
    reports = {spec: execute(program, value) for spec, value in params.items()}
    return reports, params


def test_heating_arm_out_of_order_is_rejected(program):
    reports, params = arms(program)
    assert physics_problems(reports, params) == []
    low, high = "table1?heating_rate=0.0005", "table1?heating_rate=0.005"
    reports[low], reports[high] = reports[high], reports[low]
    problems = physics_problems(reports, params)
    assert any(problem.startswith("heating_rate") for problem in problems)


def test_changed_makespan_under_equal_durations_is_rejected(program):
    reports, params = arms(program)
    shifted = reports["perfect-gate"]
    reports["perfect-gate"] = replace(shifted, makespan_us=shifted.makespan_us * 2)
    assert any("makespan" in problem for problem in physics_problems(reports, params))


def test_paper_property_is_rejected_when_a_baseline_wins():
    totals = {("small", "muss-ti"): 192, ("small", "dai"): 242, ("small", "murali"): 362}
    assert paper_property_problems(totals) == []
    totals[("small", "dai")] = 192
    assert paper_property_problems(totals) == ["small: MUSS-TI 192 shuttles, not below dai 192"]


def test_reprice_passes_keep_the_packed_records():
    from perfbench.harness import Tracer
    from perfbench.workloads import TINY_REPRICE_SCHEDULES, RepriceWorkload

    workload = RepriceWorkload(
        TINY_REPRICE_SCHEDULES, 7, load_reference_execute(ROOT), Tracer(enabled=False)
    )
    workload.setup()
    assert workload.setup_problems() == []
    for traced in (False, True):
        result = workload.run_pass(traced)
        assert result.failed == 0 and result.attempted == len(TINY_REPRICE_SCHEDULES)
    for cell in TINY_REPRICE_SCHEDULES:
        packed = getattr(workload.programs[cell.key], "packed_view", None)
        # MUSS-TI schedules come from the array core and must still be
        # replayed and priced from their packed records.
        assert (packed is not None) == (cell.compiler == "muss-ti")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in declared()["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = declared()["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_benchmark(
        tmp_path, "--workload", "scale-compile", "--seed", "1", "--seconds", "1"
    )
    assert done.returncode != 0
    assert done.stdout == ""
