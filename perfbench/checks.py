"""Output checks.  Each returns a list of problems; empty means correct.

They run outside the timed region.  None of them calls
``repro.sim.verify``: the order check is written here, and report fields
are compared against ``reference_execute``, the frozen seed executor in
``tests/differential/reference.py``, which shares no replay or pricing
code with the program.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import asdict

from repro.sim.ops import FiberGateOp, GateOp


def load_reference_execute(root: str):
    """``reference_execute`` loaded by path, so ``tests`` need not be a
    package on ``sys.path``."""
    path = os.path.join(root, "tests", "differential", "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_execute


def gate_order_problems(program) -> list[str]:
    """Every circuit gate appears exactly once, as itself (same name,
    logical qubits and parameters), and each logical qubit meets its
    gates in circuit order."""
    gates = list(program.circuit)
    seen = bytearray(len(gates))
    last_index: dict[int, int] = {}
    for position, op in enumerate(program.operations):
        if op.__class__ is not GateOp and op.__class__ is not FiberGateOp:
            continue
        index = op.circuit_index
        if not 0 <= index < len(gates):
            return [f"op {position}: gate {op.gate} has no circuit index ({index})"]
        if seen[index]:
            return [f"op {position}: circuit gate #{index} appears twice"]
        if op.gate != gates[index]:
            return [
                f"op {position}: circuit gate #{index} is {gates[index]}, "
                f"program has {op.gate}"
            ]
        for qubit in op.gate.qubits:
            if last_index.get(qubit, -1) > index:
                return [
                    f"op {position}: qubit {qubit} meets gate #{index} after "
                    f"gate #{last_index[qubit]}"
                ]
            last_index[qubit] = index
        seen[index] = 1
    missing = len(gates) - sum(seen)
    if missing:
        return [f"{missing} circuit gates never appear, first #{seen.index(0)}"]
    return []


def report_fields(report) -> dict:
    """Every ``ExecutionReport`` field except the run-dependent
    ``compile_time_s``, with ``zone_heat`` keyed as in ``to_dict``."""
    fields = asdict(report) if not isinstance(report, dict) else dict(report)
    fields.pop("compile_time_s", None)
    fields.pop("schema_version", None)
    fields["zone_heat"] = {str(zone): heat for zone, heat in fields["zone_heat"].items()}
    return fields


def report_problems(actual, expected, label: str) -> list[str]:
    """Field-by-field equality of two reports (or report dicts)."""
    lhs, rhs = report_fields(actual), report_fields(expected)
    return [
        f"{label}: {name} is {lhs.get(name)!r}, expected {rhs.get(name)!r}"
        for name in sorted(set(lhs) | set(rhs))
        if lhs.get(name) != rhs.get(name)
    ]


def paper_property_problems(totals: dict[tuple[str, str], int]) -> list[str]:
    """At each Fig 6 scale MUSS-TI's total shuttles are below each
    baseline's total.  ``totals`` maps ``(scale, compiler)`` to shuttles."""
    problems = []
    for scale in sorted({scale for scale, _ in totals}):
        ours = totals[(scale, "muss-ti")]
        for (other_scale, compiler), theirs in sorted(totals.items()):
            if other_scale == scale and compiler != "muss-ti" and ours >= theirs:
                problems.append(
                    f"{scale}: MUSS-TI {ours} shuttles, not below {compiler} {theirs}"
                )
    return problems


#: (PhysicalParams field, +1 when fidelity rises with the field, -1 when
#: it falls, report count that must be non-zero for the channel to act).
SWEEPS = (
    ("heating_rate", -1, None),
    ("gate_decay_epsilon", -1, "two_qubit_gate_count"),
    ("fiber_gate_fidelity", +1, "fiber_gate_count"),
)

#: PhysicalParams fields that set op durations, hence the makespan.
DURATION_FIELDS = (
    "split_time_us",
    "merge_time_us",
    "chain_swap_time_us",
    "move_speed_um_per_us",
    "inter_zone_distance_um",
    "one_qubit_gate_time_us",
    "two_qubit_gate_time_us",
    "fiber_gate_time_us",
)


def duration_signature(params) -> tuple:
    return tuple(getattr(params, name) for name in DURATION_FIELDS)


def physics_problems(reports: dict, params: dict, base: str = "table1") -> list[str]:
    """Physics properties of one schedule priced under many arms.

    ``reports`` and ``params`` map arm labels (physics spec strings) to
    ``ExecutionReport`` and ``PhysicalParams``.  Checks: fidelity moves
    strictly with each swept field (or stays put when the program never
    uses that channel); ``perfect-gate`` and ``perfect-shuttle`` score no
    lower than ``base``; arms with equal durations have equal makespans.
    """
    problems = []
    table1 = reports[base]
    for field, direction, count in SWEEPS:
        arms = [base] + [label for label in reports if label.startswith(f"{base}?{field}=")]
        arms.sort(key=lambda label: getattr(params[label], field))
        fidelities = [reports[label].log10_fidelity for label in arms]
        acts = count is None or getattr(table1, count) > 0
        for (low, f_low), (high, f_high) in zip(
            zip(arms, fidelities), zip(arms[1:], fidelities[1:])
        ):
            ok = (f_high - f_low) * direction > 0 if acts else f_high == f_low
            if not ok:
                problems.append(
                    f"{field}: log10 fidelity {f_low} at {low} then {f_high} at {high}"
                )
    for label in ("perfect-gate", "perfect-shuttle"):
        if label in reports and reports[label].log10_fidelity < table1.log10_fidelity:
            problems.append(f"{label} scores below {base}")
    makespans: dict[tuple, tuple[str, float]] = {}
    for label, report in reports.items():
        signature = duration_signature(params[label])
        first = makespans.setdefault(signature, (label, report.makespan_us))
        if first[1] != report.makespan_us:
            problems.append(
                f"makespan {report.makespan_us} under {label} differs from "
                f"{first[1]} under {first[0]} with the same durations"
            )
    return problems
