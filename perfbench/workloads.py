"""The in-process workloads: ``scale-compile``, ``paper-compare`` and
``reprice-sweep``.  ``serve-mixed`` lives in :mod:`perfbench.serve`.

A workload object is built once per run.  ``setup`` is called
:data:`~perfbench.harness.SETUP_REPEATS` times (the last one is kept);
``setup_problems`` then checks, once and untimed, what set-up produced;
``run_pass`` runs one pass and returns a :class:`PassResult`.  Only work
inside ``clock.timed()`` counts toward a pass; checks, and dropping each
cell's program before the next cell starts, happen outside it.  Cyclic
garbage is collected between passes, not between cells: a full
collection per cell would double the run time of ``paper-compare``.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field, replace

import repro
from repro.bench.micro import REPRICE_PROFILES
from repro.circuits import validate_native
from repro.core import MussTiCompiler, trivial_placement
from repro.sim import execute, price_many, replay, verify_logical
from repro.workloads import LARGE_SUITE, MEDIUM_SUITE, SMALL_SUITE

from .checks import (
    duration_signature,
    gate_order_problems,
    paper_property_problems,
    physics_problems,
    report_problems,
)
from .harness import Clock, Tracer, median


@dataclass
class PassResult:
    """What one pass measured, and how its operations fared."""

    seconds: float = 0.0
    #: ``seconds`` rescaled to reference host speed (see ``Clock``).
    reference_seconds: float = 0.0
    #: Median probe time over the pass (see ``harness.probe_seconds``).
    probe_s: float = 0.0
    traced: bool = False
    attempted: int = 0
    failed: int = 0
    shuttles: int = 0
    makespan_us: float = 0.0
    #: Layer seconds and counters (compile_s, execute_s, core.ops, ...).
    layers: dict[str, float] = field(default_factory=dict)
    #: Problems that failed one operation each.
    op_problems: list[str] = field(default_factory=list)
    #: Failures of checks that span a whole pass (not one operation).
    problems: list[str] = field(default_factory=list)

    def clocked(self, clock: Clock) -> None:
        """Take the pass's times from its clock."""
        self.seconds = clock.elapsed
        self.reference_seconds = clock.reference
        self.probe_s = median(clock.probes)

    def add(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + value

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed when its checks found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.op_problems.extend(problems)


@dataclass(frozen=True)
class Cell:
    app: str
    machine: str
    compiler: str
    #: Fig 6 scale for the paper-property check, "" outside that matrix.
    scale: str = ""

    @property
    def key(self) -> str:
        return f"{self.app}@{self.machine}#{self.compiler}"


# -- cell matrices -----------------------------------------------------

HEADLINE = ("QFT_n128", "eml?capacity=4&modules=64")
LARGER_QFT = ("QFT_n192", "eml?capacity=4&modules=96")

SCALE_CELLS = tuple(
    Cell(app, machine, "muss-ti")
    for app, machine in (
        HEADLINE,
        LARGER_QFT,
        ("SQRT_n299", "eml"),
        ("SC_n274", "eml"),
        ("Adder_n256", "eml"),
        ("RAN_n256", "eml"),
    )
)

TABLE2_GRIDS = ("grid:2x2:12", "grid:2x3:8")
TABLE2_COMPILERS = ("murali", "dai", "mqt", "muss-ti")

#: Fig 6: baselines on the §4 grids; MUSS-TI on the EML machine sized to
#: the circuit, except at the small scale where it shares the 2x2 grid.
FIG6_SCALES = (
    ("small", SMALL_SUITE, "grid:2x2:12", "grid:2x2:12"),
    ("medium", MEDIUM_SUITE, "grid:3x4:16", "eml"),
    ("large", LARGE_SUITE, "grid:4x5:16", "eml"),
)


def paper_cells(small=SMALL_SUITE, scales=FIG6_SCALES) -> tuple[Cell, ...]:
    table2 = [
        Cell(app, grid, compiler)
        for grid in TABLE2_GRIDS
        for app in small
        for compiler in TABLE2_COMPILERS
    ]
    fig6 = [
        Cell(app, ours if compiler == "muss-ti" else grid, compiler, scale)
        for scale, suite, grid, ours in scales
        for app in suite
        for compiler in ("murali", "dai", "muss-ti")
    ]
    return tuple(table2 + fig6)


PAPER_CELLS = paper_cells()

#: ``--tiny`` stand-ins: the same code paths on circuits small enough
#: for a smoke test.
TINY_SCALE_CELLS = (
    Cell("QFT_n16", "eml?capacity=4&modules=8", "muss-ti"),
    Cell("GHZ_n24", "eml", "muss-ti"),
)
TINY_PAPER_CELLS = paper_cells(
    ("GHZ_n32", "BV_n32"),
    (("small", ("GHZ_n32", "BV_n32"), "grid:2x2:12", "grid:2x2:12"),),
)


# -- shared set-up -----------------------------------------------------


def build_inputs(pairs, tracer: Tracer) -> tuple[dict, dict]:
    """Generate each circuit once and resolve each (machine, size) once,
    building the machine's topology maps so no pass pays for them."""
    circuits: dict = {}
    machines: dict = {}
    for app, spec in pairs:
        if app not in circuits:
            with tracer.span("workloads.generate", app):
                circuits[app] = repro.get_benchmark(app)
        size = circuits[app].num_qubits
        if (spec, size) not in machines:
            with tracer.span("hardware.resolve", spec):
                machine = repro.resolve_machine(spec, size)
                machine.topology_maps()
            machines[(spec, size)] = machine
    return circuits, machines


class SabreSteps:
    """The steps ``repro.core.sabre_placement`` takes, run from outside so
    each gets its own span: trivial placement, a forward warm-up compile,
    a warm-up compile of the reversed circuit, then the final compile."""

    def __init__(self) -> None:
        config = repro.resolve_compiler("muss-ti").config
        self.compiler = MussTiCompiler(replace(config, use_sabre_mapping=False))

    def compile(self, circuit, machine, tracer: Tracer, tag: str, result: PassResult):
        compiler = self.compiler
        with tracer.span("pipeline.validate", tag):
            validate_native(circuit)
        with tracer.span("core.trivial_placement", tag):
            start = trivial_placement(circuit, machine)
        with tracer.span("core.sabre_forward", tag):
            forward = compiler.compile(circuit, machine, initial_placement=start)
        with tracer.span("core.sabre_reverse", tag):
            backward = compiler.compile(
                circuit.reversed(), machine, initial_placement=forward.final_placement
            )
        with tracer.span("core.schedule", tag):
            program = compiler.compile(
                circuit, machine, initial_placement=dict(backward.final_placement)
            )
        result.add(
            "core.ops",
            forward.num_operations + backward.num_operations + program.num_operations,
        )
        return program


def sabre_problems(program, circuit, machine, tag: str) -> list[str]:
    """The decomposed SABRE path must give ``repro.compile``'s op stream."""
    expected = repro.compile(circuit, machine, compiler="muss-ti").program
    if program.initial_placement != expected.initial_placement:
        return [f"{tag}: decomposed SABRE placement differs from repro.compile"]
    if program.operations != expected.operations:
        return [f"{tag}: decomposed SABRE op stream differs from repro.compile"]
    return []


# -- scale-compile / paper-compare -----------------------------------------


class CompileWorkload:
    """One ``repro.compile`` and one ``execute`` per cell per pass."""

    def __init__(self, cells, seed: int, reference_execute, tracer: Tracer) -> None:
        self.cells = cells
        self.rng = random.Random(seed)
        self.reference_execute = reference_execute
        self.tracer = tracer
        self.expected: dict[str, dict] = {}
        self.sabre_checked: set[str] = set()

    def setup(self) -> None:
        self.circuits, self.machines = build_inputs(
            [(cell.app, cell.machine) for cell in self.cells], self.tracer
        )
        self.sabre = SabreSteps()

    def setup_problems(self) -> list[str]:
        """None: every program is checked in the pass that compiles it."""
        return []

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult(traced=traced)
        clock = Clock()
        totals: dict[tuple[str, str], int] = {}
        order = list(self.cells)
        self.rng.shuffle(order)
        for cell in order:
            report, problems = self._run_cell(cell, clock, result, traced)
            result.record(problems)
            if cell.compiler == "muss-ti":
                result.shuttles += report.shuttle_count
                result.makespan_us += report.makespan_us
            else:
                result.add("baselines.shuttles", report.shuttle_count)
            if cell.scale:
                key = (cell.scale, cell.compiler)
                totals[key] = totals.get(key, 0) + report.shuttle_count
        result.problems.extend(paper_property_problems(totals))
        result.clocked(clock)
        return result

    def _run_cell(self, cell: Cell, clock: Clock, result: PassResult, traced: bool):
        circuit = self.circuits[cell.app]
        machine = self.machines[(cell.machine, circuit.num_qubits)]
        tracer = self.tracer
        with clock.timed():
            started = time.perf_counter()
            if traced and cell.compiler == "muss-ti":
                program = self.sabre.compile(circuit, machine, tracer, cell.key, result)
            elif traced:
                with tracer.span("baselines.compile", cell.key):
                    program = repro.compile(circuit, machine, compiler=cell.compiler).program
            else:
                program = repro.compile(circuit, machine, compiler=cell.compiler).program
            compiled = time.perf_counter()
            if traced:
                with tracer.span("sim.replay", cell.key):
                    ledger = replay(program)
                with tracer.span("sim.price_cold", cell.key):
                    report = ledger.reprice()
                result.add("sim.events", len(ledger))
                del ledger
            else:
                report = execute(program)
            finished = time.perf_counter()
        result.add("compile_s", compiled - started)
        result.add("execute_s", finished - compiled)
        problems = [f"{cell.key}: {p}" for p in gate_order_problems(program)]
        expected = self.expected.get(cell.key)
        if expected is None:
            expected = self.expected[cell.key] = self.reference_execute(program)
        problems += report_problems(report, expected, cell.key)
        if traced and cell.compiler == "muss-ti" and cell.key not in self.sabre_checked:
            self.sabre_checked.add(cell.key)
            problems += sabre_problems(program, circuit, machine, cell.key)
        return report, problems


# -- reprice-sweep -----------------------------------------------------

REPRICE_SCHEDULES = (
    Cell(*HEADLINE, "muss-ti"),
    Cell(*LARGER_QFT, "muss-ti"),
    Cell("SQRT_n299", "grid:4x5:16", "dai"),
)
TINY_REPRICE_SCHEDULES = (
    Cell("QFT_n32", "eml?capacity=4&modules=16", "muss-ti"),
    Cell("GHZ_n32", "grid:2x2:12", "dai"),
)


class RepriceWorkload:
    """Per schedule and pass: ``verify_logical``, one ``replay`` and
    ``price_many`` over the :data:`REPRICE_PROFILES` arms.  The schedules
    are compiled during set-up, so the scheduler does none of the work."""

    def __init__(self, cells, seed: int, reference_execute, tracer: Tracer) -> None:
        self.cells = cells
        self.rng = random.Random(seed)
        self.reference_execute = reference_execute
        self.tracer = tracer
        self.expected: dict[str, dict] = {}

    def setup(self) -> None:
        circuits, machines = build_inputs(
            [(cell.app, cell.machine) for cell in self.cells], self.tracer
        )
        self.programs, self.object_programs, self.packed = {}, {}, {}
        for cell in self.cells:
            circuit = circuits[cell.app]
            machine = machines[(cell.machine, circuit.num_qubits)]
            with self.tracer.span("setup.compile", cell.key):
                program = repro.compile(circuit, machine, compiler=cell.compiler).program
                # Reading ``operations`` turns an array-core program's
                # packed records into op objects for good, after which
                # replay and both folds take the object path.  The shallow
                # copy is the one read as objects (by ``verify_logical``
                # and the checks), built here so no pass pays for it; the
                # original stays packed for ``replay`` and ``price_many``.
                object_program = copy.copy(program)
                object_program.operations
            self.programs[cell.key] = program
            self.object_programs[cell.key] = object_program
            self.packed[cell.key] = getattr(program, "packed_view", None)
        self.params = {spec: repro.resolve_physics(spec) for spec in REPRICE_PROFILES}

    def setup_problems(self) -> list[str]:
        """Order check and reference match of each schedule, and the
        expected report of every arm: ``execute`` of the object copy, so
        the packed path's reports must equal the object path's."""
        problems = []
        for key, object_program in self.object_programs.items():
            problems += [f"{key}: {p}" for p in gate_order_problems(object_program)]
            self.expected[key] = {
                label: execute(object_program, params)
                for label, params in self.params.items()
            }
            problems += report_problems(
                self.expected[key]["table1"],
                self.reference_execute(object_program),
                f"{key} reference",
            )
        return problems

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult(traced=traced)
        clock = Clock()
        order = list(self.cells)
        self.rng.shuffle(order)
        for cell in order:
            reports, problems = self._run_schedule(cell.key, clock, result, traced)
            result.record(problems)
            if cell.compiler == "muss-ti":
                result.shuttles += reports["table1"].shuttle_count
                result.makespan_us += reports["table1"].makespan_us
        result.clocked(clock)
        return result

    def _run_schedule(self, key: str, clock: Clock, result: PassResult, traced: bool):
        tracer = self.tracer
        program, object_program = self.programs[key], self.object_programs[key]
        with clock.timed():
            with tracer.span("sim.verify", key):
                verify_logical(object_program)
            verified = time.perf_counter()
            if traced:
                with tracer.span("sim.replay", key):
                    ledger = replay(program)
                reports, seen = {}, set()
                for label, params in self.params.items():
                    signature = duration_signature(params)
                    name = "sim.price_warm" if signature in seen else "sim.price_cold"
                    seen.add(signature)
                    with tracer.span(name, key):
                        reports[label] = ledger.reprice(params)
                result.add("sim.events", len(ledger))
            else:
                ledger = replay(program)
                reports = price_many(ledger, self.params)
            del ledger
            finished = time.perf_counter()
        result.add("execute_s", finished - verified)
        problems = physics_problems(reports, self.params)
        if getattr(program, "packed_view", None) is not self.packed[key]:
            problems.append("the packed records were turned into op objects")
        for label, report in reports.items():
            problems += report_problems(report, self.expected[key][label], label)
        return reports, [f"{key}: {p}" for p in problems]
