"""The per-program issue stream and where it ends.

Every machine reads its program's recorded issue stream instead of
executing (:mod:`repro.cpu.stream`).  These tests pin down what the
timing machine sees at each way a stream can end — HALT, an error an
instruction raises, an instruction no machine can issue — on both
engine rows; that a machine leaving the stream's path raises instead of
mistiming; that the stream is compact and travels with its program;
that the pass's values are the functional simulator's; and that the
arrays replay's guards read (FPU tags and same-address store gaps)
match a brute-force recount.
"""

import pickle
import time
from array import array
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.config import MachineConfig
from repro.core.scheduler import ENGINES
from repro.core.simulator import DeadlockError, Simulator
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.stream import CHUNK, FAR, IssueStream, StreamDesync
from repro.kernels.serialize import workload_from_json
from repro.kernels.suite import (
    build_kernel_suite,
    build_livermore_program,
    build_livermore_suite,
)
from repro.memory.fpu import is_fpu_address

ROW = dict(ENGINES)

PIPE = MachineConfig.pipe("16-16", 128, memory_access_time=6)

#: r6 = 0xF000, the FPU window
FPU_WINDOW = "li r6, 0x7800\nslli r6, r6, 1\n"


def _run(source, config=PIPE, **kwargs):
    sim = Simulator(config, assemble(source), **kwargs)
    sim.DEADLOCK_CYCLES = 500  # keep the deadlock tests fast
    return sim.run()


@pytest.mark.parametrize("row", sorted(ROW))
def test_pop_with_no_load_outstanding_deadlocks(row):
    """The pass cannot pop an empty LDQ, so its stream ends there; the
    machine stalls on ``ldq_empty`` and never asks for more."""
    with pytest.raises(DeadlockError, match="1 instructions issued") as caught:
        _run("li r1, 1\npopq r2\nhalt", **ROW[row])
    assert caught.value.cycle == 768


@pytest.mark.parametrize("row", sorted(ROW))
@pytest.mark.parametrize(
    "source, error, message",
    [
        ("li r1, 2\nld r1, 0\npopq r2\nhalt", ValueError, "unaligned data access at 0x2"),
        (
            "li r1, 0x7000\nlih r1, 0\nld r1, 0\npopq r2\nhalt",
            IndexError,
            "data access at 0x7000 outside memory of 8192 bytes",
        ),
        (
            FPU_WINDOW + "st r6, 0x14\npushq r1\nhalt",
            ValueError,
            "store to unmapped FPU address 0xf014",
        ),
        (
            FPU_WINDOW + "ld r6, 0x20\npopq r1\nhalt",
            RuntimeError,
            "FPU result read with no completed operation pending",
        ),
        (
            "li r1, 0\nst r1, spot\nld r1, spot\npushq r1\npopq r2\nhalt\n"
            "spot: .word 0",
            RuntimeError,
            "load from 0x18 while a store to the same address awaits its SDQ "
            "data — miscompiled program",
        ),
    ],
    ids=["unaligned", "outside-memory", "unmapped-fpu-store", "no-fpu-result",
         "load-behind-dataless-store"],
)
def test_an_instruction_error_is_raised_where_it_issues(row, source, error, message):
    """The pass keeps the first error an instruction raises; the machine
    that issues that instruction raises it, with its type and message."""
    with pytest.raises(error) as caught:
        _run(source, **ROW[row])
    assert type(caught.value) is error
    assert str(caught.value) == message


#: a second PBR inside the first one's two delay slots
OVERLAP = (
    "li r1, {r1}\nlbr b0, skip\n"
    "pbrne b0, r1, 2\npbrne b0, r1, 1\nnop\nnop\nnop\nskip:\nhalt"
)


def test_a_pbr_in_a_not_taken_pbrs_delay_slots_issues():
    """Issue stalls on ``branch_overlap`` until the first PBR resolves
    not taken, then issues the second: the pass follows the timing
    rule, where the functional simulator refuses the program."""
    program = assemble(OVERLAP.format(r1=0))
    with pytest.raises(RuntimeError, match="branch is pending"):
        FunctionalSimulator(program).run()
    results = {row: Simulator(PIPE, program, **kwargs).run() for row, kwargs in ENGINES}
    reference = results["reference"]
    assert (reference.instructions, reference.cycles, reference.halted) == (8, 22, True)
    assert reference.stalls["branch_overlap"] > 0
    assert results["compiled"].to_dict() == reference.to_dict()


@pytest.mark.parametrize("row", sorted(ROW))
def test_a_pbr_in_a_taken_pbrs_delay_slots_never_issues(row):
    with pytest.raises(DeadlockError, match="3 instructions issued") as caught:
        _run(OVERLAP.format(r1=1), **ROW[row])
    assert caught.value.cycle == 768
    assert "'branch_overlap': 759" in str(caught.value)


@pytest.mark.parametrize("row", sorted(ROW))
def test_a_wedged_loop_that_never_halts_is_not_run_ahead(row):
    """The pass runs only as far as machines consume it: a loop that
    never halts and wedges a 2-entry LAQ/LDQ deadlocks at once at the
    default ``max_cycles``, after one chunk of the pass."""
    config = MachineConfig.pipe(
        "16-16", 128, memory_access_time=6, laq_capacity=2, ldq_capacity=2
    )
    assert config.max_cycles == 500_000_000
    source = (
        "li r1, 0\nloop:\nld r1, value\nld r1, value\nld r1, value\n"
        "lbr b0, loop\npbra b0, 0\nvalue: .word 1"
    )
    program = assemble(source)
    started = time.perf_counter()
    sim = Simulator(config, program, **ROW[row])
    sim.DEADLOCK_CYCLES = 500
    with pytest.raises(DeadlockError) as caught:
        sim.run()
    assert caught.value.cycle == 768
    assert time.perf_counter() - started < 5
    stream = program.issue_stream
    assert stream.end is None and stream.length <= 2 * CHUNK


@pytest.mark.parametrize("row", sorted(ROW))
def test_leaving_the_streams_path_raises(row):
    """A corrupted branch entry (a pass whose path rule drifted from the
    frontends') raises at the PBR instead of mistiming the run, and so
    does a PBR past the last recorded branch."""
    program = build_livermore_suite(scale=0.05, loops=(3,)).program  # uncached
    stream = program.issue_stream
    stream.finish()
    corrupted = 3 * (len(stream.branches) // 6)
    stream.branches[corrupted] += 2
    with pytest.raises(StreamDesync, match=f"branch {corrupted // 3} of the issue"):
        Simulator(PIPE, program, **ROW[row]).run()
    stream.branches[corrupted] -= 2
    last = len(stream.branches) // 3 - 1
    del stream.branches[-3:]
    with pytest.raises(StreamDesync, match=f"branch {last} of the issue stream was"):
        Simulator(PIPE, program, **ROW[row]).run()


def test_the_stream_is_compact_and_travels():
    """Addresses and branch entries are arrays, not lists of ints, and
    a program whose stream is built still pickles, stream included."""
    program = build_livermore_program(scale=0.05, loops=(3,))
    Simulator(PIPE, program).run()
    stream = program.issue_stream
    for name in (
        "branches",
        "loads",
        "stores",
        "fpu_at",
        "fpu_addr",
        "load_tags",
        "store_tags",
    ):
        assert type(getattr(stream, name)) is array, name
    assert type(stream.near) is bytearray
    assert len(stream.loads) > 0 and stream.end == stream.length - 1
    shipped = pickle.loads(pickle.dumps(program))
    assert shipped.issue_stream.loads == stream.loads
    assert shipped.issue_stream.branches == stream.branches
    assert Simulator(PIPE, shipped).run() == Simulator(PIPE, program).run()


def test_the_pass_computes_the_functional_simulators_values():
    """Run to its end, the pass's memory, registers and FPU count are
    the functional simulator's, on a program that exercises the FPU."""
    program = build_livermore_program(scale=0.05)
    stream = program.issue_stream
    stream.finish()
    functional = FunctionalSimulator(program)
    result = functional.run()
    assert stream.error is None and stream.length == result.instructions
    assert bytes(stream.memory) == bytes(functional.memory)
    assert stream.state.snapshot() == functional.state.snapshot()
    assert len(stream.fpu_at) == result.fpu_operations > 0
    assert len(stream.loads) == result.loads
    assert len(stream.stores) == result.stores


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def _corpus_program(path: Path):
    kernel, arrays, _metadata = workload_from_json(path.read_text())
    return build_kernel_suite([kernel], list(arrays)).program


@pytest.mark.parametrize(
    "build",
    [lambda: build_livermore_suite(scale=0.05).program]  # uncached
    + [lambda path=path: _corpus_program(path) for path in CORPUS],
    ids=["suite"] + [path.stem for path in CORPUS],
)
def test_the_guard_arrays_recount_the_stream(build, monkeypatch):
    """``load_tags`` and ``store_tags`` hold each access's FPU-window
    address, else 0; ``near`` holds how many stores back a load's
    nearest same-address store was issued, up to ``FAR``, recounted
    here over every store issued before the load."""
    program = build()
    issued = []
    push_laq = IssueStream.push_laq

    def counted(self, address):
        push_laq(self, address)
        issued.append(len(self.stores))

    monkeypatch.setattr(IssueStream, "push_laq", counted)
    stream = program.issue_stream
    stream.finish()
    loads, stores = stream.loads.tolist(), stream.stores.tolist()
    assert len(issued) == len(loads) > 0
    for name, addresses in (("load_tags", loads), ("store_tags", stores)):
        tags = [address if is_fpu_address(address) else 0 for address in addresses]
        assert getattr(stream, name).tolist() == tags, name
    near = []
    for address, before in zip(loads, issued):
        gaps = [before - j for j in range(before - 1, -1, -1) if stores[j] == address]
        near.append(min(gaps[0], FAR) if gaps else FAR)
    assert list(stream.near) == near
