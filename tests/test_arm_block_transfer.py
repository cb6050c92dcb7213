"""Differential coverage for ARM block transfers (ldm/stm modes)."""

import pytest

from repro.arch import get_arch
from repro.emu import Memory, make_cpu
from repro.ir.interp import IRInterpreter
from tests.conftest import assemble

MODES = ["ia", "ib", "da", "db"]


def _run_both(source, init_regs):
    program = assemble("arm", source)
    base, data = program.sections[".text"]
    arch = get_arch("arm")

    emu_mem = Memory(endness="little")
    emu_mem.write_bytes(base, data)
    emu_mem.write_bytes(0x30000, bytes(0x200))
    cpu = make_cpu(arch, emu_mem)
    for index, value in init_regs.items():
        cpu.regs[index] = value
    cpu.run(program.symbols["f"], 0x7FFE0000)

    insns = [
        arch.disassembler().disasm_one(data, off, base + off)
        for off in range(0, len(data), 4)
    ]
    ir_mem = Memory(endness="little")
    ir_mem.write_bytes(base, data)
    ir_mem.write_bytes(0x30000, bytes(0x200))
    registers = {"r%d" % i: 0 for i in range(16)}
    for index, value in init_regs.items():
        registers["r%d" % index] = value
    registers["r13"] = 0x7FFE0000
    registers["r14"] = 0xFFFF0000
    registers.update(cc_op=1, cc_dep1=1, cc_dep2=0, cc_ndep=0)
    interp = IRInterpreter(registers, ir_mem)
    lifter = arch.lifter()
    pc = program.symbols["f"]
    for _ in range(20):
        index = (pc - base) // 4
        irsb = lifter.lift_block(insns[index:])
        pc, _kind = interp.run(irsb)
        if pc == 0xFFFF0000:
            break
    return cpu, emu_mem, registers, ir_mem


@pytest.mark.parametrize("mode", MODES)
def test_stm_modes_match_emulator(mode):
    source = (
        ".text\nf:\n    stm%s r10!, {r0, r1, r2}\n    bx lr\n" % mode
    )
    init = {0: 0x11111111, 1: 0x22222222, 2: 0x33333333, 10: 0x30100}
    cpu, emu_mem, registers, ir_mem = _run_both(source, init)
    assert registers["r10"] == cpu.regs[10]
    assert ir_mem.read_bytes(0x30000, 0x200) == emu_mem.read_bytes(
        0x30000, 0x200
    )


@pytest.mark.parametrize("mode", MODES)
def test_ldm_modes_match_emulator(mode):
    setup = "".join(
        "    str r%d, [r10, #%d]\n" % (i, 4 * (i - 4))
        for i in range(4, 7)
    )
    source = (
        ".text\nf:\n%s    ldm%s r10, {r0, r1, r2}\n    bx lr\n"
        % (setup, mode)
    )
    init = {4: 0xAAAA0001, 5: 0xBBBB0002, 6: 0xCCCC0003, 10: 0x30100}
    cpu, _emu_mem, registers, _ir_mem = _run_both(source, init)
    for i in range(3):
        assert registers["r%d" % i] == cpu.regs[i], "r%d in mode" % i


def test_push_pop_roundtrip_preserves_values():
    source = (
        ".text\nf:\n"
        "    push {r4, r5, r6}\n"
        "    mov r4, #0\n    mov r5, #0\n    mov r6, #0\n"
        "    pop {r4, r5, r6}\n"
        "    bx lr\n"
    )
    init = {4: 0x44444444, 5: 0x55555555, 6: 0x66666666}
    cpu, _m, registers, _im = _run_both(source, init)
    for i in (4, 5, 6):
        assert cpu.regs[i] == init[i]
        assert registers["r%d" % i] == init[i]


def test_report_json_roundtrip(tmp_path):
    import json

    from repro.core import DTaint
    from repro.corpus.examples import build_foo_woo

    built = build_foo_woo()
    report = DTaint(built.binary, name="foo-woo").run()
    path = report.save_json(tmp_path / "report.json")
    data = json.loads(open(path).read())
    assert data["binary"] == "foo-woo"
    assert len(data["vulnerabilities"]) == 1
    assert data["vulnerabilities"][0]["sink_name"] == "memcpy"
    assert data["phase_profile"]["seconds"]
    assert data["elapsed_seconds"] > 0
