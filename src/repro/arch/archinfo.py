"""Architecture facade.

:class:`ArchInfo` bundles everything the loader, CFG recovery, symbolic
engine and emulator need to know about a target: register names, the
calling convention, endianness, and the assemble/disassemble/lift entry
points.  The paper targets the two architectures that dominate embedded
firmware — 32-bit ARM (little-endian) and 32-bit MIPS (big-endian).
"""

from dataclasses import dataclass, field

from repro.arch.arm.disassembler import ArmDisassembler
from repro.arch.arm.lifter import ArmLifter
from repro.arch.mips.disassembler import MipsDisassembler
from repro.arch.mips.encoding import MIPS_REG_NAMES
from repro.arch.mips.lifter import MipsLifter

ARCH_ARM = "arm"
ARCH_MIPS = "mips"


@dataclass(frozen=True)
class CallingConvention:
    """Registers used to pass arguments and results.

    ``arg_regs`` are the first argument registers in order; additional
    arguments live on the stack at ``sp + stack_arg_offset + 4*i``.
    """

    arg_regs: tuple
    ret_reg: str
    sp_reg: str
    ra_reg: str          # link/return-address register
    pc_reg: str
    stack_arg_offset: int = 0
    max_args: int = 10   # the paper models arg0..arg9


@dataclass(frozen=True)
class ArchInfo:
    name: str
    bits: int
    endness: str                      # 'little' | 'big'
    instruction_size: int
    register_names: tuple
    cc: CallingConvention
    has_delay_slots: bool = False
    elf_machine: int = 0
    flag_registers: tuple = field(default=())

    @property
    def is_big_endian(self):
        return self.endness == "big"

    def assembler(self):
        # Imported on first use: only corpus building assembles.
        if self.name == ARCH_ARM:
            from repro.arch.arm.assembler import ArmAssembler

            return ArmAssembler()
        from repro.arch.mips.assembler import MipsAssembler

        return MipsAssembler()

    def disassembler(self):
        if self.name == ARCH_ARM:
            return ArmDisassembler()
        return MipsDisassembler()

    def lifter(self):
        if self.name == ARCH_ARM:
            return ArmLifter()
        return MipsLifter()


_ARM_REGS = tuple("r%d" % i for i in range(16))
_ARM = ArchInfo(
    name=ARCH_ARM,
    bits=32,
    endness="little",
    instruction_size=4,
    register_names=_ARM_REGS,
    cc=CallingConvention(
        arg_regs=("r0", "r1", "r2", "r3"),
        ret_reg="r0",
        sp_reg="r13",
        ra_reg="r14",
        pc_reg="r15",
    ),
    has_delay_slots=False,
    elf_machine=40,  # EM_ARM
    flag_registers=("cc_op", "cc_dep1", "cc_dep2", "cc_ndep"),
)

_MIPS = ArchInfo(
    name=ARCH_MIPS,
    bits=32,
    endness="big",
    instruction_size=4,
    register_names=MIPS_REG_NAMES,
    cc=CallingConvention(
        arg_regs=("a0", "a1", "a2", "a3"),
        ret_reg="v0",
        sp_reg="sp",
        ra_reg="ra",
        pc_reg="pc",
        stack_arg_offset=16,  # o32 reserves a 16-byte home area
    ),
    has_delay_slots=True,
    elf_machine=8,  # EM_MIPS
)

_ARCHES = {ARCH_ARM: _ARM, ARCH_MIPS: _MIPS}


def get_arch(name):
    """Return the :class:`ArchInfo` for ``name`` ('arm' or 'mips')."""
    try:
        return _ARCHES[name]
    except KeyError:
        raise ValueError("unknown architecture %r" % name)
