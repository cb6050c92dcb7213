"""MIPS32 instruction encodings (genuine MIPS I/II subset).

R-type ``op=0`` instructions are selected by ``funct``; branches are
relative to the delay-slot address; ``j``/``jal`` are region-absolute.
"""

from dataclasses import dataclass

from repro.errors import AssemblyError, DisassemblyError
from repro.utils.bits import bits, sign_extend

MIPS_REG_NAMES = (
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
)
REG_BY_NAME = {name: i for i, name in enumerate(MIPS_REG_NAMES)}

R_FUNCTS = {
    "sll": 0x00, "srl": 0x02, "sra": 0x03,
    "sllv": 0x04, "srlv": 0x06, "srav": 0x07,
    "jr": 0x08, "jalr": 0x09,
    "addu": 0x21, "subu": 0x23,
    "and": 0x24, "or": 0x25, "xor": 0x26, "nor": 0x27,
    "slt": 0x2A, "sltu": 0x2B,
}
R_BY_FUNCT = {v: k for k, v in R_FUNCTS.items()}

I_OPCODES = {
    "beq": 0x04, "bne": 0x05, "blez": 0x06, "bgtz": 0x07,
    "addiu": 0x09, "slti": 0x0A, "sltiu": 0x0B,
    "andi": 0x0C, "ori": 0x0D, "xori": 0x0E, "lui": 0x0F,
    "lb": 0x20, "lh": 0x21, "lw": 0x23, "lbu": 0x24, "lhu": 0x25,
    "sb": 0x28, "sh": 0x29, "sw": 0x2B,
}
I_BY_OPCODE = {v: k for k, v in I_OPCODES.items()}
LOADS = frozenset(["lb", "lh", "lw", "lbu", "lhu"])
STORES = frozenset(["sb", "sh", "sw"])
BRANCHES = frozenset(["beq", "bne", "blez", "bgtz", "bltz", "bgez"])
# Sign-extended immediates (the rest zero-extend).
SIGNED_IMM = frozenset(
    ["addiu", "slti", "sltiu", "lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw"]
)

J_OPCODES = {"j": 0x02, "jal": 0x03}
OP_REGIMM = 0x01  # bltz (rt=0) / bgez (rt=1)


@dataclass
class MipsInsn:
    """One decoded MIPS instruction.

    ``kind`` is ``'r'``, ``'i'`` or ``'j'``.  ``imm`` is the decoded
    (sign- or zero-extended) immediate for I-types; ``target`` the
    absolute address for J-types.
    """

    kind: str
    mnemonic: str
    rs: int = 0
    rt: int = 0
    rd: int = 0
    shamt: int = 0
    imm: int = 0
    target: int = 0
    addr: int = 0
    raw: int = 0

    @property
    def length(self):
        return 4

    def is_branch(self):
        return self.mnemonic in BRANCHES

    def is_jump(self):
        return self.mnemonic in ("j", "jal", "jr", "jalr")

    def is_call(self):
        return self.mnemonic in ("jal", "jalr")

    def is_return(self):
        return self.mnemonic == "jr" and self.rs == REG_BY_NAME["ra"]

    def has_delay_slot(self):
        return self.is_branch() or self.is_jump()

    def branch_target(self):
        """Absolute target for relative branches."""
        if not self.is_branch():
            raise ValueError("not a branch: %s" % self.mnemonic)
        return (self.addr + 4 + (self.imm << 2)) & 0xFFFFFFFF

    def text(self):
        reg = lambda i: "$%s" % MIPS_REG_NAMES[i]  # noqa: E731
        m = self.mnemonic
        if self.kind == "r":
            if m in ("sll", "srl", "sra"):
                return "%s %s, %s, %d" % (m, reg(self.rd), reg(self.rt), self.shamt)
            if m in ("sllv", "srlv", "srav"):
                return "%s %s, %s, %s" % (m, reg(self.rd), reg(self.rt), reg(self.rs))
            if m == "jr":
                return "jr %s" % reg(self.rs)
            if m == "jalr":
                return "jalr %s, %s" % (reg(self.rd), reg(self.rs))
            return "%s %s, %s, %s" % (m, reg(self.rd), reg(self.rs), reg(self.rt))
        if self.kind == "i":
            if m in LOADS | STORES:
                return "%s %s, %d(%s)" % (m, reg(self.rt), self.imm, reg(self.rs))
            if m == "lui":
                return "lui %s, 0x%x" % (reg(self.rt), self.imm & 0xFFFF)
            if m in ("beq", "bne"):
                return "%s %s, %s, 0x%x" % (
                    m, reg(self.rs), reg(self.rt), self.branch_target()
                )
            if m in ("blez", "bgtz", "bltz", "bgez"):
                return "%s %s, 0x%x" % (m, reg(self.rs), self.branch_target())
            return "%s %s, %s, %d" % (m, reg(self.rt), reg(self.rs), self.imm)
        return "%s 0x%x" % (m, self.target)


def encode(insn):
    """Encode a :class:`MipsInsn` into a 32-bit big-endian word value."""
    m = insn.mnemonic
    if insn.kind == "r":
        funct = R_FUNCTS.get(m)
        if funct is None:
            raise AssemblyError("unknown R-type %r" % m)
        return (
            (insn.rs << 21) | (insn.rt << 16) | (insn.rd << 11)
            | (insn.shamt << 6) | funct
        )
    if insn.kind == "i":
        if m in ("bltz", "bgez"):
            rt = 0 if m == "bltz" else 1
            return (OP_REGIMM << 26) | (insn.rs << 21) | (rt << 16) | (insn.imm & 0xFFFF)
        opcode = I_OPCODES.get(m)
        if opcode is None:
            raise AssemblyError("unknown I-type %r" % m)
        return (
            (opcode << 26) | (insn.rs << 21) | (insn.rt << 16) | (insn.imm & 0xFFFF)
        )
    if insn.kind == "j":
        opcode = J_OPCODES[m]
        return (opcode << 26) | ((insn.target >> 2) & 0x3FFFFFF)
    raise AssemblyError("cannot encode kind %r" % insn.kind)


def decode(word, addr=0):
    """Decode a 32-bit word value into a :class:`MipsInsn`."""
    opcode = bits(word, 31, 26)
    rs = bits(word, 25, 21)
    rt = bits(word, 20, 16)
    if opcode == 0:
        funct = bits(word, 5, 0)
        mnem = R_BY_FUNCT.get(funct)
        if mnem is None:
            raise DisassemblyError("unknown funct 0x%x at 0x%x" % (funct, addr))
        return MipsInsn(
            kind="r", mnemonic=mnem, rs=rs, rt=rt,
            rd=bits(word, 15, 11), shamt=bits(word, 10, 6),
            addr=addr, raw=word,
        )
    if opcode == OP_REGIMM:
        if rt == 0:
            mnem = "bltz"
        elif rt == 1:
            mnem = "bgez"
        else:
            raise DisassemblyError("unknown REGIMM rt=%d at 0x%x" % (rt, addr))
        return MipsInsn(
            kind="i", mnemonic=mnem, rs=rs, rt=0,
            imm=sign_extend(bits(word, 15, 0), 16), addr=addr, raw=word,
        )
    if opcode in (0x02, 0x03):
        mnem = "j" if opcode == 0x02 else "jal"
        target = ((addr + 4) & 0xF0000000) | (bits(word, 25, 0) << 2)
        return MipsInsn(kind="j", mnemonic=mnem, target=target, addr=addr, raw=word)
    mnem = I_BY_OPCODE.get(opcode)
    if mnem is None:
        raise DisassemblyError("unknown opcode 0x%x at 0x%x" % (opcode, addr))
    imm = bits(word, 15, 0)
    if mnem in SIGNED_IMM or mnem in ("beq", "bne", "blez", "bgtz"):
        imm = sign_extend(imm, 16)
    return MipsInsn(
        kind="i", mnemonic=mnem, rs=rs, rt=rt, imm=imm, addr=addr, raw=word
    )
