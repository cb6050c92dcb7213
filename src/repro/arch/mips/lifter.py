"""Lift MIPS32 instructions to the VEX-flavoured IR.

Branch delay slots are honoured: the condition (and any register jump
target) is evaluated into temporaries *before* the delay-slot
instruction's effects are lifted, matching the architectural semantics
where the slot executes after the condition is decided.
"""

from repro.arch.mips import encoding as enc
from repro.arch.mips.encoding import MIPS_REG_NAMES
from repro.errors import LiftError
from repro.ir.expr import Binop, Const, Get, Load, Ops, Unop
from repro.ir.irsb import IRBuilder, JumpKind
from repro.ir.stmt import Exit, Put, Store

_ZERO = Const(0)
_RA = MIPS_REG_NAMES.index("ra")


def _reg_name(index):
    return MIPS_REG_NAMES[index]


class MipsLifter:
    """Lifts decoded :class:`~repro.arch.mips.encoding.MipsInsn` runs."""

    arch_name = "mips"

    def lift_block(self, insns, mem_reader=None):
        """Lift ``insns`` into one IRSB (stops after a branch+slot)."""
        if not insns:
            raise LiftError("cannot lift an empty instruction run")
        builder = IRBuilder(insns[0].addr)

        index = 0
        while index < len(insns):
            insn = insns[index]
            if insn.has_delay_slot():
                if index + 1 >= len(insns):
                    raise LiftError(
                        "branch at 0x%x is missing its delay slot" % insn.addr
                    )
                return self._lift_transfer(builder, insn, insns[index + 1])
            builder.imark(insn.addr, 4)
            self._lift_simple(builder, insn)
            index += 1
        last = insns[-1]
        return builder.finish(Const(last.addr + 4), JumpKind.BORING)

    # ------------------------------------------------------------------

    def _get(self, builder, index):
        if index == 0:
            return _ZERO
        return builder.tmp(Get(_reg_name(index)))

    def _put(self, builder, index, value):
        if index != 0:
            builder.add(Put(_reg_name(index), value))

    def _lift_simple(self, builder, insn):
        """Lift one non-control-flow instruction."""
        m = insn.mnemonic
        if insn.kind == "r":
            if m in ("sll", "srl", "sra"):
                op = {"sll": Ops.SHL, "srl": Ops.SHR, "sra": Ops.SAR}[m]
                value = Binop(op, self._get(builder, insn.rt), Const(insn.shamt))
                self._put(builder, insn.rd, builder.tmp(value))
                return
            if m in ("sllv", "srlv", "srav"):
                op = {"sllv": Ops.SHL, "srlv": Ops.SHR, "srav": Ops.SAR}[m]
                amount = builder.tmp(
                    Binop(Ops.AND, self._get(builder, insn.rs), Const(0x1F))
                )
                value = Binop(op, self._get(builder, insn.rt), amount)
                self._put(builder, insn.rd, builder.tmp(value))
                return
            rs = self._get(builder, insn.rs)
            rt = self._get(builder, insn.rt)
            if m == "addu":
                value = Binop(Ops.ADD, rs, rt)
            elif m == "subu":
                value = Binop(Ops.SUB, rs, rt)
            elif m == "and":
                value = Binop(Ops.AND, rs, rt)
            elif m == "or":
                value = Binop(Ops.OR, rs, rt)
            elif m == "xor":
                value = Binop(Ops.XOR, rs, rt)
            elif m == "nor":
                value = Unop(Ops.NOT, Binop(Ops.OR, rs, rt))
            elif m == "slt":
                value = Binop(Ops.CMP_LT_S, rs, rt)
            elif m == "sltu":
                value = Binop(Ops.CMP_LT_U, rs, rt)
            else:
                raise LiftError("unhandled R-type %r" % m)
            self._put(builder, insn.rd, builder.tmp(value))
            return

        if m == "lui":
            self._put(builder, insn.rt, Const((insn.imm & 0xFFFF) << 16))
            return
        if m in ("addiu", "slti", "sltiu", "andi", "ori", "xori"):
            rs = self._get(builder, insn.rs)
            imm = Const(insn.imm & 0xFFFFFFFF)
            op = {
                "addiu": Ops.ADD, "slti": Ops.CMP_LT_S, "sltiu": Ops.CMP_LT_U,
                "andi": Ops.AND, "ori": Ops.OR, "xori": Ops.XOR,
            }[m]
            self._put(builder, insn.rt, builder.tmp(Binop(op, rs, imm)))
            return
        if m in enc.LOADS:
            addr = self._address(builder, insn)
            size = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[m]
            signed = m in ("lb", "lh")
            value = builder.tmp(Load(addr, size, signed=signed))
            self._put(builder, insn.rt, value)
            return
        if m in enc.STORES:
            addr = self._address(builder, insn)
            size = {"sb": 1, "sh": 2, "sw": 4}[m]
            data = self._get(builder, insn.rt)
            if size == 1:
                data = builder.tmp(Unop(Ops.TO_8, data))
            elif size == 2:
                data = builder.tmp(Unop(Ops.TO_16, data))
            builder.add(Store(addr, data, size))
            return
        raise LiftError("unhandled instruction %r" % m)

    def _address(self, builder, insn):
        base = self._get(builder, insn.rs)
        if insn.imm == 0:
            return base
        op = Ops.ADD if insn.imm >= 0 else Ops.SUB
        return builder.tmp(Binop(op, base, Const(abs(insn.imm))))

    # ------------------------------------------------------------------

    def _branch_guard(self, builder, insn):
        m = insn.mnemonic
        rs = self._get(builder, insn.rs)
        if m == "beq":
            return builder.tmp(
                Binop(Ops.CMP_EQ, rs, self._get(builder, insn.rt))
            )
        if m == "bne":
            return builder.tmp(
                Binop(Ops.CMP_NE, rs, self._get(builder, insn.rt))
            )
        if m == "blez":
            return builder.tmp(Binop(Ops.CMP_LE_S, rs, _ZERO))
        if m == "bgtz":
            return builder.tmp(Binop(Ops.CMP_LT_S, _ZERO, rs))
        if m == "bltz":
            return builder.tmp(Binop(Ops.CMP_LT_S, rs, _ZERO))
        if m == "bgez":
            return builder.tmp(Binop(Ops.CMP_LE_S, _ZERO, rs))
        raise LiftError("unhandled branch %r" % m)

    def _lift_transfer(self, builder, insn, slot):
        """Lift a branch/jump plus its delay slot; finishes the block."""
        if slot.has_delay_slot():
            raise LiftError(
                "branch in delay slot at 0x%x is unsupported" % slot.addr
            )
        m = insn.mnemonic
        builder.imark(insn.addr, 4)
        fall_through = insn.addr + 8  # past the delay slot

        if insn.is_branch():
            # Unconditional 'b' is encoded as beq $zero,$zero.
            unconditional = m == "beq" and insn.rs == 0 and insn.rt == 0
            guard = None if unconditional else self._branch_guard(builder, insn)
            builder.imark(slot.addr, 4)
            self._lift_simple(builder, slot)
            target = insn.branch_target()
            if unconditional:
                return builder.finish(Const(target), JumpKind.BORING)
            builder.add(Exit(guard, target, JumpKind.BORING))
            return builder.finish(Const(fall_through), JumpKind.BORING)

        if m == "j":
            builder.imark(slot.addr, 4)
            self._lift_simple(builder, slot)
            return builder.finish(Const(insn.target), JumpKind.BORING)
        if m == "jal":
            self._put(builder, _RA, Const(fall_through))
            builder.imark(slot.addr, 4)
            self._lift_simple(builder, slot)
            return builder.finish(
                Const(insn.target), JumpKind.CALL, return_addr=fall_through
            )
        if m == "jr":
            target = self._get(builder, insn.rs)
            builder.imark(slot.addr, 4)
            self._lift_simple(builder, slot)
            kind = JumpKind.RET if insn.rs == _RA else JumpKind.BORING
            return builder.finish(target, kind)
        if m == "jalr":
            target = self._get(builder, insn.rs)
            self._put(builder, insn.rd, Const(fall_through))
            builder.imark(slot.addr, 4)
            self._lift_simple(builder, slot)
            return builder.finish(
                target, JumpKind.CALL, return_addr=fall_through
            )
        raise LiftError("unhandled transfer %r" % m)
