"""Per-function CFG recovery by recursive traversal.

Blocks are discovered from each function's entry point following
branch targets and fall-throughs, so embedded data (ARM literal pools
between functions, jump pads) is never decoded as code.  MIPS branch
delay slots are kept with their branch.  Direct branches that leave the
function's symbol extent are modelled as tail calls.
"""

from repro import faultinject
from repro.arch.arm import encoding as arm_enc
from repro.profiling import PROFILER
from repro.cfg.model import BasicBlock, CallSite, Function
from repro.errors import (
    AnalysisFault,
    CFGError,
    DecodeFault,
    DisassemblyError,
    LiftFault,
)
from repro.ir.irsb import JumpKind


class _Scan:
    """Outcome of scanning one straight-line run."""

    __slots__ = ("insns", "successors", "call", "kind")

    def __init__(self, insns, successors, call, kind):
        self.insns = insns
        self.successors = successors
        self.call = call
        self.kind = kind


class CFGBuilder:
    """Builds :class:`~repro.cfg.model.Function` objects for a binary."""

    def __init__(self, binary):
        self.binary = binary
        self.arch = binary.arch
        self._disasm = binary.arch.disassembler()
        self._lifter = binary.arch.lifter()

    # ------------------------------------------------------------------

    def build_function(self, symbol):
        """Recover the CFG of one function symbol."""
        function = Function(
            name=symbol.name, addr=symbol.addr, size=symbol.size,
            is_import=symbol.is_import,
        )
        if symbol.is_import:
            return function
        faultinject.check("cfg", symbol.name)

        leaders = {symbol.addr}
        worklist = [symbol.addr]
        scans = {}
        while worklist:
            addr = worklist.pop()
            if addr in scans:
                continue
            scan = self._scan_run(function, addr)
            scans[addr] = scan
            for successor in scan.successors:
                if function.contains(successor):
                    leaders.add(successor)
                    if successor not in scans:
                        worklist.append(successor)

        # Split runs at leaders discovered later.
        ordered = sorted(leaders)
        for leader in ordered:
            scan = scans.get(leader)
            if scan is None:
                # Leader discovered inside another run: rescan from it.
                scan = self._scan_run(function, leader)
                scans[leader] = scan
            insns = scan.insns
            successors = list(scan.successors)
            call = scan.call
            # Truncate at the next leader that falls inside this run.
            end = leader + 4 * len(insns)
            cut = None
            for other in ordered:
                if leader < other < end:
                    cut = other
                    break
            if cut is not None:
                insns = insns[: (cut - leader) // 4]
                successors = [cut]
                call = None
            block = BasicBlock(addr=leader, insns=insns, call=call,
                               successors=successors)
            if call is not None:
                call.block_addr = leader
            faultinject.check("cfg.lift", function.name)
            try:
                with PROFILER.phase("lift"):
                    block.irsb = self._lifter.lift_block(
                        insns, mem_reader=self.binary.read_ro
                    )
                PROFILER.count("lift_blocks")
            except AnalysisFault:
                raise
            except Exception as exc:  # lift failures leave block unlifted
                raise LiftFault(
                    "cannot lift block: %s" % exc,
                    function=function.name, addr=function.addr, site=leader,
                )
            function.blocks[leader] = block
        # Prune successors that were never materialised (outside extent).
        for block in function.blocks.values():
            block.successors = [
                s for s in block.successors if s in function.blocks
            ]
        return function

    def build_all(self, functions=None, on_fault=None):
        """Build CFGs for the given symbols (default: all local functions).

        With ``on_fault`` set, a per-function recovery failure calls
        ``on_fault(symbol, exc)`` and skips that one function instead
        of aborting the whole build — the fault-isolation mode the
        detector runs in.  Without it, faults propagate (the historical
        strict behaviour direct CFG users rely on).
        """
        if functions is None:
            functions = self.binary.local_functions
        built = {}
        for symbol in sorted(functions, key=lambda s: s.addr):
            if on_fault is None:
                built[symbol.name] = self.build_function(symbol)
                continue
            try:
                built[symbol.name] = self.build_function(symbol)
            except CFGError as exc:
                on_fault(symbol, exc)
        for symbol in self.binary.functions.values():
            if symbol.is_import and symbol.name not in built:
                built[symbol.name] = Function(
                    name=symbol.name, addr=symbol.addr, size=symbol.size,
                    is_import=True,
                )
        return built

    # ------------------------------------------------------------------

    def _decode(self, function, addr):
        data = self.binary.read_bytes(addr, 4)
        if data is None or len(data) < 4:
            raise DecodeFault(
                "code read out of bounds",
                function=function.name, addr=function.addr, site=addr,
            )
        try:
            return self._disasm.disasm_one(data, 0, addr)
        except DisassemblyError as exc:
            raise DecodeFault(
                str(exc),
                function=function.name, addr=function.addr, site=addr,
            )

    def _scan_run(self, function, start):
        if self.arch.name == "arm":
            return self._scan_run_arm(function, start)
        return self._scan_run_mips(function, start)

    def _scan_run_arm(self, function, start):
        insns = []
        addr = start
        limit = function.addr + function.size
        while addr < limit:
            insn = self._decode(function, addr)
            insns.append(insn)
            outcome = self._arm_flow(function, insn)
            if outcome is not None:
                return outcome(insns)
            addr += 4
        raise CFGError(
            "function %s runs past its extent at 0x%x" % (function.name, addr)
        )

    def _arm_flow(self, function, insn):
        """If ``insn`` ends the run, return a closure building the scan."""
        fall = insn.addr + 4

        if insn.kind == "branch":
            target = insn.branch_target()
            if insn.mnemonic == "bl":
                call = self._make_call(insn.addr, function, target, fall)
                return lambda insns: _Scan(insns, [fall], call, JumpKind.CALL)
            if not function.contains(target):
                # Direct tail call.
                call = self._make_call(insn.addr, function, target, None)
                if insn.cond == arm_enc.COND_AL:
                    return lambda insns: _Scan(insns, [], call, JumpKind.CALL)
                return lambda insns: _Scan(insns, [fall], call, JumpKind.CALL)
            if insn.cond == arm_enc.COND_AL:
                return lambda insns: _Scan(insns, [target], None, JumpKind.BORING)
            return lambda insns: _Scan(
                insns, [target, fall], None, JumpKind.BORING
            )
        if insn.kind == "bx":
            if insn.mnemonic == "blx":
                call = CallSite(addr=insn.addr, block_addr=None,
                                return_addr=fall)
                return lambda insns: _Scan(insns, [fall], call, JumpKind.CALL)
            if insn.rm == arm_enc.LR:
                return lambda insns: _Scan(insns, [], None, JumpKind.RET)
            return lambda insns: _Scan(insns, [], None, JumpKind.BORING)
        if insn.is_return():
            return lambda insns: _Scan(insns, [], None, JumpKind.RET)
        writes_pc = (
            (insn.kind == "dp" and insn.rd == 15
             and insn.mnemonic not in arm_enc.DP_COMPARE)
            or (insn.kind == "mem" and insn.load and insn.rd == 15)
            or (insn.kind == "block" and insn.load and 15 in insn.reglist)
        )
        if writes_pc:
            return lambda insns: _Scan(insns, [], None, JumpKind.BORING)
        return None

    def _scan_run_mips(self, function, start):
        insns = []
        addr = start
        limit = function.addr + function.size
        while addr < limit:
            insn = self._decode(function, addr)
            insns.append(insn)
            if insn.has_delay_slot():
                if addr + 4 >= limit:
                    raise CFGError("delay slot past extent at 0x%x" % addr)
                insns.append(self._decode(function, addr + 4))
                return self._mips_flow(function, insn, insns)
            addr += 4
        raise CFGError(
            "function %s runs past its extent at 0x%x" % (function.name, addr)
        )

    def _mips_flow(self, function, insn, insns):
        fall = insn.addr + 8
        m = insn.mnemonic
        if m == "jal":
            call = self._make_call(insn.addr, function, insn.target, fall)
            return _Scan(insns, [fall], call, JumpKind.CALL)
        if m == "jalr":
            call = CallSite(addr=insn.addr, block_addr=None, return_addr=fall)
            return _Scan(insns, [fall], call, JumpKind.CALL)
        if m == "j":
            if not function.contains(insn.target):
                call = self._make_call(insn.addr, function, insn.target, None)
                return _Scan(insns, [], call, JumpKind.CALL)
            return _Scan(insns, [insn.target], None, JumpKind.BORING)
        if m == "jr":
            if insn.is_return():
                return _Scan(insns, [], None, JumpKind.RET)
            return _Scan(insns, [], None, JumpKind.BORING)
        # Conditional branch.
        target = insn.branch_target()
        unconditional = m == "beq" and insn.rs == 0 and insn.rt == 0
        if not function.contains(target):
            call = self._make_call(insn.addr, function, target, None)
            successors = [] if unconditional else [fall]
            return _Scan(insns, successors, call, JumpKind.CALL)
        if unconditional:
            return _Scan(insns, [target], None, JumpKind.BORING)
        return _Scan(insns, [target, fall], None, JumpKind.BORING)

    def _make_call(self, addr, function, target, return_addr):
        name = None
        callee = None
        for symbol in self.binary.functions.values():
            if symbol.addr == target:
                callee = symbol
                break
        if callee is not None:
            name = callee.name
        return CallSite(
            addr=addr, block_addr=None, target_addr=target,
            target_name=name, return_addr=return_addr,
        )
