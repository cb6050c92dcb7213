"""Per-function static symbolic execution (paper §III-B).

Every function is analysed separately: argument registers are
initialised with the symbols ``arg0..arg3``, stack arguments
``arg4..arg9`` are pre-stored at their o32/AAPCS slots, the stack
pointer becomes the symbol ``sp0``, and every callee is "hooked" — the
call is summarised, a unique ``ret_{callsite}`` symbol lands in the
return register, and execution continues at the return site.

Both directions of each conditional branch are explored, and blocks
are analysed at most once per path (the paper's loop heuristic), so a
basic block can contribute several distinct symbolic states.
"""

import time

from repro import faultinject
from repro.errors import DeadlineExceeded, SymExecError
from repro.profiling import PROFILER
from repro.ir.expr import Binop, Const, Get, ITE, Load, RdTmp, Unop
from repro.ir.irsb import JumpKind
from repro.ir.stmt import Exit, IMark, Put, Store, WrTmp
from repro.symexec.state import (
    CallSiteSummary,
    Constraint,
    DefPair,
    FunctionSummary,
    SymState,
    VarUse,
)
from repro.symexec.value import (
    SymConst,
    SymRet,
    SymVar,
    mk_binop,
    mk_deref,
    mk_ite,
    mk_unop,
)

SP0 = SymVar("sp0")
RETURN_SENTINEL = SymVar("<return>")


class SymbolicEngine:
    """Runs the static symbolic analysis over recovered functions."""

    def __init__(self, binary, max_paths=64, max_blocks_per_path=256,
                 track_register_defs=False, deadline_seconds=None):
        self.binary = binary
        self.arch = binary.arch
        self.cc = binary.arch.cc
        self.max_paths = max_paths
        self.max_blocks_per_path = max_blocks_per_path
        # Soft per-function wall-clock budget.  The path/block caps
        # bound the *shape* of exploration but not its duration on
        # pathological functions (wide fork fans of cheap paths); the
        # deadline bounds time directly.  Hitting it flags the summary
        # ``truncated`` — everything explored so far still counts.
        self.deadline_seconds = deadline_seconds or None
        # The top-down baseline mirrors angr's DDG, which "builds data
        # dependence on every variable (in the register and memory)";
        # DTaint itself keeps register flow implicit in the symbols.
        self.track_register_defs = track_register_defs

    # ------------------------------------------------------------------

    def initial_state(self):
        state = SymState()
        for i, reg in enumerate(self.cc.arg_regs):
            state.set_reg(reg, SymVar("arg%d" % i))
        state.set_reg(self.cc.sp_reg, SP0)
        state.set_reg(self.cc.ra_reg, RETURN_SENTINEL)
        # Stack arguments arg4..arg9 live above the frame.
        base = self.cc.stack_arg_offset
        for i in range(4, self.cc.max_args):
            slot = mk_binop(
                "Add32", SP0, SymConst(base + 4 * (i - 4))
            )
            state.memory.write(slot, SymVar("arg%d" % i), 4)
        # Flag thunk starts neutral.
        for reg in self.arch.flag_registers:
            state.set_reg(reg, SymConst(0))
        return state

    def analyze_function(self, function):
        """Explore ``function``; return its :class:`FunctionSummary`."""
        # The phase counter lives *here*, not in the detector, so a
        # summary served from cache never registers as symbolic
        # execution — warm fleet runs must show symexec_functions == 0.
        with PROFILER.phase("symexec"):
            PROFILER.count("symexec_functions")
            return self._analyze_function(function)

    def _analyze_function(self, function):
        faultinject.check("symexec", function.name)
        summary = FunctionSummary(name=function.name, addr=function.addr)
        if function.is_import or function.entry_block is None:
            return summary

        from repro.cfg.loops import loop_membership

        loops = loop_membership(function)
        defs_seen = set()
        uses_seen = set()
        constraints_seen = set()

        deadline = None
        if self.deadline_seconds:
            deadline = time.monotonic() + self.deadline_seconds

        stack = [(function.addr, self.initial_state())]
        while stack:
            if summary.paths_explored >= self.max_paths:
                summary.truncated = True
                break
            if self._deadline_hit(deadline, function.name):
                summary.truncated = True
                summary.deadline_hit = True
                break
            block_addr, state = stack.pop()
            path_ended = True
            steps = 0
            current = block_addr
            while current is not None:
                steps += 1
                if steps > self.max_blocks_per_path:
                    summary.truncated = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    summary.truncated = True
                    summary.deadline_hit = True
                    break
                block = function.blocks.get(current)
                if block is None or current in state.visited:
                    break
                state.visited.add(current)
                in_loop = bool(loops.get(current))
                successors = self._execute_block(
                    block, state, summary, defs_seen, uses_seen,
                    constraints_seen, in_loop, function,
                )
                if not successors:
                    current = None
                    continue
                # Depth-first: continue into the first successor, fork
                # the rest.
                current = successors[0][0]
                state = successors[0][1]
                for addr, forked in successors[1:]:
                    stack.append((addr, forked))
            summary.paths_explored += 1
        return summary

    def _deadline_hit(self, deadline, function_name):
        """True when the soft deadline expired (or one was injected)."""
        try:
            faultinject.check("symexec.deadline", function_name)
        except DeadlineExceeded:
            return True
        return deadline is not None and time.monotonic() > deadline

    # ------------------------------------------------------------------

    def _execute_block(self, block, state, summary, defs_seen, uses_seen,
                       constraints_seen, in_loop, function):
        """Run one IRSB; returns list of (successor_addr, state)."""
        irsb = block.irsb
        tmps = {}
        site = block.addr
        successors = []

        def eval_expr(expr):
            if isinstance(expr, Const):
                return SymConst(expr.value)
            if isinstance(expr, RdTmp):
                return tmps[expr.tmp]
            if isinstance(expr, Get):
                value = state.get_reg(expr.reg)
                if value is None:
                    value = SymVar("init_%s" % expr.reg)
                    state.set_reg(expr.reg, value)
                return value
            if isinstance(expr, Load):
                addr = eval_expr(expr.addr)
                value, hit = state.memory.read(addr, expr.size)
                if not hit:
                    folded = self._read_global(addr, expr.size)
                    if folded is not None:
                        return folded
                    use = VarUse(var=value, site=site)
                    if use not in uses_seen:
                        uses_seen.add(use)
                        summary.uses.append(use)
                return value
            if isinstance(expr, Binop):
                return mk_binop(expr.op, eval_expr(expr.left),
                                eval_expr(expr.right))
            if isinstance(expr, Unop):
                return mk_unop(expr.op, eval_expr(expr.arg))
            if isinstance(expr, ITE):
                return mk_ite(
                    eval_expr(expr.cond), eval_expr(expr.iftrue),
                    eval_expr(expr.iffalse),
                )
            raise SymExecError("cannot evaluate %r" % (expr,))

        # eval_expr recurses through its own closure cell; emptying the
        # cell when the block ends breaks that cycle, so the block's
        # state is freed by reference counting, not by the collector.
        try:
            for stmt in irsb.stmts:
                if isinstance(stmt, IMark):
                    site = stmt.addr
                    continue
                if isinstance(stmt, WrTmp):
                    tmps[stmt.tmp] = eval_expr(stmt.expr)
                elif isinstance(stmt, Put):
                    value = eval_expr(stmt.expr)
                    state.set_reg(stmt.reg, value)
                    if self.track_register_defs:
                        summary.register_defs.append((stmt.reg, site, value))
                elif isinstance(stmt, Store):
                    addr = eval_expr(stmt.addr)
                    value = eval_expr(stmt.data)
                    state.memory.write(addr, value, stmt.size)
                    pair = DefPair(dest=mk_deref(addr, stmt.size), value=value,
                                   site=site)
                    if pair not in defs_seen:
                        defs_seen.add(pair)
                        summary.def_pairs.append(pair)
                    if in_loop:
                        summary.loop_stores.append((site, pair.dest, value))
                elif isinstance(stmt, Exit):
                    guard = eval_expr(stmt.guard)
                    if isinstance(guard, SymConst):
                        if guard.value:
                            # Unconditionally taken.
                            if stmt.target in function.blocks:
                                return [(stmt.target, state)]
                            return []
                        continue
                    if stmt.target in function.blocks:
                        forked = state.fork()
                        taken = Constraint(expr=guard, taken=True, site=site)
                        forked.constraints.append(taken)
                        self._record_constraint(
                            taken, summary, constraints_seen
                        )
                        successors.append((stmt.target, forked))
                    fallthrough = Constraint(expr=guard, taken=False,
                                             site=site)
                    state.constraints.append(fallthrough)
                    self._record_constraint(
                        fallthrough, summary, constraints_seen
                    )
                else:
                    raise SymExecError("unhandled statement %r" % (stmt,))

            # Block-ending transfer.
            if irsb.jumpkind == JumpKind.RET:
                summary.ret_values.append(
                    state.get_reg(self.cc.ret_reg, SymConst(0))
                )
                return successors
            if block.call is not None:
                # Regular calls lift as Ijk_Call; direct tail calls lift as
                # plain jumps but carry a CallSite from CFG recovery.
                self._summarize_call(block, irsb, state, summary, eval_expr)
                if block.successors:
                    successors.insert(0, (block.successors[0], state))
                else:
                    # Tail call: the callee's return value is ours.
                    summary.ret_values.append(SymRet(block.call.addr))
                return successors

            next_value = eval_expr(irsb.next_expr)
            if isinstance(next_value, SymConst) and (
                next_value.value in function.blocks
            ):
                successors.insert(0, (next_value.value, state))
            elif block.successors:
                remaining = [
                    s for s in block.successors
                    if all(s != addr for addr, _ in successors)
                ]
                if remaining:
                    successors.insert(0, (remaining[0], state))
            return successors
        finally:
            del eval_expr

    def _record_constraint(self, constraint, summary, seen):
        key = (constraint.expr, constraint.taken)
        if key not in seen:
            seen.add(key)
            summary.constraints.append(constraint)

    def _read_global(self, addr, size):
        """Fold loads from read-only globals (e.g. function-pointer tables)."""
        if not isinstance(addr, SymConst):
            return None
        value = self.binary.read_ro(addr.value, size)
        if value is None:
            return None
        return SymConst(value)

    def _summarize_call(self, block, irsb, state, summary, eval_expr):
        callsite = block.call
        if callsite is None:
            raise SymExecError("call block 0x%x without call info" % block.addr)
        if callsite.target_name is not None:
            target = callsite.target_name
        else:
            target = eval_expr(irsb.next_expr)
            if isinstance(target, SymConst):
                symbol = self._function_at(target.value)
                if symbol is not None:
                    target = symbol.name
                    callsite.target_addr = symbol.addr
                    callsite.target_name = symbol.name
        args = [
            state.get_reg(reg, SymVar("init_%s" % reg))
            for reg in self.cc.arg_regs
        ]
        sp = state.get_reg(self.cc.sp_reg, SP0)
        stack_args = []
        for i in range(4):
            slot = mk_binop(
                "Add32", sp, SymConst(self.cc.stack_arg_offset + 4 * i)
            )
            value, hit = state.memory.read(slot, 4)
            stack_args.append(value if hit else None)
        info = CallSiteSummary(
            addr=callsite.addr,
            target=target,
            args=args,
            return_addr=callsite.return_addr,
            constraints=tuple(state.constraints),
            stack_args=stack_args,
        )
        summary.callsites.append(info)
        # Hook the callee: unique return symbol, continue at the return
        # site (paper §III-B).
        state.set_reg(self.cc.ret_reg, SymRet(callsite.addr))

    def _function_at(self, addr):
        for symbol in self.binary.functions.values():
            if symbol.addr == addr:
                return symbol
        return None
