"""Position-independent function fingerprints (the dedup currency).

A fleet of firmware images repeats itself: the same libc, the same
busybox, the same vendor CGI handlers recur across products and
versions, relinked at different addresses with shuffled literal pools.
The per-binary cache key ``(binary-sha256, function-addr)`` cannot see
that redundancy — one flipped byte anywhere re-keys every function.

This module canonicalises a function's lifted IR into a form that is
invariant under relocation and hashes it:

* **addresses** — instruction marks, branch targets and in-function
  references become entry-relative offsets; direct call/branch targets
  that resolve to a known function become ``f:<name>`` tokens; block
  successors become block indices;
* **literal pools** — a constant that points into a mapped data
  segment is replaced by a *content* token (``g:<symbol>`` for a named
  global, ``d:<sha of the bytes>`` for read-only data, ``w:?`` for
  anonymous writable data) and its raw value is appended to an ordered
  ``literals`` table.  Two isomorphic functions therefore hash equal
  and their literal tables align positionally — exactly the mapping
  :mod:`repro.increment.relocate` needs to rebase a cached summary;
* **temporaries** — renumbered densely in first-use order per block.

The **local** fingerprint hashes only the function's own canonical
body.  The **closure** fingerprint combines it Merkle-style with the
closure fingerprints of its resolved callees (SCCs collapsed so
recursion hashes as a unit), so it changes exactly when the function
*or anything it can reach* changes — the condition under which a
bottom-up summary (and everything derived from it) is reusable across
addresses, binaries, and images.
"""

import hashlib
from dataclasses import dataclass

from repro.cfg.callgraph import condense
from repro.ir.expr import ITE, Binop, Const, Get, Load, RdTmp, Unop
from repro.ir.stmt import Exit, IMark, Put, Store, WrTmp

# Constants below this value are never treated as addresses; embedded
# images do not map the zero page and immediates cluster small.
_MIN_ADDR = 0x1000


@dataclass(frozen=True)
class FunctionFingerprint:
    """One function's identity in the fleet dedup index."""

    name: str
    addr: int
    local: str        # hex digest of the canonical body
    closure: str      # Merkle digest over the callee closure
    literals: tuple   # data addresses, in canonical rendering order
    reach: frozenset  # names in the direct callee closure, self included
    scc: frozenset    # names in its call-graph SCC, self included

    @property
    def key(self):
        return self.closure


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class _Canonicalizer:
    """Renders one function's IR as relocation-invariant tokens."""

    def __init__(self, binary, function, func_by_addr, data_syms):
        self.binary = binary
        self.function = function
        self.entry = function.addr
        self.func_by_addr = func_by_addr
        self.data_syms = data_syms
        self.literals = []
        self._block_index = {
            addr: index
            for index, addr in enumerate(sorted(function.blocks))
        }
        self._tmp_map = {}

    # -- constants ---------------------------------------------------------

    def _const_token(self, value):
        name = self.func_by_addr.get(value)
        if name is not None:
            return "f:%s" % name
        if self.function.contains(value):
            return "l:%d" % (value - self.entry)
        if value >= _MIN_ADDR and self.binary.segment_for(value) is not None:
            self.literals.append(value)
            symbol = self.data_syms.get(value)
            if symbol is not None:
                return "g:%s" % symbol
            if self.binary.read_ro(value, 1) is not None:
                content = self.binary.read_cstring(value) or b""
                return "d:%s" % hashlib.sha256(
                    content[:64]
                ).hexdigest()[:12]
            # Anonymous writable data: the address is an opaque cell
            # the summary only ever dereferences symbolically, so the
            # token carries no content (content is mutable anyway).
            return "w:?"
        return "c:%x" % value

    # -- expressions -------------------------------------------------------

    def _tmp(self, index):
        canon = self._tmp_map.get(index)
        if canon is None:
            canon = self._tmp_map[index] = len(self._tmp_map)
        return canon

    def _expr(self, expr):
        if isinstance(expr, Const):
            return "%s#%d" % (self._const_token(expr.value), expr.size)
        if isinstance(expr, RdTmp):
            return "t%d" % self._tmp(expr.tmp)
        if isinstance(expr, Get):
            return "r:%s" % expr.reg
        if isinstance(expr, Load):
            return "LD%d%s(%s)" % (
                expr.size, "s" if expr.signed else "",
                self._expr(expr.addr),
            )
        if isinstance(expr, Binop):
            return "%s(%s,%s)" % (
                expr.op, self._expr(expr.left), self._expr(expr.right)
            )
        if isinstance(expr, Unop):
            return "%s(%s)" % (expr.op, self._expr(expr.arg))
        if isinstance(expr, ITE):
            return "ITE(%s,%s,%s)" % (
                self._expr(expr.cond), self._expr(expr.iftrue),
                self._expr(expr.iffalse),
            )
        if expr is None:
            return "-"
        return "?:%r" % (expr,)

    def _target(self, addr):
        index = self._block_index.get(addr)
        if index is not None:
            return "B%d" % index
        return self._const_token(addr)

    # -- statements --------------------------------------------------------

    def render(self):
        """The canonical token list + the ordered literal table."""
        tokens = []
        for addr in sorted(self.function.blocks):
            block = self.function.blocks[addr]
            self._tmp_map = {}
            tokens.append("B%d" % self._block_index[addr])
            irsb = block.irsb
            if irsb is None:
                continue
            for stmt in irsb.stmts:
                if isinstance(stmt, IMark):
                    tokens.append("I%d" % (stmt.addr - self.entry))
                elif isinstance(stmt, WrTmp):
                    tokens.append(
                        "t%d=%s" % (self._tmp(stmt.tmp),
                                    self._expr(stmt.expr))
                    )
                elif isinstance(stmt, Put):
                    tokens.append(
                        "P:%s=%s" % (stmt.reg, self._expr(stmt.expr))
                    )
                elif isinstance(stmt, Store):
                    tokens.append(
                        "S%d:%s=%s" % (stmt.size, self._expr(stmt.addr),
                                       self._expr(stmt.data))
                    )
                elif isinstance(stmt, Exit):
                    tokens.append(
                        "X:%s->%s:%s" % (self._expr(stmt.guard),
                                         self._target(stmt.target),
                                         stmt.jumpkind)
                    )
                else:
                    tokens.append("?:%r" % (stmt,))
            next_token = (
                self._target(irsb.next_expr.value)
                if isinstance(irsb.next_expr, Const)
                else self._expr(irsb.next_expr)
            )
            tokens.append("N:%s:%s" % (next_token, irsb.jumpkind))
            if irsb.return_addr is not None:
                tokens.append("R%d" % (irsb.return_addr - self.entry))
        return tokens, self.literals


def fingerprint_functions(binary, functions, call_graph):
    """Fingerprint every analysed function; name -> FunctionFingerprint.

    ``functions`` is the detector's recovered-function map (imports
    included; they are skipped), ``call_graph`` the direct-edge call
    graph built from it.  Indirect edges resolved later by structure
    similarity are deliberately excluded: base summaries are computed
    before resolution, so the closure over *direct* edges is the exact
    invalidation condition for the cached artefact.  Each fingerprint
    also names the functions that closure covers (``reach``) and the
    members of its recursion SCC (``scc``).
    """
    func_by_addr = {}
    for symbol in binary.functions.values():
        func_by_addr[symbol.addr] = symbol.name
    for function in functions.values():
        func_by_addr.setdefault(function.addr, function.name)
    data_syms = {addr: name for name, addr in binary.data_symbols.items()}

    locals_ = {}
    literals = {}
    for name, function in functions.items():
        if function.is_import or not function.blocks:
            continue
        tokens, lits = _Canonicalizer(
            binary, function, func_by_addr, data_syms
        ).render()
        locals_[name] = _digest("\n".join(tokens))
        literals[name] = tuple(lits)

    # Merkle closure over the direct call graph.  Import callees
    # already appear as ``f:<name>`` tokens in the caller's local hash
    # (their behaviour is the name-keyed libc model), so the closure
    # graph spans analysed functions only.
    adjacency = {
        name: [c for c in call_graph.callees(name) if c in locals_]
        for name in locals_
    }
    scc_of = {}
    scc_closure = []
    sccs = []
    reach = []
    for scc_id, members in enumerate(condense(adjacency)):
        members = frozenset(members)
        for member in members:
            scc_of[member] = scc_id
        successors = {
            scc_of[callee] for member in members
            for callee in adjacency[member]
        }
        successors.discard(scc_id)
        member_part = "|".join(sorted(locals_[m] for m in members))
        callee_part = "|".join(sorted(scc_closure[s] for s in successors))
        scc_closure.append(_digest(member_part + "#" + callee_part))
        sccs.append(members)
        reach.append(members.union(*(reach[s] for s in successors)))

    out = {}
    for name, local in locals_.items():
        closure = _digest(local + "@" + scc_closure[scc_of[name]])
        out[name] = FunctionFingerprint(
            name=name,
            addr=functions[name].addr,
            local=local,
            closure=closure,
            literals=literals[name],
            reach=reach[scc_of[name]],
            scc=sccs[scc_of[name]],
        )
    return out


def address_taken_sequence(binary):
    """Function names stored in data segments, in segment/word order.

    Indirect-call resolution reads function addresses out of writable
    data (dispatch slots), so two images that share every function
    closure can still *detect* differently if a slot points at a
    different handler.  This sequence is position-independent (names,
    not addresses) and joins the image fingerprint to keep the
    findings store sound.
    """
    entries = {
        s.addr: s.name for s in binary.functions.values() if not s.is_import
    }
    sequence = []
    for vaddr, data, executable in binary.segments:
        if executable:
            continue
        big = binary.arch.is_big_endian
        for offset in range(0, len(data) - 3, 4):
            word = int.from_bytes(
                data[offset:offset + 4], "big" if big else "little"
            )
            name = entries.get(word)
            if name is not None:
                sequence.append(name)
    return tuple(sequence)


def image_fingerprint(fingerprints, binary, config_fp):
    """Content address of a whole image's analysis-relevant identity.

    Hashes the sorted (function, closure) pairs, the address-taken
    sequence, and the report-level config fingerprint.  Two binaries
    with equal image fingerprints produce the same findings modulo a
    rigid address shift — the reuse condition for the fleet findings
    store.
    """
    rows = [
        "%s=%s" % (name, fp.closure)
        for name, fp in sorted(fingerprints.items())
    ]
    rows.append("data:" + ",".join(address_taken_sequence(binary)))
    rows.append("cfg:%s" % (config_fp or ""))
    return _digest("\n".join(rows))
