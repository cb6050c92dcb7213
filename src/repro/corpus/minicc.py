"""minicc: a tiny structured code generator targeting both ISAs.

The corpus needs the same vulnerability pattern expressed in ARM and
MIPS machine code (the paper's six firmware images span both).  minicc
compiles a small statement AST to our assembler dialect:

* locals live on the stack; incoming register arguments are spilled to
  the frame in the prologue, so ``arg(i)`` stays valid across calls;
* expressions are depth-one (operands are immediates, locals, argument
  spills, field loads, or address-of) — enough for handler-shaped code
  while keeping the register allocation trivial;
* string literals are pooled into ``.rodata``.

Used by :mod:`repro.corpus.vulnpatterns` for the CVE handlers and by
:mod:`repro.corpus.profiles` for procedurally generated filler
functions.
"""

from dataclasses import dataclass, field

from repro.errors import CorpusError
from repro.utils.bits import align_up

# ---------------------------------------------------------------------------
# Expression AST.


@dataclass(frozen=True)
class Imm:
    value: int


@dataclass(frozen=True)
class Var:
    """Value of a local variable (4-byte slot)."""

    name: str


@dataclass(frozen=True)
class Arg:
    """Value of the i-th incoming argument (from its spill slot)."""

    index: int


@dataclass(frozen=True)
class Addr:
    """Address of a local buffer."""

    name: str


@dataclass(frozen=True)
class Str:
    """Address of a pooled string literal."""

    text: str


@dataclass(frozen=True)
class Glob:
    """Address of a global symbol (a ``.data``/``.rodata`` label)."""

    name: str


@dataclass(frozen=True)
class Load:
    """``*(base + offset)`` where base is a local/arg value."""

    base: object
    offset: int = 0
    size: int = 4


@dataclass(frozen=True)
class BinOp:
    """``left <op> right`` with op in +,-,&,|,^,<<,>>."""

    op: str
    left: object
    right: object


def imm(value):
    return Imm(value)


def var(name):
    return Var(name)


def arg(index):
    return Arg(index)


def addr(name):
    return Addr(name)


def load(base, offset=0, size=4):
    return Load(base, offset, size)


def binop(op, left, right):
    return BinOp(op, left, right)


# ---------------------------------------------------------------------------
# Statement AST.


@dataclass
class DeclBuf:
    name: str
    size: int


@dataclass
class DeclVar:
    name: str
    init: object = None


@dataclass
class Set:
    name: str
    value: object


@dataclass
class Call:
    dest: str          # local name receiving the return value, or None
    function: str
    args: list


@dataclass
class CallPtr:
    """Indirect call through a function-pointer expression."""

    dest: str          # local receiving the return value, or None
    target: object     # expression evaluating to the callee address
    args: list


@dataclass
class Store:
    """``*(base + offset) = value``."""

    base: object
    offset: int
    value: object
    size: int = 4


@dataclass
class If:
    left: object
    cond: str          # eq, ne, lt, le, gt, ge, ltu, leu, gtu, geu
    right: object
    then_body: list
    else_body: list = field(default_factory=list)


@dataclass
class While:
    left: object
    cond: str
    right: object
    body: list


@dataclass
class Ret:
    value: object = None


@dataclass
class MiniFunc:
    """One function: name, declared parameter count, body statements."""

    name: str
    params: int
    body: list
    exported: bool = True


# ---------------------------------------------------------------------------
# Shared compilation helpers.


class _Frame:
    """Stack slot assignment: buffers and 4-byte locals."""

    def __init__(self, reserve=0):
        self._slots = {}
        self._cursor = reserve

    def declare(self, name, size):
        if name in self._slots:
            raise CorpusError("duplicate local %r" % name)
        self._cursor = align_up(self._cursor, 4)
        self._slots[name] = self._cursor
        self._cursor += align_up(size, 4)

    def offset(self, name):
        try:
            return self._slots[name]
        except KeyError:
            raise CorpusError("undeclared local %r" % name)

    def __contains__(self, name):
        return name in self._slots

    @property
    def size(self):
        return align_up(self._cursor, 8)


class _Strings:
    """Pools string literals shared across one module."""

    def __init__(self, prefix):
        self.prefix = prefix
        self._by_text = {}

    def label(self, text):
        if text not in self._by_text:
            self._by_text[text] = "%s_str%d" % (self.prefix, len(self._by_text))
        return self._by_text[text]

    def rodata(self):
        lines = []
        for text, label in self._by_text.items():
            escaped = (
                text.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n").replace("\t", "\\t")
            )
            lines.append('%s: .asciz "%s"' % (label, escaped))
            lines.append(".align 2")
        return lines


class _LabelMaker:
    def __init__(self, function_name):
        self.base = ".L%s" % function_name
        self.counter = 0

    def fresh(self, tag):
        self.counter += 1
        return "%s_%s%d" % (self.base, tag, self.counter)


def _collect_frame(func, reserve):
    """Walk the body once to lay out the frame (plus arg spills)."""
    frame = _Frame(reserve=reserve)
    for index in range(func.params):
        frame.declare("__arg%d" % index, 4)

    def walk(statements):
        for statement in statements:
            if isinstance(statement, DeclBuf):
                frame.declare(statement.name, statement.size)
            elif isinstance(statement, DeclVar):
                frame.declare(statement.name, 4)
            elif isinstance(statement, If):
                walk(statement.then_body)
                walk(statement.else_body)
            elif isinstance(statement, While):
                walk(statement.body)

    walk(func.body)
    return frame


COND_NEGATION = {
    "eq": "ne", "ne": "eq",
    "lt": "ge", "ge": "lt", "gt": "le", "le": "gt",
    "ltu": "geu", "geu": "ltu", "gtu": "leu", "leu": "gtu",
}


class Compiler:
    """Base class; subclasses provide the per-ISA instruction shapes."""

    def __init__(self, module_name):
        self.strings = _Strings(module_name)
        self.module_name = module_name

    def compile_module(self, functions, extra_rodata=(), extra_data=()):
        """Compile functions; return (text_source, import_names)."""
        lines = []
        imports = set()
        defined = {f.name for f in functions}
        for func in functions:
            lines.extend(self.compile_function(func, defined, imports))
            lines.append("")
        rodata = self.strings.rodata()
        source = "\n".join(lines)
        if rodata or extra_rodata:
            source += "\n.rodata\n" + "\n".join(
                list(extra_rodata) + rodata
            ) + "\n"
        if extra_data:
            source += "\n.data\n" + "\n".join(extra_data) + "\n"
        return source, sorted(imports)

    def compile_function(self, func, defined, imports):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ARM backend.


class ArmCompiler(Compiler):
    """Emits AAPCS-shaped ARM32."""

    arch = "arm"

    def compile_function(self, func, defined, imports):
        frame = _collect_frame(func, reserve=0)
        labels = _LabelMaker(func.name)
        out = []
        if func.exported:
            out.append(".globl %s" % func.name)
        out.append("%s:" % func.name)
        out.append("    push {r4, r5, r6, r7, lr}")
        if frame.size:
            self._emit_sp_adjust(out, "sub", frame.size)
        for index in range(min(func.params, 4)):
            out.append("    str r%d, [sp, #%d]"
                       % (index, frame.offset("__arg%d" % index)))

        end_label = labels.fresh("end")
        self._body(out, func.body, frame, labels, end_label, defined, imports)
        out.append("%s:" % end_label)
        if frame.size:
            self._emit_sp_adjust(out, "add", frame.size)
        out.append("    pop {r4, r5, r6, r7, pc}")
        out.append(".ltorg")
        return out

    def _emit_sp_adjust(self, out, op, size):
        # Split into rotate-encodable (8-bit, even-rotation) chunks.
        remaining = size
        while remaining:
            shift = max(0, remaining.bit_length() - 8)
            shift += shift % 2
            chunk = remaining & (0xFF << shift)
            out.append("    %s sp, sp, #0x%x" % (op, chunk))
            remaining -= chunk

    @staticmethod
    def _add_imm(out, dst, src, value):
        """``dst = src + value`` with rotate-encodable chunking."""
        remaining = value
        current = src
        while remaining:
            shift = max(0, remaining.bit_length() - 8)
            shift += shift % 2
            chunk = remaining & (0xFF << shift)
            out.append("    add %s, %s, #0x%x" % (dst, current, chunk))
            current = dst
            remaining -= chunk

    # -- expressions -----------------------------------------------------

    def _eval(self, out, expr, reg, frame):
        """Materialise ``expr`` into register ``reg``."""
        if isinstance(expr, Imm):
            if 0 <= expr.value <= 0xFF:
                out.append("    mov %s, #%d" % (reg, expr.value))
            else:
                out.append("    ldr %s, =0x%x" % (reg, expr.value & 0xFFFFFFFF))
        elif isinstance(expr, Var):
            out.append("    ldr %s, [sp, #%d]" % (reg, frame.offset(expr.name)))
        elif isinstance(expr, Arg):
            out.append("    ldr %s, [sp, #%d]"
                       % (reg, frame.offset("__arg%d" % expr.index)))
        elif isinstance(expr, Addr):
            offset = frame.offset(expr.name)
            if offset:
                self._add_imm(out, reg, "sp", offset)
            else:
                out.append("    mov %s, sp" % reg)
        elif isinstance(expr, Str):
            out.append("    ldr %s, =%s" % (reg, self.strings.label(expr.text)))
        elif isinstance(expr, Glob):
            out.append("    ldr %s, =%s" % (reg, expr.name))
        elif isinstance(expr, Load):
            self._eval(out, expr.base, reg, frame)
            op = {1: "ldrb", 2: "ldrh", 4: "ldr"}[expr.size]
            if expr.offset:
                out.append("    %s %s, [%s, #%d]" % (op, reg, reg, expr.offset))
            else:
                out.append("    %s %s, [%s]" % (op, reg, reg))
        elif isinstance(expr, BinOp):
            if reg == "r7":
                raise CorpusError("r7 is the BinOp scratch register")
            self._eval(out, expr.left, reg, frame)
            if expr.op == "<<":
                if not isinstance(expr.right, Imm):
                    raise CorpusError("only constant shifts are supported")
                out.append("    mov %s, %s, lsl #%d"
                           % (reg, reg, expr.right.value))
                return
            self._eval(out, expr.right, "r7", frame)
            mnem = {"+": "add", "-": "sub", "&": "and", "|": "orr",
                    "^": "eor"}.get(expr.op)
            if mnem is None:
                raise CorpusError("unsupported op %r" % expr.op)
            out.append("    %s %s, %s, r7" % (mnem, reg, reg))
        else:
            raise CorpusError("unsupported expression %r" % (expr,))

    # -- statements --------------------------------------------------------

    def _body(self, out, statements, frame, labels, end_label, defined,
              imports):
        for statement in statements:
            if isinstance(statement, (DeclBuf,)):
                continue
            if isinstance(statement, DeclVar):
                if statement.init is not None:
                    self._eval(out, statement.init, "r4", frame)
                    out.append("    str r4, [sp, #%d]"
                               % frame.offset(statement.name))
                continue
            if isinstance(statement, Set):
                self._eval(out, statement.value, "r4", frame)
                out.append("    str r4, [sp, #%d]"
                           % frame.offset(statement.name))
                continue
            if isinstance(statement, Call):
                if len(statement.args) > 4:
                    self._stack_args(out, statement.args[4:], frame)
                for index, argument in enumerate(statement.args[:4]):
                    self._eval(out, argument, "r%d" % index, frame)
                if statement.function not in defined:
                    imports.add(statement.function)
                out.append("    bl %s" % statement.function)
                if len(statement.args) > 4:
                    out.append("    add sp, sp, #%d"
                               % (4 * len(statement.args[4:])))
                if statement.dest is not None:
                    out.append("    str r0, [sp, #%d]"
                               % frame.offset(statement.dest))
                continue
            if isinstance(statement, CallPtr):
                self._eval(out, statement.target, "r6", frame)
                for index, argument in enumerate(statement.args[:4]):
                    self._eval(out, argument, "r%d" % index, frame)
                out.append("    blx r6")
                if statement.dest is not None:
                    out.append("    str r0, [sp, #%d]"
                               % frame.offset(statement.dest))
                continue
            if isinstance(statement, Store):
                self._eval(out, statement.value, "r4", frame)
                self._eval(out, statement.base, "r5", frame)
                op = {1: "strb", 2: "strh", 4: "str"}[statement.size]
                if statement.offset:
                    out.append("    %s r4, [r5, #%d]" % (op, statement.offset))
                else:
                    out.append("    %s r4, [r5]" % op)
                continue
            if isinstance(statement, If):
                else_label = labels.fresh("else")
                done_label = labels.fresh("done")
                self._branch_unless(out, statement, else_label, frame)
                self._body(out, statement.then_body, frame, labels,
                           end_label, defined, imports)
                if statement.else_body:
                    out.append("    b %s" % done_label)
                out.append("%s:" % else_label)
                if statement.else_body:
                    self._body(out, statement.else_body, frame, labels,
                               end_label, defined, imports)
                    out.append("%s:" % done_label)
                continue
            if isinstance(statement, While):
                head = labels.fresh("loop")
                exit_label = labels.fresh("break")
                out.append("%s:" % head)
                self._branch_unless(out, statement, exit_label, frame)
                self._body(out, statement.body, frame, labels, end_label,
                           defined, imports)
                out.append("    b %s" % head)
                out.append("%s:" % exit_label)
                continue
            if isinstance(statement, Ret):
                if statement.value is not None:
                    self._eval(out, statement.value, "r0", frame)
                out.append("    b %s" % end_label)
                continue
            raise CorpusError("unsupported statement %r" % (statement,))

    def _stack_args(self, out, extra, frame):
        out.append("    sub sp, sp, #%d" % (4 * len(extra)))
        for index, argument in enumerate(extra):
            self._eval(out, argument, "r4", frame)
            out.append("    str r4, [sp, #%d]" % (4 * index))

    def _branch_unless(self, out, statement, target, frame):
        """Branch to ``target`` when the condition is false."""
        self._eval(out, statement.left, "r4", frame)
        if isinstance(statement.right, Imm) and 0 <= statement.right.value <= 0xFF:
            out.append("    cmp r4, #%d" % statement.right.value)
        else:
            self._eval(out, statement.right, "r5", frame)
            out.append("    cmp r4, r5")
        negated = COND_NEGATION[statement.cond]
        suffix = {"ltu": "cc", "geu": "cs", "gtu": "hi", "leu": "ls"}.get(
            negated, negated
        )
        out.append("    b%s %s" % (suffix, target))


# ---------------------------------------------------------------------------
# MIPS backend.


class MipsCompiler(Compiler):
    """Emits o32-shaped big-endian MIPS32 with explicit delay slots."""

    arch = "mips"

    def compile_function(self, func, defined, imports):
        # o32: keep a 16-byte outgoing-argument home area + ra slot.
        frame = _collect_frame(func, reserve=24)
        labels = _LabelMaker(func.name)
        out = []
        if func.exported:
            out.append(".globl %s" % func.name)
        out.append("%s:" % func.name)
        out.append("    addiu $sp, $sp, -%d" % frame.size)
        out.append("    sw $ra, 20($sp)")
        for index in range(min(func.params, 4)):
            out.append("    sw $a%d, %d($sp)"
                       % (index, frame.offset("__arg%d" % index)))
        end_label = labels.fresh("end")
        self._body(out, func.body, frame, labels, end_label, defined, imports)
        out.append("%s:" % end_label)
        out.append("    lw $ra, 20($sp)")
        out.append("    jr $ra")
        out.append("    addiu $sp, $sp, %d" % frame.size)
        return out

    # -- expressions ---------------------------------------------------------

    def _eval(self, out, expr, reg, frame):
        if isinstance(expr, Imm):
            out.append("    li %s, %d" % (reg, expr.value))
        elif isinstance(expr, Var):
            out.append("    lw %s, %d($sp)" % (reg, frame.offset(expr.name)))
        elif isinstance(expr, Arg):
            out.append("    lw %s, %d($sp)"
                       % (reg, frame.offset("__arg%d" % expr.index)))
        elif isinstance(expr, Addr):
            out.append("    addiu %s, $sp, %d" % (reg, frame.offset(expr.name)))
        elif isinstance(expr, Str):
            out.append("    la %s, %s" % (reg, self.strings.label(expr.text)))
        elif isinstance(expr, Glob):
            out.append("    la %s, %s" % (reg, expr.name))
        elif isinstance(expr, Load):
            self._eval(out, expr.base, reg, frame)
            op = {1: "lbu", 2: "lhu", 4: "lw"}[expr.size]
            out.append("    %s %s, %d(%s)" % (op, reg, expr.offset, reg))
        elif isinstance(expr, BinOp):
            if reg == "$t7":
                raise CorpusError("$t7 is the BinOp scratch register")
            self._eval(out, expr.left, reg, frame)
            if expr.op == "<<":
                if not isinstance(expr.right, Imm):
                    raise CorpusError("only constant shifts are supported")
                out.append("    sll %s, %s, %d" % (reg, reg, expr.right.value))
                return
            self._eval(out, expr.right, "$t7", frame)
            mnem = {"+": "addu", "-": "subu", "&": "and", "|": "or",
                    "^": "xor"}.get(expr.op)
            if mnem is None:
                raise CorpusError("unsupported op %r" % expr.op)
            out.append("    %s %s, %s, $t7" % (mnem, reg, reg))
        else:
            raise CorpusError("unsupported expression %r" % (expr,))

    # -- statements --------------------------------------------------------------

    def _body(self, out, statements, frame, labels, end_label, defined,
              imports):
        for statement in statements:
            if isinstance(statement, DeclBuf):
                continue
            if isinstance(statement, DeclVar):
                if statement.init is not None:
                    self._eval(out, statement.init, "$t0", frame)
                    out.append("    sw $t0, %d($sp)"
                               % frame.offset(statement.name))
                continue
            if isinstance(statement, Set):
                self._eval(out, statement.value, "$t0", frame)
                out.append("    sw $t0, %d($sp)" % frame.offset(statement.name))
                continue
            if isinstance(statement, Call):
                for index, argument in enumerate(statement.args[:4]):
                    self._eval(out, argument, "$a%d" % index, frame)
                for index, argument in enumerate(statement.args[4:]):
                    self._eval(out, argument, "$t0", frame)
                    out.append("    sw $t0, %d($sp)" % (16 + 4 * index))
                if statement.function not in defined:
                    imports.add(statement.function)
                out.append("    jal %s" % statement.function)
                out.append("    nop")
                if statement.dest is not None:
                    out.append("    sw $v0, %d($sp)"
                               % frame.offset(statement.dest))
                continue
            if isinstance(statement, CallPtr):
                # o32 indirect calls go through $t9.
                self._eval(out, statement.target, "$t9", frame)
                for index, argument in enumerate(statement.args[:4]):
                    self._eval(out, argument, "$a%d" % index, frame)
                out.append("    jalr $t9")
                out.append("    nop")
                if statement.dest is not None:
                    out.append("    sw $v0, %d($sp)"
                               % frame.offset(statement.dest))
                continue
            if isinstance(statement, Store):
                self._eval(out, statement.value, "$t0", frame)
                self._eval(out, statement.base, "$t1", frame)
                op = {1: "sb", 2: "sh", 4: "sw"}[statement.size]
                out.append("    %s $t0, %d($t1)" % (op, statement.offset))
                continue
            if isinstance(statement, If):
                else_label = labels.fresh("else")
                done_label = labels.fresh("done")
                self._branch_unless(out, statement, else_label, frame)
                self._body(out, statement.then_body, frame, labels,
                           end_label, defined, imports)
                if statement.else_body:
                    out.append("    b %s" % done_label)
                    out.append("    nop")
                out.append("%s:" % else_label)
                if statement.else_body:
                    self._body(out, statement.else_body, frame, labels,
                               end_label, defined, imports)
                    out.append("%s:" % done_label)
                continue
            if isinstance(statement, While):
                head = labels.fresh("loop")
                exit_label = labels.fresh("break")
                out.append("%s:" % head)
                self._branch_unless(out, statement, exit_label, frame)
                self._body(out, statement.body, frame, labels, end_label,
                           defined, imports)
                out.append("    b %s" % head)
                out.append("    nop")
                out.append("%s:" % exit_label)
                continue
            if isinstance(statement, Ret):
                if statement.value is not None:
                    self._eval(out, statement.value, "$v0", frame)
                out.append("    b %s" % end_label)
                out.append("    nop")
                continue
            raise CorpusError("unsupported statement %r" % (statement,))

    def _branch_unless(self, out, statement, target, frame):
        self._eval(out, statement.left, "$t0", frame)
        self._eval(out, statement.right, "$t1", frame)
        cond = statement.cond
        # Compose from slt/sltu/beq/bne; branch when condition FAILS.
        if cond == "eq":
            out.append("    bne $t0, $t1, %s" % target)
        elif cond == "ne":
            out.append("    beq $t0, $t1, %s" % target)
        elif cond in ("lt", "ltu"):
            op = "slt" if cond == "lt" else "sltu"
            out.append("    %s $t2, $t0, $t1" % op)
            out.append("    beq $t2, $zero, %s" % target)
        elif cond in ("ge", "geu"):
            op = "slt" if cond == "ge" else "sltu"
            out.append("    %s $t2, $t0, $t1" % op)
            out.append("    bne $t2, $zero, %s" % target)
        elif cond in ("gt", "gtu"):
            op = "slt" if cond == "gt" else "sltu"
            out.append("    %s $t2, $t1, $t0" % op)
            out.append("    beq $t2, $zero, %s" % target)
        elif cond in ("le", "leu"):
            op = "slt" if cond == "le" else "sltu"
            out.append("    %s $t2, $t1, $t0" % op)
            out.append("    bne $t2, $zero, %s" % target)
        else:
            raise CorpusError("unsupported condition %r" % cond)
        out.append("    nop")


def compiler_for(arch_name, module_name):
    if arch_name == "arm":
        return ArmCompiler(module_name)
    if arch_name == "mips":
        return MipsCompiler(module_name)
    raise CorpusError("unknown arch %r" % arch_name)
