"""Code generation: Minic AST -> intermediate-ISA Program.

Conventions:

* arguments arrive in registers 0..n-1 of a fresh frame (the VM's CALL
  semantics); register n holds the constant zero for global addressing,
* named scalar locals live in registers, local arrays in static storage,
* comparisons compile into compare-and-branch instructions directly
  (the paper's assumption), with short-circuit ``&&``/``||``,
* loops are rotated so the loop back-edge is a single conditional
  branch at the bottom (one branch per iteration, mostly taken —
  matching the branch mix of code from real compilers),
* dense ``switch`` statements become bounds-checked jump tables
  (``TABLE`` + ``JIND``, an unknown-target unconditional branch);
  sparse ones become compare chains.

The emitted program starts at a synthetic ``__start`` function that
stores non-zero global initializers and calls ``main``.
"""

from repro.isa.opcodes import Opcode, invert_branch
from repro.isa.program import Program
from repro.lang import ast

_COMPARE_OPS = {
    "==": Opcode.BEQ,
    "!=": Opcode.BNE,
    "<": Opcode.BLT,
    "<=": Opcode.BLE,
    ">": Opcode.BGT,
    ">=": Opcode.BGE,
}

_ARITH_OPS = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.REM,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
}

# A switch becomes a jump table when it has at least this many distinct
# case values and the value range is no sparser than this factor.
_JUMP_TABLE_MIN_CASES = 6
_JUMP_TABLE_MAX_SPARSITY = 4


class CodegenError(Exception):
    """Raised on internal code-generation failures."""


class _FunctionEmitter:
    """Generates code for one function."""

    def __init__(self, generator, function, function_info):
        self.generator = generator
        self.program = generator.program
        self.function = function
        self.info = function_info
        self.registers = {name: index
                          for index, name in enumerate(function.params)}
        self.zero = len(function.params)
        self.next_register = self.zero + 1
        self.free_temps = []
        self.live_temps = set()
        self.break_labels = []
        self.continue_labels = []
        self.epilogue = generator.new_label(function.name, "epilogue")
        self.current_line = function.line

    # -- registers -----------------------------------------------------------

    def alloc(self):
        if self.free_temps:
            register = self.free_temps.pop()
        else:
            register = self.next_register
            self.next_register += 1
        self.live_temps.add(register)
        return register

    def free(self, register):
        """Release ``register`` if it is a live temporary (no-op otherwise)."""
        if register in self.live_temps:
            self.live_temps.remove(register)
            self.free_temps.append(register)

    def named_register(self, name):
        if name not in self.registers:
            self.registers[name] = self.next_register
            self.next_register += 1
        return self.registers[name]

    # -- symbols -----------------------------------------------------------------

    def array_symbol(self, name):
        symbol = self.info.local_arrays.get(name)
        if symbol is not None:
            return symbol
        return self.generator.info.globals[name]

    def global_scalar(self, name):
        if name in self.registers or name in self.function.params:
            return None
        symbol = self.generator.info.globals.get(name)
        if symbol is not None and not symbol.is_array:
            return symbol
        return None

    # -- emission ------------------------------------------------------------------

    def emit(self, op, **kwargs):
        address = self.program.emit(op, **kwargs)
        if self.current_line:
            self.program.lines[address] = self.current_line
        return address

    def mark(self, label):
        self.program.mark_label(label)

    def new_label(self, hint):
        return self.generator.new_label(self.function.name, hint)

    # -- function body ---------------------------------------------------------------

    def run(self):
        label = "_func_%s" % self.function.name
        self.mark(label)
        self.program.functions[self.function.name] = label
        self.emit(Opcode.LI, dest=self.zero, imm=0)
        self.statement(self.function.body)
        self.mark(self.epilogue)
        self.emit(Opcode.RET)

    # -- statements -------------------------------------------------------------------

    def statement(self, node):
        self.current_line = node.line
        if isinstance(node, ast.Block):
            for child in node.statements:
                self.statement(child)
        elif isinstance(node, ast.LocalDecl):
            if node.is_array:
                return  # static storage, nothing to emit
            register = self.named_register(node.name)
            if node.init is not None:
                self.value(node.init, dest=register)
        elif isinstance(node, ast.Assign):
            self.assign(node)
        elif isinstance(node, ast.If):
            self.if_statement(node)
        elif isinstance(node, ast.While):
            self.while_statement(node)
        elif isinstance(node, ast.DoWhile):
            self.do_while_statement(node)
        elif isinstance(node, ast.For):
            self.for_statement(node)
        elif isinstance(node, ast.Switch):
            self.switch_statement(node)
        elif isinstance(node, ast.Break):
            if not self.break_labels:
                raise CodegenError("break outside loop or switch")
            self.emit(Opcode.JUMP, target=self.break_labels[-1])
        elif isinstance(node, ast.Continue):
            if not self.continue_labels:
                raise CodegenError("continue outside loop")
            self.emit(Opcode.JUMP, target=self.continue_labels[-1])
        elif isinstance(node, ast.Return):
            if node.value is not None:
                register = self.value(node.value)
                self.emit(Opcode.RETV, a=register)
                self.free(register)
            self.emit(Opcode.JUMP, target=self.epilogue)
        elif isinstance(node, ast.ExprStmt):
            self.expression_statement(node.expr)
        else:  # pragma: no cover
            raise CodegenError("unknown statement %r" % node)

    def expression_statement(self, expr):
        if isinstance(expr, ast.Call):
            self.call(expr, want_result=False)
            return
        register = self.value(expr)
        self.free(register)

    def assign(self, node):
        target = node.target
        if isinstance(target, ast.Var):
            symbol = self.global_scalar(target.name)
            if symbol is None:
                register = self.named_register(target.name)
                self.value(node.value, dest=register)
            else:
                register = self.value(node.value)
                self.emit(Opcode.STORE, a=register, b=self.zero,
                          imm=symbol.offset)
                self.free(register)
            return
        symbol = self.array_symbol(target.name)
        index = self.value(target.index)
        register = self.value(node.value)
        self.emit(Opcode.STORE, a=register, b=index, imm=symbol.offset)
        self.free(index)
        self.free(register)

    def if_statement(self, node):
        end_label = self.new_label("endif")
        if node.else_branch is None:
            self.branch_false(node.cond, end_label)
            self.statement(node.then_branch)
            self.mark(end_label)
            return
        else_label = self.new_label("else")
        self.branch_false(node.cond, else_label)
        self.statement(node.then_branch)
        self.emit(Opcode.JUMP, target=end_label)
        self.mark(else_label)
        self.statement(node.else_branch)
        self.mark(end_label)

    def while_statement(self, node):
        cond_label = self.new_label("wcond")
        body_label = self.new_label("wbody")
        end_label = self.new_label("wend")
        self.emit(Opcode.JUMP, target=cond_label)
        self.mark(body_label)
        self.break_labels.append(end_label)
        self.continue_labels.append(cond_label)
        self.statement(node.body)
        self.break_labels.pop()
        self.continue_labels.pop()
        self.mark(cond_label)
        self.branch_true(node.cond, body_label)
        self.mark(end_label)

    def do_while_statement(self, node):
        body_label = self.new_label("dbody")
        cond_label = self.new_label("dcond")
        end_label = self.new_label("dend")
        self.mark(body_label)
        self.break_labels.append(end_label)
        self.continue_labels.append(cond_label)
        self.statement(node.body)
        self.break_labels.pop()
        self.continue_labels.pop()
        self.mark(cond_label)
        self.branch_true(node.cond, body_label)
        self.mark(end_label)

    def for_statement(self, node):
        if node.init is not None:
            self.statement(node.init)
        body_label = self.new_label("fbody")
        step_label = self.new_label("fstep")
        end_label = self.new_label("fend")
        if node.cond is not None:
            cond_label = self.new_label("fcond")
            self.emit(Opcode.JUMP, target=cond_label)
        self.mark(body_label)
        self.break_labels.append(end_label)
        self.continue_labels.append(step_label)
        self.statement(node.body)
        self.break_labels.pop()
        self.continue_labels.pop()
        self.mark(step_label)
        if node.step is not None:
            self.statement(node.step)
        if node.cond is not None:
            self.mark(cond_label)
            self.branch_true(node.cond, body_label)
        else:
            self.emit(Opcode.JUMP, target=body_label)
        self.mark(end_label)

    # -- switch ------------------------------------------------------------------------

    def switch_statement(self, node):
        end_label = self.new_label("swend")
        case_labels = [self.new_label("case") for _ in node.cases]
        default_label = end_label
        for case, label in zip(node.cases, case_labels):
            if case.is_default:
                default_label = label

        value_to_label = {}
        for case, label in zip(node.cases, case_labels):
            for value in case.values:
                value_to_label[value] = label

        selector = self.value(node.expr)
        if self._use_jump_table(value_to_label):
            self._emit_jump_table(selector, value_to_label, default_label)
        else:
            self._emit_compare_chain(selector, value_to_label, default_label)
        self.free(selector)

        self.break_labels.append(end_label)
        for case, label in zip(node.cases, case_labels):
            self.mark(label)
            for child in case.body:
                self.statement(child)
            # Fall through to the next case, as in C.
        self.break_labels.pop()
        self.mark(end_label)

    def _use_jump_table(self, value_to_label):
        if len(value_to_label) < _JUMP_TABLE_MIN_CASES:
            return False
        low, high = min(value_to_label), max(value_to_label)
        span = high - low + 1
        return span <= _JUMP_TABLE_MAX_SPARSITY * len(value_to_label)

    def _emit_jump_table(self, selector, value_to_label, default_label):
        low, high = min(value_to_label), max(value_to_label)
        entries = [value_to_label.get(value, default_label)
                   for value in range(low, high + 1)]
        table_name = self.new_label("jt")
        table_id = self.program.add_jump_table(table_name, entries)

        bound = self.alloc()
        self.emit(Opcode.LI, dest=bound, imm=low)
        self.emit(Opcode.BLT, a=selector, b=bound, target=default_label)
        self.emit(Opcode.LI, dest=bound, imm=high)
        self.emit(Opcode.BGT, a=selector, b=bound, target=default_label)
        self.emit(Opcode.LI, dest=bound, imm=low)
        index = self.alloc()
        self.emit(Opcode.SUB, dest=index, a=selector, b=bound)
        address = bound  # reuse
        self.emit(Opcode.TABLE, dest=address, imm=table_id, a=index)
        self.emit(Opcode.JIND, a=address)
        self.free(bound)
        self.free(index)

    def _emit_compare_chain(self, selector, value_to_label, default_label):
        probe = self.alloc()
        for value, label in sorted(value_to_label.items()):
            self.emit(Opcode.LI, dest=probe, imm=value)
            self.emit(Opcode.BEQ, a=selector, b=probe, target=label)
        self.emit(Opcode.JUMP, target=default_label)
        self.free(probe)

    # -- conditions ---------------------------------------------------------------------

    def branch_true(self, expr, label):
        """Emit code that jumps to ``label`` when ``expr`` is true."""
        # Loop back-edges emit their condition after the body; the
        # condition's own line keeps the line table accurate there.
        self.current_line = expr.line
        if isinstance(expr, ast.Binary) and expr.op in _COMPARE_OPS:
            left = self.value(expr.left)
            right = self.value(expr.right)
            self.emit(_COMPARE_OPS[expr.op], a=left, b=right, target=label)
            self.free(left)
            self.free(right)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            skip = self.new_label("andskip")
            self.branch_false(expr.left, skip)
            self.branch_true(expr.right, label)
            self.mark(skip)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            self.branch_true(expr.left, label)
            self.branch_true(expr.right, label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.branch_false(expr.operand, label)
            return
        if isinstance(expr, ast.IntLit):
            if expr.value:
                self.emit(Opcode.JUMP, target=label)
            return
        register = self.value(expr)
        self.emit(Opcode.BNE, a=register, b=self.zero, target=label)
        self.free(register)

    def branch_false(self, expr, label):
        """Emit code that jumps to ``label`` when ``expr`` is false."""
        self.current_line = expr.line
        if isinstance(expr, ast.Binary) and expr.op in _COMPARE_OPS:
            left = self.value(expr.left)
            right = self.value(expr.right)
            opcode = invert_branch(_COMPARE_OPS[expr.op])
            self.emit(opcode, a=left, b=right, target=label)
            self.free(left)
            self.free(right)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            self.branch_false(expr.left, label)
            self.branch_false(expr.right, label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            skip = self.new_label("orskip")
            self.branch_true(expr.left, skip)
            self.branch_false(expr.right, label)
            self.mark(skip)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.branch_true(expr.operand, label)
            return
        if isinstance(expr, ast.IntLit):
            if not expr.value:
                self.emit(Opcode.JUMP, target=label)
            return
        register = self.value(expr)
        self.emit(Opcode.BEQ, a=register, b=self.zero, target=label)
        self.free(register)

    # -- expressions ------------------------------------------------------------------------

    def value(self, expr, dest=None):
        """Emit code computing ``expr``; returns the result register.

        When ``dest`` is given the result is placed there and ``dest``
        is returned; otherwise the result may be a fresh temporary
        (caller frees) or a named register (freeing is a no-op).
        """
        if isinstance(expr, ast.IntLit):
            register = dest if dest is not None else self.alloc()
            self.emit(Opcode.LI, dest=register, imm=expr.value)
            return register

        if isinstance(expr, ast.Var):
            symbol = self.global_scalar(expr.name)
            if symbol is None:
                register = self.named_register(expr.name)
                if dest is not None and dest != register:
                    self.emit(Opcode.MOV, dest=dest, a=register)
                    return dest
                return register
            register = dest if dest is not None else self.alloc()
            self.emit(Opcode.LOAD, dest=register, a=self.zero,
                      imm=symbol.offset)
            return register

        if isinstance(expr, ast.Index):
            symbol = self.array_symbol(expr.name)
            index = self.value(expr.index)
            register = dest if dest is not None else self.alloc()
            self.emit(Opcode.LOAD, dest=register, a=index, imm=symbol.offset)
            self.free(index)
            return register

        if isinstance(expr, ast.Call):
            return self.call(expr, want_result=True, dest=dest)

        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                return self._materialize_bool(expr, dest)
            operand = self.value(expr.operand)
            register = dest if dest is not None else self.alloc()
            opcode = Opcode.NEG if expr.op == "-" else Opcode.NOT
            self.emit(opcode, dest=register, a=operand)
            self.free(operand)
            return register

        if isinstance(expr, ast.Binary):
            if expr.op in _ARITH_OPS:
                left = self.value(expr.left)
                right = self.value(expr.right)
                register = dest if dest is not None else self.alloc()
                self.emit(_ARITH_OPS[expr.op], dest=register, a=left, b=right)
                self.free(left)
                self.free(right)
                return register
            return self._materialize_bool(expr, dest)

        raise CodegenError("unknown expression %r" % expr)  # pragma: no cover

    def _materialize_bool(self, expr, dest):
        """Compute a comparison/logical expression as a 0/1 value.

        The result is staged in a fresh temporary (never directly in
        ``dest``) because ``expr`` may read ``dest`` — e.g.
        ``flag = !flag`` — and the staging register is written before
        the expression is evaluated.
        """
        register = self.alloc()
        done = self.new_label("bool")
        self.emit(Opcode.LI, dest=register, imm=1)
        self.branch_true(expr, done)
        self.emit(Opcode.LI, dest=register, imm=0)
        self.mark(done)
        if dest is not None and dest != register:
            self.emit(Opcode.MOV, dest=dest, a=register)
            self.free(register)
            return dest
        return register

    def call(self, expr, want_result, dest=None):
        name = expr.name
        if name == "getc":
            register = dest if dest is not None else self.alloc()
            self.emit(Opcode.GETC, dest=register, imm=expr.args[0].value)
            return register
        if name in ("putc", "puti"):
            argument = self.value(expr.args[0])
            opcode = Opcode.PUTC if name == "putc" else Opcode.PUTI
            self.emit(opcode, a=argument)
            self.free(argument)
            if not want_result:
                return None
            register = dest if dest is not None else self.alloc()
            self.emit(Opcode.LI, dest=register, imm=0)
            return register

        argument_registers = [self.value(argument) for argument in expr.args]
        for position, register in enumerate(argument_registers):
            self.emit(Opcode.ARG, imm=position, a=register)
        for register in argument_registers:
            self.free(register)
        self.emit(Opcode.CALL, target="_func_%s" % name)
        if not want_result:
            return None
        register = dest if dest is not None else self.alloc()
        self.emit(Opcode.RESULT, dest=register)
        return register


class CodeGenerator:
    """Drives code generation for a whole translation unit."""

    def __init__(self, unit, info, name="program"):
        self.unit = unit
        self.info = info
        self.program = Program(name)
        self.program.globals_size = info.globals_size
        self._label_counter = 0

    def new_label(self, function_name, hint):
        self._label_counter += 1
        return "%s.%s.%d" % (function_name, hint, self._label_counter)

    def generate(self):
        self._emit_start()
        for function in self.unit.functions:
            emitter = _FunctionEmitter(self, function,
                                       self.info.functions[function.name])
            emitter.run()
        self.program.resolve()
        self.program.validate()
        return self.program

    def _emit_start(self):
        program = self.program
        program.mark_label("_func___start")
        program.functions["__start"] = "_func___start"
        # Global initializers live in the data segment, as in a real
        # executable; __start only transfers to main.
        for symbol in self.info.globals.values():
            self._record_init(symbol)
        program.emit(Opcode.CALL, target="_func_main")
        program.emit(Opcode.HALT)

    def _record_init(self, symbol):
        data = self.program.data_init
        if symbol.is_array:
            for position, value in enumerate(symbol.init or []):
                if value != 0:  # memory starts zeroed
                    data[symbol.offset + position] = value
        elif symbol.init:
            data[symbol.offset] = symbol.init


def generate(unit, info, name="program"):
    """Generate a resolved, validated Program from an analyzed unit."""
    return CodeGenerator(unit, info, name).generate()
