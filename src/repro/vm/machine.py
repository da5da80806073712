"""The functional simulator.

The program is pre-decoded into flat tuples with integer opcodes.
:meth:`Machine.run` executes direct-mode runs as one generated Python
function per program function (:mod:`repro.vm.compiled`) and derives
the trace from the executed block sequence.  :meth:`Machine._run`, one
if/elif opcode chain, is the reference interpreter: it runs
forward-slot execution, address traces, probes and every run the
compiled code leaves, and every compiled run must match it exactly.

Forward-slot ("execute") semantics follow the hardware description in
the paper: when a likely-taken branch with ``n_slots`` forward slots is
taken, the machine falls through into the slots with an alternate-PC
countdown; after the slots have executed, control transfers to the
(slot-adjusted) branch target.  Any taken control transfer inside the
slots cancels the countdown, which is exactly what an absorbed unlikely
branch does when it fires.
"""


from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.telemetry.core import TELEMETRY
from repro.vm.tracing import BranchTrace


class MachineError(Exception):
    """Raised on runtime faults (bad memory access, division by zero...)."""


class ExecutionLimitExceeded(MachineError):
    """Raised when a run exceeds its dynamic instruction budget."""


# Integer opcode encoding used by the pre-decoded form.
_OP_INT = {op: index for index, op in enumerate(Opcode)}

_LI = _OP_INT[Opcode.LI]
_MOV = _OP_INT[Opcode.MOV]
_LOAD = _OP_INT[Opcode.LOAD]
_STORE = _OP_INT[Opcode.STORE]
_ADD = _OP_INT[Opcode.ADD]
_SUB = _OP_INT[Opcode.SUB]
_MUL = _OP_INT[Opcode.MUL]
_DIV = _OP_INT[Opcode.DIV]
_REM = _OP_INT[Opcode.REM]
_AND = _OP_INT[Opcode.AND]
_OR = _OP_INT[Opcode.OR]
_XOR = _OP_INT[Opcode.XOR]
_SHL = _OP_INT[Opcode.SHL]
_SHR = _OP_INT[Opcode.SHR]
_NEG = _OP_INT[Opcode.NEG]
_NOT = _OP_INT[Opcode.NOT]
_BEQ = _OP_INT[Opcode.BEQ]
_BNE = _OP_INT[Opcode.BNE]
_BLT = _OP_INT[Opcode.BLT]
_BLE = _OP_INT[Opcode.BLE]
_BGT = _OP_INT[Opcode.BGT]
_BGE = _OP_INT[Opcode.BGE]
_JUMP = _OP_INT[Opcode.JUMP]
_CALL = _OP_INT[Opcode.CALL]
_RET = _OP_INT[Opcode.RET]
_JIND = _OP_INT[Opcode.JIND]
_ARG = _OP_INT[Opcode.ARG]
_RETV = _OP_INT[Opcode.RETV]
_RESULT = _OP_INT[Opcode.RESULT]
_TABLE = _OP_INT[Opcode.TABLE]
_GETC = _OP_INT[Opcode.GETC]
_PUTC = _OP_INT[Opcode.PUTC]
_PUTI = _OP_INT[Opcode.PUTI]
_HALT = _OP_INT[Opcode.HALT]
_NOP = _OP_INT[Opcode.NOP]

_CONDITIONAL_INTS = frozenset({_BEQ, _BNE, _BLT, _BLE, _BGT, _BGE})


def _c_div(a, b):
    """C-style truncating integer division."""
    if b == 0:
        raise MachineError("division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _c_rem(a, b):
    """C-style remainder: sign follows the dividend."""
    if b == 0:
        raise MachineError("remainder by zero")
    remainder = abs(a) % abs(b)
    return remainder if a >= 0 else -remainder


class MachineResult:
    """Outcome of a program run.

    ``block_path`` is the :class:`~repro.vm.compiled.BlockPath` of a
    compiled run, None for a run of the reference interpreter.
    """

    __slots__ = ("output", "instructions", "trace", "exit_value",
                 "probe_counts", "addresses", "block_path")

    def __init__(self, output, instructions, trace, exit_value,
                 probe_counts=None, addresses=None, block_path=None):
        self.output = output
        self.instructions = instructions
        self.trace = trace
        self.exit_value = exit_value
        self.probe_counts = probe_counts
        self.addresses = addresses
        self.block_path = block_path

    def __repr__(self):
        return "MachineResult(%d instructions, %d output bytes)" % (
            self.instructions, len(self.output))


class Machine:
    """Executes a resolved :class:`Program`.

    Args:
        program: resolved program to run.
        inputs: sequence of bytes-like input streams (``getc(i)`` reads
            stream ``i``; -1 signals end of stream).
        trace: when True, collect the dynamic branch trace.
        slot_mode: ``"direct"`` (taken likely branches jump straight to
            the original target) or ``"execute"`` (fall through into
            forward slots with an alternate-PC countdown).
        max_instructions: dynamic instruction budget; exceeding it
            raises :class:`ExecutionLimitExceeded`.
        probe_addresses: optional iterable of instruction addresses
            (basic-block leaders); the reference interpreter counts how
            many times each is reached, reproducing the paper's
            profiling probes.
        address_trace: when True, record the address of every executed
            instruction (the fetch stream).  Memory-hungry; used by the
            instruction-cache locality ablation on small inputs.
    """

    def __init__(self, program, inputs=(), trace=False, slot_mode="direct",
                 max_instructions=200_000_000, probe_addresses=None,
                 address_trace=False):
        if not isinstance(program, Program):
            raise TypeError("expected a Program, got %r" % type(program))
        if not program.resolved:
            raise MachineError("program must be resolved before execution")
        if slot_mode not in ("direct", "execute"):
            raise ValueError("slot_mode must be 'direct' or 'execute'")
        self.program = program
        self.inputs = [bytes(stream) for stream in inputs]
        self.trace_enabled = trace
        self.slot_mode = slot_mode
        self.max_instructions = max_instructions
        self.probe_addresses = (
            frozenset(probe_addresses) if probe_addresses is not None else None
        )
        self.address_trace_enabled = address_trace

    def run(self):
        """Execute the program until HALT; returns :class:`MachineResult`.

        Direct-mode runs without an address trace or probes execute
        the program's generated functions (:mod:`repro.vm.compiled`),
        which hand a run they cannot finish to :meth:`_run`;
        everything else runs the reference interpreter :meth:`_run`
        directly.  Both give identical results.

        Telemetry is deliberately run-level, never per-instruction: the
        disabled path costs one attribute check per *run* and the
        enabled path spans the whole execution as ``vm.run``.  A run
        counts in ``vm.runs`` (and ``vm.compiled_runs``) before it
        starts, then in ``vm.faults`` if it raises or adds its
        ``vm.instructions`` if it completes.
        """
        from repro.vm.compiled import run_compiled  # imports this module

        compiled = (self.slot_mode == "direct"
                    and not self.address_trace_enabled
                    and self.probe_addresses is None)
        if not TELEMETRY.enabled:
            return run_compiled(self) if compiled else self._run()
        TELEMETRY.count("vm.runs")
        if compiled:
            TELEMETRY.count("vm.compiled_runs")
        with TELEMETRY.span("vm.run", program=self.program.name,
                            path="compiled" if compiled else "reference",
                            traced=self.trace_enabled) as span:
            try:
                result = run_compiled(self) if compiled else self._run()
            except Exception:
                TELEMETRY.count("vm.faults")
                raise
            span.annotate(instructions=result.instructions)
        TELEMETRY.count("vm.instructions", result.instructions)
        return result

    def _run(self):
        program = self.program
        code = _decode(program)
        tables = [table.entries for table in program.jump_tables]
        memory = [0] * program.globals_size
        memory_size = program.globals_size
        for address, value in program.data_init.items():
            if not 0 <= address < memory_size:
                raise MachineError(
                    "data initializer outside memory: %d" % address)
            memory[address] = value
        inputs = self.inputs
        input_positions = [0] * len(inputs)
        output = bytearray()
        output_append = output.append

        # The hot loop appends to plain lists; the trace's arrays are
        # built once, when the run ends.
        tracing = self.trace_enabled
        if tracing:
            columns = ([], [], [], [], [])
            t_sites, t_classes, t_takens, t_targets, t_gaps = (
                column.append for column in columns)

        execute_slots = self.slot_mode == "execute"

        pc = program.entry
        registers = {}
        call_stack = []          # (return_pc, caller_registers)
        pending_args = []
        return_value = 0

        executed = 0
        last_branch_executed = 0  # instruction count at the previous branch
        budget = self.max_instructions

        pending_count = 0
        pending_target = -1
        exit_value = 0

        probing = self.probe_addresses is not None
        probe_counts = (
            dict.fromkeys(self.probe_addresses, 0) if probing else None
        )
        address_tracing = self.address_trace_enabled
        addresses = [] if address_tracing else None
        addresses_append = addresses.append if address_tracing else None

        while True:
            if probing and pc in probe_counts:
                probe_counts[pc] += 1
            if address_tracing:
                addresses_append(pc)
            ins = code[pc]
            op = ins[0]
            executed += 1
            if executed > budget:
                raise ExecutionLimitExceeded(
                    "exceeded %d instructions (pc=%d)" % (budget, pc))
            redirected = False

            if op == _LOAD:
                address = registers[ins[2]] + ins[4]
                if 0 <= address < memory_size:
                    registers[ins[1]] = memory[address]
                else:
                    raise MachineError(
                        "load out of range: address %d at pc %d" % (address, pc))
                pc += 1
            elif op == _STORE:
                address = registers[ins[3]] + ins[4]
                if 0 <= address < memory_size:
                    memory[address] = registers[ins[2]]
                else:
                    raise MachineError(
                        "store out of range: address %d at pc %d" % (address, pc))
                pc += 1
            elif op == _LI:
                registers[ins[1]] = ins[4]
                pc += 1
            elif op == _ADD:
                registers[ins[1]] = registers[ins[2]] + registers[ins[3]]
                pc += 1
            elif op == _SUB:
                registers[ins[1]] = registers[ins[2]] - registers[ins[3]]
                pc += 1
            elif op == _MOV:
                registers[ins[1]] = registers[ins[2]]
                pc += 1
            elif op in _CONDITIONAL_INTS:
                left = registers[ins[2]]
                right = registers[ins[3]]
                if op == _BEQ:
                    taken = left == right
                elif op == _BNE:
                    taken = left != right
                elif op == _BLT:
                    taken = left < right
                elif op == _BLE:
                    taken = left <= right
                elif op == _BGT:
                    taken = left > right
                else:
                    taken = left >= right
                target = ins[5]
                if tracing:
                    t_sites(pc)
                    t_classes(0)
                    t_takens(1 if taken else 0)
                    t_targets(target)
                    t_gaps(executed - last_branch_executed - 1)
                    last_branch_executed = executed
                n_slots = ins[6]
                if taken:
                    if n_slots and execute_slots:
                        pending_count = n_slots + 1
                        pending_target = target
                        pc += 1
                    else:
                        # Direct mode: the slots are faithful copies of
                        # the target path, so jumping to the original
                        # target is functionally identical.
                        pc = ins[7] if n_slots else target
                        redirected = True
                else:
                    pc += 1 + n_slots
            elif op == _JUMP:
                target = ins[5]
                if tracing:
                    t_sites(pc)
                    t_classes(1)
                    t_takens(1)
                    t_targets(target)
                    t_gaps(executed - last_branch_executed - 1)
                    last_branch_executed = executed
                pc = target
                redirected = True
            elif op == _CALL:
                target = ins[5]
                if tracing:
                    t_sites(pc)
                    t_classes(1)
                    t_takens(1)
                    t_targets(target)
                    t_gaps(executed - last_branch_executed - 1)
                    last_branch_executed = executed
                call_stack.append((pc + 1, registers))
                registers = dict(enumerate(pending_args))
                pending_args = []
                pc = target
                redirected = True
            elif op == _RET:
                if not call_stack:
                    raise MachineError("return with empty call stack at pc %d" % pc)
                return_pc, registers = call_stack.pop()
                if tracing:
                    t_sites(pc)
                    t_classes(3)
                    t_takens(1)
                    t_targets(return_pc)
                    t_gaps(executed - last_branch_executed - 1)
                    last_branch_executed = executed
                pc = return_pc
                redirected = True
            elif op == _JIND:
                target = registers[ins[2]]
                if not 0 <= target < len(code):
                    raise MachineError(
                        "indirect jump out of range: %d at pc %d" % (target, pc))
                if tracing:
                    t_sites(pc)
                    t_classes(2)
                    t_takens(1)
                    t_targets(target)
                    t_gaps(executed - last_branch_executed - 1)
                    last_branch_executed = executed
                pc = target
                redirected = True
            elif op == _MUL:
                registers[ins[1]] = registers[ins[2]] * registers[ins[3]]
                pc += 1
            elif op == _DIV:
                registers[ins[1]] = _c_div(registers[ins[2]], registers[ins[3]])
                pc += 1
            elif op == _REM:
                registers[ins[1]] = _c_rem(registers[ins[2]], registers[ins[3]])
                pc += 1
            elif op == _AND:
                registers[ins[1]] = registers[ins[2]] & registers[ins[3]]
                pc += 1
            elif op == _OR:
                registers[ins[1]] = registers[ins[2]] | registers[ins[3]]
                pc += 1
            elif op == _XOR:
                registers[ins[1]] = registers[ins[2]] ^ registers[ins[3]]
                pc += 1
            elif op == _SHL:
                registers[ins[1]] = registers[ins[2]] << (registers[ins[3]] & 63)
                pc += 1
            elif op == _SHR:
                registers[ins[1]] = registers[ins[2]] >> (registers[ins[3]] & 63)
                pc += 1
            elif op == _NEG:
                registers[ins[1]] = -registers[ins[2]]
                pc += 1
            elif op == _NOT:
                registers[ins[1]] = ~registers[ins[2]]
                pc += 1
            elif op == _ARG:
                index = ins[4]
                while len(pending_args) <= index:
                    pending_args.append(0)
                pending_args[index] = registers[ins[2]]
                pc += 1
            elif op == _RETV:
                return_value = registers[ins[2]]
                pc += 1
            elif op == _RESULT:
                registers[ins[1]] = return_value
                pc += 1
            elif op == _TABLE:
                entries = tables[ins[4]]
                index = registers[ins[2]]
                if not 0 <= index < len(entries):
                    raise MachineError(
                        "jump table index %d out of range at pc %d" % (index, pc))
                registers[ins[1]] = entries[index]
                pc += 1
            elif op == _GETC:
                stream_id = ins[4]
                if not 0 <= stream_id < len(inputs):
                    raise MachineError("no input stream %d at pc %d" % (stream_id, pc))
                position = input_positions[stream_id]
                stream = inputs[stream_id]
                if position < len(stream):
                    registers[ins[1]] = stream[position]
                    input_positions[stream_id] = position + 1
                else:
                    registers[ins[1]] = -1
                pc += 1
            elif op == _PUTC:
                output_append(registers[ins[2]] & 0xFF)
                pc += 1
            elif op == _PUTI:
                output.extend(b"%d" % registers[ins[2]])
                pc += 1
            elif op == _NOP:
                pc += 1
            elif op == _HALT:
                exit_value = return_value
                break
            else:  # pragma: no cover - decode covers every opcode
                raise MachineError("unknown opcode %d at pc %d" % (op, pc))

            if pending_count:
                if redirected:
                    pending_count = 0
                else:
                    pending_count -= 1
                    if pending_count == 0:
                        pc = pending_target

        trace = (BranchTrace(*columns, total_instructions=executed)
                 if tracing else None)
        return MachineResult(bytes(output), executed, trace, exit_value,
                             probe_counts, addresses)


def _decode(program):
    """Pre-decode instructions into flat tuples with integer opcodes.

    Tuple layout: (op, dest, a, b, imm, target, n_slots, orig_target).
    """
    decoded = []
    for instr in program.instructions:
        decoded.append((
            _OP_INT[instr.op], instr.dest, instr.a, instr.b,
            instr.imm, instr.target, instr.n_slots,
            instr.orig_target if instr.orig_target is not None else instr.target,
        ))
    return decoded


def run_program(program, inputs=(), trace=False, slot_mode="direct",
                max_instructions=200_000_000):
    """Convenience wrapper: build a :class:`Machine` and run it."""
    machine = Machine(program, inputs=inputs, trace=trace,
                      slot_mode=slot_mode, max_instructions=max_instructions)
    return machine.run()
