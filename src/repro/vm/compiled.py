"""Compiled-block dispatch: the fast path of :meth:`Machine.run`.

Every ``slot_mode="direct"`` run without an address trace executes
here; :meth:`Machine._run` stays the reference interpreter and the
differential oracle for this module.

A *block* runs straight-line code from an entry pc.  It ends after a
control transfer (conditional branch, JUMP, CALL, RET, JIND) or HALT,
or just before a CFG leader or probe address.  Each block is compiled
on first entry into one generated Python function that executes its
instructions and returns the next pc.  The source text is built from
the decoded integer fields with ``%d`` only, so no program string ever
reaches ``exec``.  Registers stay in the per-frame dict (reading an
unset register raises ``KeyError``, as in the reference), and CALL and
RET swap the frame held in the functions' globals.

The driver loop is one append and one call per executed block.
Everything else is derived from the sequence of block starts once the
run ends, with NumPy (:meth:`BlockTables.trace`):

* the instruction count is the sum of the block lengths;
* probe counts are a ``bincount`` of the starts (exact, because blocks
  split at every probe address);
* each block that ends in a branch yields one trace record whose site,
  class and static target come from per-instruction tables;
* a conditional is taken when the next block starts at its taken pc.
  A branch whose taken pc equals its fall-through cannot be told apart
  that way, so its block appends the direction to a side list;
* RET and JIND targets are the next block start;
* gaps are differences of the cumulative instruction count, minus one.

The starts and the side list together are the run's :class:`BlockPath`,
which every result carries.  The profile is folded from the paths,
trace layout maps a base run's path onto the laid-out program, and
:meth:`BlockTables.trace` turns the mapped path into the laid-out
program's trace without running it.

The instruction budget is exact: the driver runs unchecked for
``(budget - executed) // longest_block`` blocks at a time, then steps
block by block.  The block that would cross the limit runs a compiled
prefix up to the limit (so an earlier fault still wins) and then raises
the reference's :class:`ExecutionLimitExceeded`.

Compiled blocks are cached per decoded program content, so repeated
runs of one program (every input of a benchmark) compile each block
once.  The cache keys are tuples of plain values; it never holds a
:class:`Program`.
"""

import threading
from functools import partial
from itertools import repeat

import numpy as np

from repro.cfg import compute_leaders
from repro.vm.machine import (
    _ADD, _AND, _ARG, _BEQ, _BGE, _BGT, _BLE, _BLT, _BNE, _CALL,
    _CONDITIONAL_INTS, _DIV, _GETC, _HALT, _JIND, _JUMP, _LI, _LOAD,
    _MOV, _MUL, _NEG, _NOP, _NOT, _OR, _PUTC, _PUTI, _REM, _RESULT,
    _RET, _RETV, _SHL, _SHR, _STORE, _SUB, _TABLE, _XOR,
    ExecutionLimitExceeded, MachineError, MachineResult, _c_div, _c_rem,
    _decode,
)
from repro.vm.tracing import BranchClass, BranchTrace

#: Most recently used block sets kept between runs.  A cold ``all``
#: runs one program at a time, every input of a base program (the
#: laid-out program's traces are derived from those runs' block paths,
#: never run), so a few entries give every hit.
_CACHE_SIZE = 8

_CACHE = {}
_CACHE_LOCK = threading.Lock()

_BINARY = {_ADD: "+", _SUB: "-", _MUL: "*", _AND: "&", _OR: "|",
           _XOR: "^"}
_SHIFT = {_SHL: "<<", _SHR: ">>"}
_COMPARE = {_BEQ: "==", _BNE: "!=", _BLT: "<", _BLE: "<=", _BGT: ">",
            _BGE: ">="}
_CLASS = {_JUMP: BranchClass.UNCONDITIONAL_KNOWN,
          _CALL: BranchClass.UNCONDITIONAL_KNOWN,
          _JIND: BranchClass.UNCONDITIONAL_UNKNOWN,
          _RET: BranchClass.RETURN}
_CLASS.update(dict.fromkeys(_CONDITIONAL_INTS, BranchClass.CONDITIONAL))

#: Opcodes after which a block ends.
_ENDERS = frozenset(_CLASS) | {_HALT}


class _Halted(Exception):
    """Raised by the HALT block to leave the driver loop."""


class BlockPath:
    """The blocks one compiled run executed, in order.

    Attributes:
        starts: the entry pc of every executed block (int32).
        directions: the direction of every executed conditional whose
            taken pc equals its fall-through, which the next start
            cannot tell, in execution order (bool).
    """

    __slots__ = ("starts", "directions")

    def __init__(self, starts, directions):
        self.starts = starts
        self.directions = directions


class BlockTables:
    """Per-pc tables of a program cut into blocks.

    A block entered at pc ``p`` ends at ``ends[p]``: the first control
    transfer or HALT at or after ``p``, or the pc just before the next
    address in ``stops``.  It runs ``sizes[p]`` instructions.  The
    other tables describe the record the block yields at its last pc,
    so at a branch's own pc they describe that branch: ``kinds`` (its
    :class:`BranchClass`, -1 for no record), ``targets`` (its static
    target), ``taken_pcs`` (where a conditional, JUMP or CALL goes when
    taken) and ``ambiguous`` (a conditional whose taken pc equals its
    fall-through).
    """

    def __init__(self, code, stops):
        size = len(code)
        ends = [0] * size
        end = size - 1
        for pc in reversed(range(size)):
            if code[pc][0] in _ENDERS or pc + 1 in stops:
                end = pc
            ends[pc] = end
        self.lengths = [end - pc + 1 for pc, end in enumerate(ends)]
        self.ends = np.array(ends, dtype=np.intp)
        self.sizes = np.array(self.lengths, dtype=np.intp)

        kinds = np.full(size, -1, dtype=np.int8)
        targets = np.zeros(size, dtype=np.intp)
        taken_pcs = np.full(size, -1, dtype=np.intp)
        ambiguous = np.zeros(size, dtype=bool)
        for pc, ins in enumerate(code):
            kind = _CLASS.get(ins[0])
            if kind is None:
                continue
            kinds[pc] = kind
            if kind <= BranchClass.UNCONDITIONAL_KNOWN:
                targets[pc] = ins[5]
                taken_pcs[pc] = _taken_pc(ins)
            if kind == BranchClass.CONDITIONAL:
                ambiguous[pc] = taken_pcs[pc] == pc + 1 + ins[6]
        self.kinds = kinds[self.ends]
        self.targets = targets[self.ends]
        self.taken_pcs = taken_pcs[self.ends]
        self.ambiguous = ambiguous[self.ends]

    def count(self, starts):
        """Instructions executed by the blocks entered at ``starts``."""
        return int(self.sizes[starts].sum())

    def taken(self, entered, following, directions):
        """Whether the branch ending each block entered at ``entered``
        was taken: the ``following`` block starts at its taken pc, or,
        for an ambiguous conditional, its entry in ``directions`` (one
        per ambiguous branch of ``entered``, in order) says so."""
        takens = following == self.taken_pcs[entered]
        if len(directions):
            takens[self.ambiguous[entered]] = directions
        return takens

    def trace(self, starts, directions, budget=None):
        """The :class:`BranchTrace` of a run that entered its blocks at
        ``starts`` (ending with the HALT block) and took ``directions``
        at its ambiguous conditionals.

        With a ``budget``, a path longer than that many instructions
        raises the :class:`ExecutionLimitExceeded` a run of it would.
        """
        # Gathers through native-width indices skip a conversion each.
        starts = starts.astype(np.intp, copy=False)
        cumulative = np.cumsum(self.sizes[starts])
        instructions = int(cumulative[-1]) if len(cumulative) else 0
        if budget is not None and instructions > budget:
            index = int(np.searchsorted(cumulative, budget, side="right"))
            done = int(cumulative[index - 1]) if index else 0
            raise ExecutionLimitExceeded(
                "exceeded %d instructions (pc=%d)"
                % (budget, int(starts[index]) + max(budget - done, 0)))
        kinds = self.kinds[starts]
        records = np.flatnonzero(kinds >= 0)
        entered = starts[records]
        classes = kinds[records]
        following = starts[1:][records]
        # RET and JIND go wherever the next block starts; every other
        # record is taken when the next block starts at its taken pc.
        dynamic = classes >= BranchClass.UNCONDITIONAL_UNKNOWN
        targets = self.targets[entered]
        np.copyto(targets, following, where=dynamic)
        takens = self.taken(entered, following, directions)
        takens |= dynamic
        gaps = np.diff(cumulative[records], prepend=0) - 1
        return BranchTrace(self.ends[entered], classes, takens, targets,
                           gaps, total_instructions=instructions)


def run_compiled(machine):
    """Execute ``machine``'s program; returns a :class:`MachineResult`
    identical to :meth:`Machine._run`'s for ``slot_mode="direct"``."""
    program = machine.program
    code = tuple(_decode(program))
    probes = machine.probe_addresses
    key = (code, probes, program.globals_size,
           tuple(program.labels[label]
                 for label in program.functions.values()),
           tuple(tuple(table.entries) for table in program.jump_tables))
    # The function entries and jump tables are in the key because the
    # CFG leaders, and so the block boundaries, depend on them.  A set
    # is checked out while it runs, so a concurrent run of the same
    # program builds its own set instead of sharing globals.
    with _CACHE_LOCK:
        blocks = _CACHE.pop(key, None)
    if blocks is None:
        stops = set(compute_leaders(program))
        if probes is not None:
            stops.update(probes)
        blocks = _BlockSet(code, stops, program.globals_size)
    try:
        return blocks.run(machine)
    finally:
        blocks.release()
        with _CACHE_LOCK:
            _CACHE[key] = blocks
            while len(_CACHE) > _CACHE_SIZE:
                del _CACHE[next(iter(_CACHE))]


class _BlockSet:
    """The blocks of one decoded program, compiled on first entry."""

    def __init__(self, code, stops, memory_size):
        self.code = code
        self.memory_size = memory_size
        self.tables = BlockTables(code, stops)
        self.lengths = self.tables.lengths
        self.longest = max(self.lengths, default=1)
        size = len(code)

        self.namespace = {"C": code, "E": MachineError, "Halted": _Halted,
                          "cdiv": _c_div, "crem": _c_rem}
        self.funcs = [partial(self._compile_and_run, pc)
                      for pc in range(size)]

    # -- compilation -------------------------------------------------------

    def _compile_and_run(self, pc):
        function = self._compile(pc, self.lengths[pc], close=True)
        self.funcs[pc] = function
        return function()

    def _compile(self, start, count, close):
        """The function running ``count`` instructions from ``start``;
        with ``close`` the last one ends the block and the function
        returns the next pc, otherwise it returns None."""
        body = []
        written = set()
        stop = start + count
        for pc in range(start, stop):
            ins = self.code[pc]
            if close and pc == stop - 1:
                self._emit_exit(body, written, pc, ins)
            else:
                self._emit(body, written, pc, ins)
        name = "b%d" % start
        lines = ["def %s():" % name]
        if written:
            lines.append("    global " + ", ".join(sorted(written)))
        if any("r[" in line for line in body):
            lines.append("    r = R")
        lines.extend("    " + line for line in body or ["pass"])
        namespace = self.namespace
        exec(compile("\n".join(lines) + "\n", "<block %d>" % start, "exec"),
             namespace)
        return namespace.pop(name)

    def _emit(self, body, written, pc, ins):
        """Source lines of one straight-line instruction."""
        op = ins[0]
        dest, a, b, imm = (_field(ins, pc, index) for index in range(1, 5))
        if op == _LI:
            body.append("r[%s] = %s" % (dest, imm))
        elif op == _MOV:
            body.append("r[%s] = r[%s]" % (dest, a))
        elif op in _BINARY:
            body.append("r[%s] = r[%s] %s r[%s]" % (dest, a, _BINARY[op], b))
        elif op in _SHIFT:
            body.append("r[%s] = r[%s] %s (r[%s] & 63)"
                        % (dest, a, _SHIFT[op], b))
        elif op == _LOAD:
            body += ["x = r[%s] + %s" % (a, imm),
                     "if not 0 <= x < %d:" % self.memory_size,
                     "    raise E('load out of range: address %%d at pc "
                     "%d' %% x)" % pc,
                     "r[%s] = M[x]" % dest]
        elif op == _STORE:
            body += ["x = r[%s] + %s" % (b, imm),
                     "if not 0 <= x < %d:" % self.memory_size,
                     "    raise E('store out of range: address %%d at pc "
                     "%d' %% x)" % pc,
                     "M[x] = r[%s]" % a]
        elif op == _DIV:
            body.append("r[%s] = cdiv(r[%s], r[%s])" % (dest, a, b))
        elif op == _REM:
            body.append("r[%s] = crem(r[%s], r[%s])" % (dest, a, b))
        elif op == _NEG:
            body.append("r[%s] = -r[%s]" % (dest, a))
        elif op == _NOT:
            body.append("r[%s] = ~r[%s]" % (dest, a))
        elif op == _ARG:
            body += ["while len(A) <= %s:" % imm,
                     "    A.append(0)",
                     "A[%s] = r[%s]" % (imm, a)]
        elif op == _RETV:
            written.add("RV")
            body.append("RV = r[%s]" % a)
        elif op == _RESULT:
            body.append("r[%s] = RV" % dest)
        elif op == _TABLE:
            body += ["e = T[%s]" % imm,
                     "x = r[%s]" % a,
                     "if not 0 <= x < len(e):",
                     "    raise E('jump table index %%d out of range at pc "
                     "%d' %% x)" % pc,
                     "r[%s] = e[x]" % dest]
        elif op == _GETC:
            body += ["if not 0 <= %s < NI:" % imm,
                     "    raise E('no input stream %%d at pc %d' %% %s)"
                     % (pc, imm),
                     "r[%s] = next(IT[%s], -1)" % (dest, imm)]
        elif op == _PUTC:
            body.append("O(r[%s] & 255)" % a)
        elif op == _PUTI:
            body.append("OX(b'%%d' %% r[%s])" % a)
        elif op != _NOP:  # pragma: no cover - decode covers every opcode
            raise MachineError("unknown opcode %d at pc %d" % (op, pc))

    def _emit_exit(self, body, written, pc, ins):
        """Source lines of a block's last instruction, ending in the
        return of the next pc."""
        op = ins[0]
        if op in _COMPARE:
            condition = "r[%s] %s r[%s]" % (
                _field(ins, pc, 2), _COMPARE[op], _field(ins, pc, 3))
            taken, fall = _taken_pc(ins), pc + 1 + ins[6]
            if taken == fall:
                body += ["D(%s)" % condition, "return %d" % taken]
            else:
                body += ["if %s:" % condition,
                         "    return %d" % taken,
                         "return %d" % fall]
        elif op == _JUMP:
            body.append("return %d" % ins[5])
        elif op == _CALL:
            written.update(("R", "A"))
            body += ["ST.append((%d, R))" % (pc + 1),
                     "R = dict(enumerate(A))",
                     "A = []",
                     "return %d" % ins[5]]
        elif op == _RET:
            written.add("R")
            body += ["if not ST:",
                     "    raise E('return with empty call stack at pc "
                     "%d')" % pc,
                     "p, R = ST.pop()",
                     "return p"]
        elif op == _JIND:
            body += ["x = r[%s]" % _field(ins, pc, 2),
                     "if not 0 <= x < %d:" % len(self.code),
                     "    raise E('indirect jump out of range: %%d at pc "
                     "%d' %% x)" % pc,
                     "return x"]
        elif op == _HALT:
            body.append("raise Halted")
        else:
            self._emit(body, written, pc, ins)
            body.append("return %d" % (pc + 1))

    # -- execution ----------------------------------------------------------

    def run(self, machine):
        namespace = self.namespace
        memory_size = self.memory_size
        memory = [0] * memory_size
        for address, value in machine.program.data_init.items():
            if not 0 <= address < memory_size:
                raise MachineError(
                    "data initializer outside memory: %d" % address)
            memory[address] = value
        inputs = machine.inputs
        output = bytearray()
        directions = []
        namespace.update(
            R={}, M=memory, A=[], ST=[], RV=0,
            T=[table.entries for table in machine.program.jump_tables],
            IT=[iter(stream) for stream in inputs], NI=len(inputs),
            O=output.append, OX=output.extend, D=directions.append)
        pc = machine.program.entry

        starts = []
        push = starts.append
        funcs = self.funcs
        lengths = self.lengths
        budget = machine.max_instructions
        executed = 0
        try:
            chunk = budget // self.longest
            while chunk > 0:
                mark = len(starts)
                for _ in repeat(None, chunk):
                    push(pc)
                    pc = funcs[pc]()
                executed += sum(map(lengths.__getitem__, starts[mark:]))
                chunk = (budget - executed) // self.longest
            while True:
                length = lengths[pc]
                if executed + length > budget:
                    allowed = max(budget - executed, 0)
                    if allowed:
                        self._compile(pc, allowed, close=False)()
                    raise ExecutionLimitExceeded(
                        "exceeded %d instructions (pc=%d)"
                        % (budget, pc + allowed))
                push(pc)
                executed += length
                pc = funcs[pc]()
        except _Halted:
            pass
        # Drop the list before the arrays derived from it are built.
        del push
        path = BlockPath(np.array(starts, dtype=np.int32),
                         np.array(directions, dtype=bool))
        del starts
        return self._result(machine, bytes(output), namespace["RV"], path)

    def release(self):
        """Drop the last run's state from the functions' globals."""
        for name in ("R", "M", "A", "ST", "T", "IT", "O", "OX", "D"):
            self.namespace.pop(name, None)

    def _result(self, machine, output, exit_value, path):
        """The :class:`MachineResult` derived from the block path."""
        starts = path.starts
        probe_counts = None
        if machine.probe_addresses is not None:
            size = len(self.code)
            counts = np.bincount(starts, minlength=size).tolist()
            probe_counts = {address: (counts[address]
                                      if 0 <= address < size else 0)
                            for address in machine.probe_addresses}

        trace = (self.tables.trace(starts, path.directions)
                 if machine.trace_enabled else None)
        return MachineResult(output, self.tables.count(starts), trace,
                             exit_value, probe_counts, block_path=path)


def block_tables(program, stops):
    """The :class:`BlockTables` of ``program`` cut at ``stops``."""
    return BlockTables(tuple(_decode(program)), frozenset(stops))


def _taken_pc(ins):
    """Where a taken conditional goes in direct mode: the original
    target when the branch owns forward slots."""
    return ins[7] if ins[6] else ins[5]


def _field(ins, pc, index):
    """Source text of an operand field: the integer itself, or a
    reference into the decoded code for anything else, so an odd field
    fails exactly as it does in the reference."""
    value = ins[index]
    if type(value) is int:
        return "%d" % value
    return "C[%d][%d]" % (pc, index)
