"""Compiled functions: the fast path of :meth:`Machine.run`.

The product's direct-mode runs (no address trace, no probes) execute
here; every other run, and every run this module cannot finish, goes
to :meth:`Machine._run`, the reference interpreter and the
differential oracle for this module.

Each function of the program becomes one generated Python function.
Its registers are Python locals (``r3 = r1 + r2``), and its body is a
``while True:`` loop over an ``if pc == <start>:`` chain of its
*blocks* in address order.  A block runs straight-line code from its
start.  It ends after a control transfer (conditional branch, JUMP,
CALL, RET, JIND) or HALT, or just before a CFG leader, and it first
appends its start to the run's path.  A forward successor falls down
the chain; a backward one goes round the loop (``continue``).  CALL is
a Python call of the callee's function with the pending-argument list,
from which the callee binds ``r0..r(n-1)``; RET is ``return``, so the
caller resumes after the CALL with its own locals.  HALT raises out of
every frame.  The source text is built from the decoded integer fields
with ``%d`` only, so no program string ever reaches ``exec``.  Control
flow that crosses a function's address range statically (a branch into
another function, or a fall-through off its end) merges the ranges
into one generated function.

The block starts are all that a run records.  Everything else is
derived from them once the run ends, with NumPy
(:meth:`BlockTables.trace`):

* the instruction count is the sum of the block lengths;
* each block that ends in a branch yields one trace record whose site,
  class and static target come from per-instruction tables;
* a conditional is taken when the next block starts at its taken pc.
  A branch whose taken pc equals its fall-through cannot be told apart
  that way, so its block appends the direction to a side list;
* RET and JIND targets are the next block start;
* gaps are differences of the cumulative instruction count, minus one.

The starts and the side list together are the run's :class:`BlockPath`,
which every compiled result carries.  The profile is folded from the
paths, trace layout maps a base run's path onto the laid-out program,
and :meth:`BlockTables.trace` turns the mapped path into the laid-out
program's trace without running it.

A faulting or overrunning run returns no result, so exactness means
raising exactly what the reference raises; the earlier of fault and
budget wins:

* every backward transfer checks the path against the instruction
  budget (a block runs at least one instruction, so more blocks than
  the budget is an overrun).  An overrun, and a run that halts past
  its budget, raise the reference's :class:`ExecutionLimitExceeded`,
  computed from the blocks that completed;
* a call chain deeper than Python's recursion limit re-runs with the
  limit raised to :data:`_DEEP_FRAMES`;
* a fault (any exception the generated code raises, an unset-register
  read included), a JIND to a pc that starts no block of its function,
  and a call chain deeper than :data:`_DEEP_FRAMES` re-run on the
  reference, which raises the fault or returns the result.  Such a
  result has no block path.

Each re-run counts one ``vm.fast_path_exits`` and one
``vm.fast_path_exits.<reason>`` (``fault``, ``jind`` or ``depth``).

The generated code is compiled once per decoded program and cached;
every run executes it in a fresh namespace that holds the run's
memory, inputs, output and path, so concurrent runs of one program
share nothing they write.  The cache keys are tuples of plain values;
it never holds a :class:`Program`.
"""

import sys
import threading
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.analysis.effects import OPCODE_EFFECTS
from repro.cfg import compute_leaders
from repro.telemetry.core import TELEMETRY
from repro.vm.machine import (
    _ADD, _AND, _ARG, _BEQ, _BGE, _BGT, _BLE, _BLT, _BNE, _CALL,
    _CONDITIONAL_INTS, _DIV, _GETC, _HALT, _JIND, _JUMP, _LI, _LOAD,
    _MOV, _MUL, _NEG, _NOP, _NOT, _OP_INT, _OR, _PUTC, _PUTI, _REM,
    _RESULT, _RET, _RETV, _SHL, _SHR, _STORE, _SUB, _TABLE, _XOR,
    ExecutionLimitExceeded, MachineError, MachineResult, _c_div, _c_rem,
    _decode,
)
from repro.vm.tracing import BranchClass, BranchTrace

#: Most recently compiled programs kept between runs.  A cold ``all``
#: runs one program at a time, every input of a base program (the
#: laid-out program's traces are derived from those runs' block paths,
#: never run), so a few entries give every hit.
_CACHE_SIZE = 8

_CACHE = {}
_CACHE_LOCK = threading.Lock()

#: The recursion limit of a re-run whose call chain overflowed
#: Python's: one Python frame per active call.
_DEEP_FRAMES = 100_000

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

#: The decoded fields each opcode reads as registers, from the ISA's
#: register-effect table.
_READS = {_OP_INT[op]: tuple({"a": 2, "b": 3}[field]
                             for field in effect.reads)
          for op, effect in OPCODE_EFFECTS.items()}

#: Source of the ARG cases the inline code leaves to a call: padding
#: the pending arguments with zeros, or overwriting a staged one.
_ARG_HELPER = """
def G(i, v):
    while len(A) <= i:
        A.append(0)
    A[i] = v
"""


class _Stopped(Exception):
    """Raised out of every frame of a run whose path is complete: by
    HALT, and by a backward transfer once the path holds more blocks
    than the budget allows instructions."""


class _Missed(Exception):
    """Raised when control reaches a pc its function's chain does not
    start a block at: a JIND target, or a pc outside the code."""

    def __init__(self, pc):
        super().__init__(pc)
        self.pc = pc


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
        self.ends = np.array(ends, dtype=np.intp)
        self.sizes = self.ends - np.arange(size) + 1

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
        # Counting the starts beats gathering a size per start.
        return int(np.bincount(starts, minlength=len(self.sizes))
                   @ self.sizes)

    def check_budget(self, starts, budget, cumulative=None):
        """Raise the :class:`ExecutionLimitExceeded` a run would if
        the blocks entered at ``starts`` (``cumulative`` their running
        instruction count) ran more than ``budget`` instructions."""
        if cumulative is None:
            cumulative = np.cumsum(self.sizes[starts])
        if not len(cumulative) or int(cumulative[-1]) <= budget:
            return
        index = int(np.searchsorted(cumulative, budget, side="right"))
        done = int(cumulative[index - 1]) if index else 0
        raise ExecutionLimitExceeded(
            "exceeded %d instructions (pc=%d)"
            % (budget, int(starts[index]) + max(budget - done, 0)))

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
        if budget is not None:
            self.check_budget(starts, budget, cumulative)
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
    entries = tuple(program.labels[label]
                    for label in program.functions.values())
    key = (code, program.globals_size, entries,
           tuple(tuple(table.entries) for table in program.jump_tables))
    # The function entries and jump tables are in the key because the
    # CFG leaders, and so the block boundaries and the functions'
    # ranges, depend on them.
    with _CACHE_LOCK:
        compiled = _CACHE.get(key)
    if compiled is None:
        compiled = _Compiled(code, frozenset(compute_leaders(program)),
                             entries, program.globals_size)
        with _CACHE_LOCK:
            _CACHE[key] = compiled
            while len(_CACHE) > _CACHE_SIZE:
                del _CACHE[next(iter(_CACHE))]
    exits = []
    try:
        try:
            return compiled.run(machine)
        except RecursionError:
            exits.append("depth")
            with _deep_stack():
                return compiled.run(machine)
    except ExecutionLimitExceeded:
        raise
    except Exception as error:
        # Everything else re-runs on the reference: a chain deeper
        # still, a JIND to a pc that starts no block, or a fault,
        # which the reference must raise too.
        if isinstance(error, RecursionError):
            exits.append("depth")
        elif isinstance(error, _Missed) and _within(error.pc, len(code)):
            exits.append("jind")
        else:
            exits.append("fault")
        result = machine._run()
        if exits[-1] == "fault":
            raise RuntimeError(
                "the compiled run raised %r, the reference "
                "interpreter did not" % (error,)) from error
        return result
    finally:
        TELEMETRY.count("vm.fast_path_exits", len(exits))
        for reason in exits:
            TELEMETRY.count("vm.fast_path_exits." + reason)


_DEEP_LOCK = threading.Lock()
#: Runs under the raised recursion limit, and the limit they replaced.
_deep_runs = [0, None]


@contextmanager
def _deep_stack():
    """Raise the recursion limit to :data:`_DEEP_FRAMES` while any
    thread runs a deep call chain."""
    with _DEEP_LOCK:
        if not _deep_runs[0]:
            _deep_runs[1] = sys.getrecursionlimit()
            sys.setrecursionlimit(max(_deep_runs[1], _DEEP_FRAMES))
        _deep_runs[0] += 1
    try:
        yield
    finally:
        with _DEEP_LOCK:
            _deep_runs[0] -= 1
            if not _deep_runs[0]:
                sys.setrecursionlimit(_deep_runs[1])


class _Compiled:
    """The generated code of one decoded program cut at ``stops``, its
    CFG leaders."""

    def __init__(self, code, stops, entries, memory_size):
        self.code = code
        self.stops = stops
        self.memory_size = memory_size
        self.tables = BlockTables(code, stops)
        size = len(code)
        ends = self.tables.ends.tolist()

        successors = {end: _successors(code[end], end) for end in set(ends)}
        # The leaders hold the function entries and the CALL targets;
        # a slotted branch's taken pc and fall-through may lie past
        # them.
        starts = {pc for pc in stops if _within(pc, size)}
        edges = [(end, target) for end, targets in successors.items()
                 for target in targets if _within(target, size)]
        starts.update(target for _, target in edges)
        calls = [(end, code[end][5]) for end in successors
                 if code[end][0] == _CALL and _within(code[end][5], size)]

        # One generated function per address range: a range starts at
        # a function entry no edge crosses.
        boundaries = sorted({0} | starts.intersection(entries))
        kept = set(boundaries)
        for source, target in edges:
            low, high = sorted((source, target))
            index = bisect_right(boundaries, low)
            while index < len(boundaries) and boundaries[index] <= high:
                kept.discard(boundaries[index])
                index += 1
        self.bounds = sorted(kept)

        arities = {low: Counter() for low in self.bounds}
        for end, target in calls:
            arities[self._low(target)][self._staged(end)] += 1
        self.names = {}
        sources = [_ARG_HELPER]
        ordered = sorted(starts)
        for low, high in zip(self.bounds, self.bounds[1:] + [size]):
            chain = ordered[bisect_right(ordered, low - 1):
                            bisect_right(ordered, high - 1)]
            arity = arities[low].most_common(1)
            sources.append("\n".join(self._function(
                low, high, chain, ends, arity[0][0] if arity else 0)) + "\n")
        self.source = "".join(sources)
        # One compile per function: the compiler's working memory stays
        # that of the largest function, not of the whole program.
        self.functions = [compile(source, "<compiled program>", "exec")
                          for source in sources]

    def _low(self, pc):
        """The first pc of the range that holds ``pc``."""
        return self.bounds[bisect_right(self.bounds, pc) - 1]

    def function(self, pc):
        """The name of the generated function whose range holds
        ``pc``."""
        return "f%d" % self._low(pc)

    # -- code generation ------------------------------------------------

    def _staged(self, end):
        """The arguments staged by the block ending at the CALL at
        ``end``: one more than its highest ARG index, 0 for none."""
        staged = 0
        pc = end - 1
        while (pc >= 0 and pc + 1 not in self.stops
               and self.code[pc][0] not in _ENDERS):
            ins = self.code[pc]
            if ins[0] == _ARG and type(ins[4]) is int:
                staged = max(staged, ins[4] + 1)
            pc -= 1
        return staged

    def _register(self, value):
        """The local holding register ``value``: keys that compare
        equal share one local, as they share one dict entry in the
        reference."""
        name = self.names.get(value)
        if name is None:
            if type(value) is int and value >= 0:
                name = "r%d" % value
            else:
                name = "q%d" % len(self.names)
            self.names[value] = name
        return name

    def _function(self, low, high, chain, ends, arity):
        """Source lines of the function running ``chain``, the block
        starts in ``[low, high)``; ``arity`` is its most common
        argument count."""
        code = self.code
        reads = {code[pc][field] for pc in range(low, high)
                 for field in _READS.get(code[pc][0], ())}
        bound = sorted(key for key in reads
                       if type(key) is int and key >= 0)
        body = []
        for start in chain:
            block = ["S(%d)" % start]
            for pc in range(start, ends[start]):
                self._emit(block, pc, code[pc])
            self._emit_exit(block, ends[start], code[ends[start]], start)
            body.append("if pc == %d:" % start)
            body += ["    " + line for line in block]
        body.append("raise J(pc)")

        lines = ["def f%d(a, pc):" % low]
        written = [name for name, op in (("A", _CALL), ("RV", _RETV))
                   if any(code[pc][0] == op for pc in range(low, high))]
        if written:
            lines.append("    global " + ", ".join(written))
        if bound:
            generic = ["n = len(a)"] + [
                "if n > %d: %s = a[%d]" % (key, self._register(key), key)
                for key in bound]
            if arity:
                lines.append("    if len(a) == %d:" % arity)
                lines.append("        %s, = a" % ", ".join(
                    self._register(key) for key in range(arity)))
                lines.append("    else:")
            else:
                lines.append("    if a:")
            lines += ["        " + line for line in generic]
        lines.append("    while True:")
        lines += ["        " + line for line in body]
        return lines

    def _emit(self, body, pc, ins):
        """Source lines of one straight-line instruction."""
        op = ins[0]
        reg = self._register
        if op == _LI:
            body.append("%s = %s" % (reg(ins[1]), _field(ins, pc, 4)))
        elif op == _MOV:
            body.append("%s = %s" % (reg(ins[1]), reg(ins[2])))
        elif op in _BINARY:
            body.append("%s = %s %s %s" % (reg(ins[1]), reg(ins[2]),
                                           _BINARY[op], reg(ins[3])))
        elif op in _SHIFT:
            body.append("%s = %s %s (%s & 63)" % (
                reg(ins[1]), reg(ins[2]), _SHIFT[op], reg(ins[3])))
        elif op == _LOAD:
            body += [_address(reg(ins[2]), ins, pc),
                     "if x < 0: raise E",
                     "%s = M[x]" % reg(ins[1])]
        elif op == _STORE:
            body += [_address(reg(ins[3]), ins, pc),
                     "if x < 0: raise E",
                     "M[x] = %s" % reg(ins[2])]
        elif op == _DIV:
            body.append("%s = cdiv(%s, %s)" % (reg(ins[1]), reg(ins[2]),
                                                reg(ins[3])))
        elif op == _REM:
            body.append("%s = crem(%s, %s)" % (reg(ins[1]), reg(ins[2]),
                                                reg(ins[3])))
        elif op == _NEG:
            body.append("%s = -%s" % (reg(ins[1]), reg(ins[2])))
        elif op == _NOT:
            body.append("%s = ~%s" % (reg(ins[1]), reg(ins[2])))
        elif op == _ARG:
            index, value = ins[4], reg(ins[2])
            if type(index) is int and index >= 0:
                body += ["if len(A) == %d: A.append(%s)" % (index, value),
                         "else: G(%d, %s)" % (index, value)]
            else:
                body.append("G(C[%d][4], %s)" % (pc, value))
        elif op == _RETV:
            body.append("RV = %s" % reg(ins[2]))
        elif op == _RESULT:
            body.append("%s = RV" % reg(ins[1]))
        elif op == _TABLE:
            body += ["x = %s" % reg(ins[2]),
                     "if x < 0: raise E",
                     "%s = TT[%s][x]" % (reg(ins[1]), _field(ins, pc, 4))]
        elif op == _GETC:
            stream = ins[4]
            if type(stream) is int and stream >= 0:
                # I<k> is bound only when the run has stream k.
                body.append("%s = next(I%d, -1)" % (reg(ins[1]), stream))
            else:
                body.append("raise E")
        elif op == _PUTC:
            body.append("O(%s & 255)" % reg(ins[2]))
        elif op == _PUTI:
            body.append("OX(b'%%d' %% %s)" % reg(ins[2]))
        elif op != _NOP:  # pragma: no cover - decode covers every opcode
            raise MachineError("unknown opcode %d at pc %d" % (op, pc))

    def _emit_exit(self, body, pc, ins, start):
        """Source lines of the last instruction of the block entered at
        ``start``, ending in the move to the next pc."""
        op = ins[0]
        reg = self._register
        if op in _COMPARE:
            condition = "%s %s %s" % (reg(ins[2]), _COMPARE[op],
                                      reg(ins[3]))
            taken, fall = _taken_pc(ins), pc + 1 + ins[6]
            if taken == fall:
                body.append("D(%s)" % condition)
                body += _goto(fall, start)
            elif taken > start:
                body.append("pc = %d if %s else %d"
                            % (taken, condition, fall))
            else:
                body.append("if %s:" % condition)
                body += ["    " + line for line in _goto(taken, start)]
                body.append("pc = %d" % fall)
        elif op == _JUMP:
            body += _goto(ins[5], start)
        elif op == _CALL:
            target = ins[5]
            if _within(target, len(self.code)):
                body += ["x = A",
                         "A = []",
                         "%s(x, %d)" % (self.function(target), target)]
                body += _goto(pc + 1, start)
            else:
                body.append("raise E")
        elif op == _RET:
            body.append("return")
        elif op == _JIND:
            body.append("pc = %s" % reg(ins[2]))
            body += _BACKWARD
        elif op == _HALT:
            body.append("raise H")
        else:
            self._emit(body, pc, ins)
            body += _goto(pc + 1, start)

    # -- execution ------------------------------------------------------

    def run(self, machine):
        """One run of ``machine`` in a fresh namespace; raises
        :class:`_Missed`, :class:`RecursionError` or the fault of the
        generated code when the run cannot finish here, unless the
        blocks that completed already overran the budget."""
        memory_size = self.memory_size
        memory = [0] * memory_size
        for address, value in machine.program.data_init.items():
            if not 0 <= address < memory_size:
                raise MachineError(
                    "data initializer outside memory: %d" % address)
            memory[address] = value
        output = bytearray()
        path = []
        directions = []
        namespace = {
            "C": self.code, "E": MachineError, "H": _Stopped,
            "J": _Missed, "cdiv": _c_div, "crem": _c_rem,
            "S": path.append, "P": path, "L": machine.max_instructions,
            "D": directions.append, "M": memory, "A": [], "RV": 0,
            "O": output.append, "OX": output.extend,
            "TT": [table.entries for table in machine.program.jump_tables]}
        for index, stream in enumerate(machine.inputs):
            namespace["I%d" % index] = iter(stream)
        for function in self.functions:
            exec(function, namespace)
        entry = machine.program.entry

        complete, failure = True, None
        try:
            namespace[self.function(entry)]([], entry)
            # The outermost function returned: RET on an empty stack.
            complete, failure = False, MachineError("empty call stack")
        except _Stopped:
            pass
        except _Missed as miss:
            # The block that jumped did finish.
            failure = miss
        except Exception as error:
            # The block that raised did not finish.
            complete, failure = False, error
        exit_value = namespace["RV"]
        # The generated functions and their globals form a cycle: break
        # it, so the run's memory and path list go now, not at the next
        # garbage collection.
        namespace.clear()
        starts = np.fromiter(path, dtype=np.int32, count=len(path))
        del path
        done = starts if complete else starts[:-1]
        instructions = self.tables.count(done)
        if instructions > machine.max_instructions:
            self.tables.check_budget(done, machine.max_instructions)
        if failure is not None:
            raise failure
        directions = np.array(directions, dtype=bool)
        trace = (self.tables.trace(starts, directions)
                 if machine.trace_enabled else None)
        return MachineResult(bytes(output), instructions, trace, exit_value,
                             block_path=BlockPath(starts, directions))


#: The tail of a backward transfer: the budget check, then round the
#: loop to the chain's head.
_BACKWARD = ["if len(P) > L: raise H", "continue"]


def _goto(target, start):
    """Source lines moving the block entered at ``start`` to
    ``target``: down the chain, or round the loop."""
    return ["pc = %d" % target] + (_BACKWARD if target <= start else [])


def _successors(ins, pc):
    """The pcs the block ending at ``pc`` (with ``ins``) goes to next
    within its function: the CALL's continuation, not its callee."""
    op = ins[0]
    if op in _COMPARE:
        return [_taken_pc(ins), pc + 1 + ins[6]]
    if op == _JUMP:
        return [ins[5]]
    if op in (_RET, _JIND, _HALT):
        return []
    return [pc + 1]


def _within(pc, size):
    return type(pc) is int and 0 <= pc < size


def block_tables(program, stops):
    """The :class:`BlockTables` of ``program`` cut at ``stops``."""
    return BlockTables(tuple(_decode(program)), frozenset(stops))


def _taken_pc(ins):
    """Where a taken conditional goes in direct mode: the original
    target when the branch owns forward slots."""
    return ins[7] if ins[6] else ins[5]


def _field(ins, pc, index):
    """Source text of an immediate field: the integer itself, or a
    reference into the decoded code for anything else, so an odd field
    behaves exactly as it does in the reference."""
    value = ins[index]
    if type(value) is int:
        return "%d" % value
    return "C[%d][%d]" % (pc, index)


def _address(base, ins, pc):
    """Source of ``x = <base> + <offset>`` for LOAD and STORE."""
    if ins[4] == 0 and type(ins[4]) is int:
        return "x = %s" % base
    return "x = %s + %s" % (base, _field(ins, pc, 4))

