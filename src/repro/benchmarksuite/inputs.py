"""Deterministic synthetic input generation for the benchmark suite.

The paper profiled each benchmark over real Unix inputs (C programs of
100-3000 lines, text files, makefiles, grammars, ...).  These
generators synthesise inputs of the same character deterministically
from a seed, so every experiment is exactly reproducible.
"""


class DeterministicRandom:
    """A small 64-bit linear congruential generator.

    Python's ``random`` module would work, but its sequence is not
    guaranteed stable across versions; this generator freezes the
    input suite forever.
    """

    _MULTIPLIER = 6364136223846793005
    _INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = (seed * 2862933555777941757 + 3037000493) & self._MASK

    def next_int(self, bound):
        """Uniform-ish integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.state = (self.state * self._MULTIPLIER + self._INCREMENT) & self._MASK
        return (self.state >> 33) % bound

    def choice(self, sequence):
        return sequence[self.next_int(len(sequence))]

    def chance(self, numerator, denominator):
        """True with probability numerator/denominator."""
        return self.next_int(denominator) < numerator


_WORDS = [
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
    "pipeline", "branch", "cache", "buffer", "fetch", "decode", "issue",
    "compiler", "profile", "trace", "vector", "scalar", "memory", "stall",
    "system", "kernel", "signal", "buffer", "stream", "format", "record",
    "window", "editor", "parser", "symbol", "token", "string", "number",
]

_IDENTIFIERS = [
    "count", "index", "limit", "total", "value", "state", "flags", "level",
    "buffer", "cursor", "offset", "length", "result", "status", "weight",
    "table", "entry", "node", "head", "tail", "next", "prev", "size",
]


def words(rng, count):
    """A list of ``count`` plain words."""
    return [rng.choice(_WORDS) for _ in range(count)]


def text_lines(rng, n_lines):
    """Prose-like text: ``n_lines`` lines of one to eight
    space-separated words."""
    lines = []
    for _ in range(n_lines):
        line_length = 1 + rng.next_int(8)
        lines.append(" ".join(words(rng, line_length)))
    return ("\n".join(lines) + "\n").encode("ascii")


def c_source(rng, n_lines):
    """C-flavoured source text (for cccp, wc, compress, lex inputs)."""
    lines = []
    depth = 0
    while len(lines) < n_lines:
        kind = rng.next_int(10)
        indent = "    " * depth
        if kind == 0 and len(lines) < n_lines - 2:
            name = rng.choice(_IDENTIFIERS)
            lines.append("%sif (%s > %d) {" % (indent, name, rng.next_int(100)))
            depth += 1
        elif kind == 1 and depth > 0:
            depth -= 1
            lines.append("    " * depth + "}")
        elif kind == 2:
            lines.append("%s/* %s */" % (indent, " ".join(words(rng, 3))))
        elif kind == 3:
            lines.append("#define %s %d"
                         % (rng.choice(_IDENTIFIERS).upper(), rng.next_int(256)))
        elif kind == 4:
            name = rng.choice(_IDENTIFIERS)
            lines.append("%sfor (%s = 0; %s < %d; %s++)"
                         % (indent, name, name, rng.next_int(64), name))
        else:
            left = rng.choice(_IDENTIFIERS)
            right = rng.choice(_IDENTIFIERS)
            operator = rng.choice(["+", "-", "*", "/", "&", "|"])
            lines.append("%s%s = %s %s %d;"
                         % (indent, left, right, operator, rng.next_int(100)))
    while depth > 0:
        depth -= 1
        lines.append("    " * depth + "}")
    return ("\n".join(lines) + "\n").encode("ascii")


def makefile(rng, n_targets):
    """A makefile: target lines, dependency lists, command lines."""
    names = ["t%d" % index for index in range(n_targets)]
    lines = []
    for index in range(n_targets - 1, -1, -1):
        # Dependencies point at later-defined (lower-index) targets so
        # the graph is acyclic.
        n_deps = rng.next_int(min(3, index) + 1) if index else 0
        deps = sorted({names[rng.next_int(index)] for _ in range(n_deps)}
                      if index else set())
        lines.append("%s: %s" % (names[index], " ".join(deps)))
        lines.append("\tbuild %s" % names[index])
    return ("\n".join(lines) + "\n").encode("ascii")


def expression_stream(rng, n_expressions):
    """Arithmetic expressions (for yacc), one per line, nested at most
    four deep."""

    def emit(depth):
        if depth >= 4 or rng.chance(2, 5):
            return str(rng.next_int(100))
        if rng.chance(1, 5):
            return "(" + emit(depth + 1) + ")"
        operator = rng.choice(["+", "*"])
        return emit(depth + 1) + operator + emit(depth + 1)

    lines = [emit(0) for _ in range(n_expressions)]
    return ("\n".join(lines) + "\n").encode("ascii")


def binary_blob(rng, n_bytes):
    """Pseudo-binary data (for tar payloads): runs and noise."""
    data = bytearray()
    while len(data) < n_bytes:
        if rng.chance(1, 3):
            data.extend([rng.next_int(256)] * (1 + rng.next_int(32)))
        else:
            data.extend(rng.next_int(256) for _ in range(1 + rng.next_int(8)))
    return bytes(data[:n_bytes])


def grep_pattern(rng):
    """A pattern for the grep benchmark's matcher."""
    simple = rng.choice(_WORDS)
    kind = rng.next_int(5)
    if kind == 0:
        return simple.encode("ascii")
    if kind == 1:
        return ("^" + simple).encode("ascii")
    if kind == 2:
        return (simple[: max(1, len(simple) // 2)] + "." +
                simple[max(1, len(simple) // 2) + 1:]).encode("ascii")
    if kind == 3:
        return (simple[:2] + "*" + simple[2:3]).encode("ascii")
    return ("[%s]%s" % (simple[0] + "xyz", simple[1:])).encode("ascii")
