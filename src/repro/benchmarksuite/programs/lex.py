"""lex — a table-driven lexical analyzer.

Real lex compiles regular expressions into DFA tables and links them
with a fixed table-walking driver.  This module does the same at build
time: a small Python DFA builder produces the character-class and
transition tables, which are embedded into the Minic source as array
initializers.  The Minic program is the driver: a maximal-munch loop
walking ``delta[state * NC + class]`` and counting tokens by type over
C-like source, the dominant branch being the table-walk dispatch
(taken roughly half the time, matching lex's ~49% in Table 2).
"""

from repro.benchmarksuite.inputs import c_source

DESCRIPTION = "lexing C-like sources"
RUNS = 6

# --- build-time DFA construction -------------------------------------------

# Character classes.
_CLS_OTHER = 0
_CLS_LETTER = 1
_CLS_DIGIT = 2
_CLS_BLANK = 3
_CLS_NEWLINE = 4
_CLS_QUOTE = 5
_CLS_SLASH = 6
_CLS_STAR = 7
_CLS_EQ = 8
_CLS_LT = 9
_CLS_GT = 10
_CLS_BANG = 11
_CLS_AMP = 12
_CLS_PIPE = 13
_CLS_PLUS = 14
_CLS_MINUS = 15
_CLS_PUNCT = 16
_CLS_BACKSLASH = 17
N_CLASSES = 18

# Token types counted by the driver.
TOKEN_NAMES = ["ws", "newline", "ident", "number", "string", "comment",
               "op1", "op2", "punct", "other"]
_T_WS, _T_NL, _T_IDENT, _T_NUM, _T_STR, _T_COMMENT, _T_OP1, _T_OP2, \
    _T_PUNCT, _T_OTHER = range(10)


def _build_class_table():
    table = [_CLS_OTHER] * 128
    for code in range(128):
        char = chr(code)
        if char.isalpha() or char == "_":
            table[code] = _CLS_LETTER
        elif char.isdigit():
            table[code] = _CLS_DIGIT
        elif char in " \t\r":
            table[code] = _CLS_BLANK
        elif char == "\n":
            table[code] = _CLS_NEWLINE
        elif char == '"':
            table[code] = _CLS_QUOTE
        elif char == "/":
            table[code] = _CLS_SLASH
        elif char == "*":
            table[code] = _CLS_STAR
        elif char == "=":
            table[code] = _CLS_EQ
        elif char == "<":
            table[code] = _CLS_LT
        elif char == ">":
            table[code] = _CLS_GT
        elif char == "!":
            table[code] = _CLS_BANG
        elif char == "&":
            table[code] = _CLS_AMP
        elif char == "|":
            table[code] = _CLS_PIPE
        elif char == "+":
            table[code] = _CLS_PLUS
        elif char == "-":
            table[code] = _CLS_MINUS
        elif char in ";,(){}[].%^~?:":
            table[code] = _CLS_PUNCT
        elif char == "\\":
            table[code] = _CLS_BACKSLASH
    return table


def _build_dfa():
    """Return (delta, accept, n_states) for the C-ish token DFA."""
    transitions = {}   # (state, class) -> state
    accept = {}        # state -> token type
    next_state = [0]

    def new_state(token=None):
        next_state[0] += 1
        state = next_state[0]
        if token is not None:
            accept[state] = token
        return state

    start = 0
    ident = new_state(_T_IDENT)
    number = new_state(_T_NUM)
    blanks = new_state(_T_WS)
    newline = new_state(_T_NL)
    string_body = new_state(_T_OTHER)   # unterminated string = error
    string_escape = new_state(_T_OTHER)
    string_done = new_state(_T_STR)
    slash = new_state(_T_OP1)
    block_comment = new_state(_T_OTHER)
    block_star = new_state(_T_OTHER)
    comment_done = new_state(_T_COMMENT)
    line_comment = new_state(_T_COMMENT)
    op2_done = new_state(_T_OP2)
    punct = new_state(_T_PUNCT)
    other = new_state(_T_OTHER)

    # Start state: one transition per class.
    transitions[(start, _CLS_LETTER)] = ident
    transitions[(start, _CLS_DIGIT)] = number
    transitions[(start, _CLS_BLANK)] = blanks
    transitions[(start, _CLS_NEWLINE)] = newline
    transitions[(start, _CLS_QUOTE)] = string_body
    transitions[(start, _CLS_SLASH)] = slash
    transitions[(start, _CLS_PUNCT)] = punct
    transitions[(start, _CLS_OTHER)] = other
    transitions[(start, _CLS_BACKSLASH)] = other
    transitions[(start, _CLS_STAR)] = new_state(_T_OP1)  # lone '*'

    # Identifiers and numbers.
    transitions[(ident, _CLS_LETTER)] = ident
    transitions[(ident, _CLS_DIGIT)] = ident
    transitions[(number, _CLS_DIGIT)] = number
    transitions[(blanks, _CLS_BLANK)] = blanks

    # Strings with escapes.
    for cls in range(N_CLASSES):
        if cls == _CLS_QUOTE:
            transitions[(string_body, cls)] = string_done
        elif cls == _CLS_BACKSLASH:
            transitions[(string_body, cls)] = string_escape
        elif cls == _CLS_NEWLINE:
            pass  # unterminated: no transition, error token
        else:
            transitions[(string_body, cls)] = string_body
        transitions[(string_escape, cls)] = string_body

    # Comments.
    transitions[(slash, _CLS_STAR)] = block_comment
    transitions[(slash, _CLS_SLASH)] = line_comment
    transitions[(slash, _CLS_EQ)] = op2_done  # '/='
    for cls in range(N_CLASSES):
        if cls == _CLS_STAR:
            transitions[(block_comment, cls)] = block_star
            transitions[(block_star, cls)] = block_star
        elif cls == _CLS_SLASH:
            transitions[(block_comment, cls)] = block_comment
            transitions[(block_star, cls)] = comment_done
        else:
            transitions[(block_comment, cls)] = block_comment
            transitions[(block_star, cls)] = block_comment
        if cls != _CLS_NEWLINE:
            transitions[(line_comment, cls)] = line_comment

    # Two-character operator heads.
    heads = {
        _CLS_EQ: [_CLS_EQ],                   # == (and = alone)
        _CLS_LT: [_CLS_EQ, _CLS_LT],          # <= <<
        _CLS_GT: [_CLS_EQ, _CLS_GT],          # >= >>
        _CLS_BANG: [_CLS_EQ],                 # !=
        _CLS_AMP: [_CLS_AMP, _CLS_EQ],        # && &=
        _CLS_PIPE: [_CLS_PIPE, _CLS_EQ],      # || |=
        _CLS_PLUS: [_CLS_PLUS, _CLS_EQ],      # ++ +=
        _CLS_MINUS: [_CLS_MINUS, _CLS_EQ],    # -- -=
    }
    for head_class, follow_classes in heads.items():
        head_state = new_state(_T_OP1)
        transitions[(start, head_class)] = head_state
        for follow in follow_classes:
            transitions[(head_state, follow)] = op2_done

    n_states = next_state[0] + 1
    delta = [-1] * (n_states * N_CLASSES)
    for (state, cls), target in transitions.items():
        delta[state * N_CLASSES + cls] = target
    accept_table = [accept.get(state, -1) for state in range(n_states)]
    accept_table[0] = -1
    return delta, accept_table, n_states


def _format_array(values):
    """``values`` as a C initializer list, 16 to a line."""
    chunks = []
    for index in range(0, len(values), 16):
        chunks.append(", ".join(str(value)
                                for value in values[index:index + 16]))
    return ",\n    ".join(chunks)


_CLASS_TABLE = _build_class_table()
_DELTA, _ACCEPT, _N_STATES = _build_dfa()

SOURCE = r"""
// lex: table-driven maximal-munch tokenizer over stream 0.
// The tables below are generated by the build-time DFA constructor.
int cls_tab[128] = {%(class_table)s};
int delta[%(delta_size)d] = {%(delta)s};
int accept[%(n_states)d] = {%(accept)s};
int counts[10];

int main() {
    int c; int cls; int nxt; int t;
    int state;
    int tokens = 0;
    int errors = 0;
    int chars = 0;

    c = getc(0);
    while (c != -1) {
        // Maximal munch: walk the DFA until no transition exists.
        state = 0;
        do {
            cls = cls_tab[c & 127];
            nxt = delta[state * %(n_classes)d + cls];
            if (nxt == -1) break;
            state = nxt;
            chars = chars + 1;
            c = getc(0);
        } while (c != -1);

        if (state == 0) {
            // No transition from the start state (cannot happen with a
            // complete class table, but never spin): skip the char.
            errors = errors + 1;
            c = getc(0);
        } else {
            t = accept[state];
            if (t >= 0) counts[t] = counts[t] + 1;
            else errors = errors + 1;
            tokens = tokens + 1;
        }
    }

    puti(tokens); putc(' ');
    puti(errors); putc(' ');
    puti(chars); putc('\n');
    for (t = 0; t < 10; t = t + 1) {
        puti(counts[t]);
        if (t < 9) putc(' ');
    }
    putc('\n');
    return 0;
}
""" % {
    "class_table": _format_array(_CLASS_TABLE),
    "delta": _format_array(_DELTA),
    "delta_size": len(_DELTA),
    "accept": _format_array(_ACCEPT),
    "n_states": _N_STATES,
    "n_classes": N_CLASSES,
}


def make_inputs(rng, run_index, scale):
    # lex dominates Table 1's instruction counts; give it bigger inputs.
    n_lines = max(20, int((400 + rng.next_int(800)) * scale))
    return [c_source(rng, n_lines)]
