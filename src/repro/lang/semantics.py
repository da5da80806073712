"""Semantic analysis for Minic.

Performs, in order:

1. constant folding over the whole AST (literal arithmetic, trivial
   identities) — the only "optimization" the paper's results depend on
   is that the compiled code is reasonable, not bloated;
2. symbol resolution and checking: duplicate definitions, undeclared
   names, scalar/array misuse, call arity, break/continue placement;
3. construction of the symbol tables the code generator consumes.

The analysis returns a :class:`UnitInfo` with global layout and
per-function scope information.
"""

from repro.lang import ast

BUILTINS = {
    # name -> (number of arguments, returns a value)
    "getc": (1, True),
    "putc": (1, False),
    "puti": (1, False),
}


class SemanticError(Exception):
    """Raised on semantically invalid Minic programs."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class GlobalSymbol:
    """A global scalar or array placed in data memory."""

    __slots__ = ("name", "offset", "size", "is_array", "init")

    def __init__(self, name, offset, size, is_array, init):
        self.name = name
        self.offset = offset
        self.size = size
        self.is_array = is_array
        self.init = init


class FunctionInfo:
    """Scope information for one function."""

    __slots__ = ("name", "params", "local_arrays", "definition")

    def __init__(self, name, params, definition):
        self.name = name
        self.params = params
        self.local_arrays = {}  # name -> GlobalSymbol (static storage)
        self.definition = definition


class UnitInfo:
    """Result of semantic analysis."""

    def __init__(self):
        self.globals = {}     # name -> GlobalSymbol
        self.functions = {}   # name -> FunctionInfo
        self.globals_size = 0


# --- constant folding -----------------------------------------------------


def _fold_unary(op, value, line):
    if op == "-":
        return ast.IntLit(-value, line)
    if op == "!":
        return ast.IntLit(0 if value else 1, line)
    return ast.IntLit(~value, line)


def _fold_binary(op, left, right, line):
    if op == "/":
        if right == 0:
            return None  # leave for runtime
        quotient = abs(left) // abs(right)
        value = quotient if (left < 0) == (right < 0) else -quotient
    elif op == "%":
        if right == 0:
            return None
        remainder = abs(left) % abs(right)
        value = remainder if left >= 0 else -remainder
    elif op == "+":
        value = left + right
    elif op == "-":
        value = left - right
    elif op == "*":
        value = left * right
    elif op == "<<":
        value = left << (right & 63)
    elif op == ">>":
        value = left >> (right & 63)
    elif op == "&":
        value = left & right
    elif op == "|":
        value = left | right
    elif op == "^":
        value = left ^ right
    elif op == "==":
        value = 1 if left == right else 0
    elif op == "!=":
        value = 1 if left != right else 0
    elif op == "<":
        value = 1 if left < right else 0
    elif op == "<=":
        value = 1 if left <= right else 0
    elif op == ">":
        value = 1 if left > right else 0
    elif op == ">=":
        value = 1 if left >= right else 0
    elif op == "&&":
        value = 1 if left and right else 0
    else:  # "||"
        value = 1 if left or right else 0
    return ast.IntLit(value, line)


def fold_expr(expr):
    """Recursively fold constant subexpressions; returns a new/old node."""
    if isinstance(expr, ast.Unary):
        operand = fold_expr(expr.operand)
        if isinstance(operand, ast.IntLit):
            return _fold_unary(expr.op, operand.value, expr.line)
        expr.operand = operand
        return expr
    if isinstance(expr, ast.Binary):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if isinstance(left, ast.IntLit) and isinstance(right, ast.IntLit):
            folded = _fold_binary(expr.op, left.value, right.value, expr.line)
            if folded is not None:
                return folded
        expr.left = left
        expr.right = right
        return expr
    if isinstance(expr, ast.Index):
        expr.index = fold_expr(expr.index)
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [fold_expr(argument) for argument in expr.args]
        return expr
    return expr


def fold_statement(statement):
    """Fold constants inside a statement tree, in place where possible."""
    if isinstance(statement, ast.Block):
        statement.statements = [fold_statement(s) for s in statement.statements]
    elif isinstance(statement, ast.LocalDecl):
        if statement.init is not None:
            statement.init = fold_expr(statement.init)
    elif isinstance(statement, ast.Assign):
        statement.target = fold_expr(statement.target)
        statement.value = fold_expr(statement.value)
    elif isinstance(statement, ast.If):
        statement.cond = fold_expr(statement.cond)
        statement.then_branch = fold_statement(statement.then_branch)
        if statement.else_branch is not None:
            statement.else_branch = fold_statement(statement.else_branch)
    elif isinstance(statement, ast.While):
        statement.cond = fold_expr(statement.cond)
        statement.body = fold_statement(statement.body)
    elif isinstance(statement, ast.DoWhile):
        statement.cond = fold_expr(statement.cond)
        statement.body = fold_statement(statement.body)
    elif isinstance(statement, ast.For):
        if statement.init is not None:
            statement.init = fold_statement(statement.init)
        if statement.cond is not None:
            statement.cond = fold_expr(statement.cond)
        if statement.step is not None:
            statement.step = fold_statement(statement.step)
        statement.body = fold_statement(statement.body)
    elif isinstance(statement, ast.Switch):
        statement.expr = fold_expr(statement.expr)
        for case in statement.cases:
            case.body = [fold_statement(s) for s in case.body]
    elif isinstance(statement, ast.Return):
        if statement.value is not None:
            statement.value = fold_expr(statement.value)
    elif isinstance(statement, ast.ExprStmt):
        statement.expr = fold_expr(statement.expr)
    return statement


# --- checking ----------------------------------------------------------------


class _Checker:
    """Walks a function body validating name uses and control placement."""

    def __init__(self, unit_info, function_info):
        self.unit = unit_info
        self.function = function_info
        self.scalars = set(function_info.params)
        self.loop_depth = 0
        self.switch_depth = 0

    def error(self, message, line):
        raise SemanticError("%s (in function %s)" % (message, self.function.name),
                            line)

    # name classification -------------------------------------------------

    def is_array(self, name):
        if name in self.function.local_arrays:
            return True
        symbol = self.unit.globals.get(name)
        return symbol is not None and symbol.is_array

    def known(self, name):
        return (name in self.scalars or name in self.function.local_arrays
                or name in self.unit.globals)

    # statements --------------------------------------------------------------

    def check_statement(self, statement):
        if isinstance(statement, ast.Block):
            for child in statement.statements:
                self.check_statement(child)
        elif isinstance(statement, ast.LocalDecl):
            name = statement.name
            if name in self.scalars or name in self.function.local_arrays:
                self.error("duplicate local %r" % name, statement.line)
            if statement.is_array:
                if statement.size <= 0:
                    self.error("array %r must have positive size" % name,
                               statement.line)
                self.function.local_arrays[name] = None  # storage assigned later
            else:
                self.scalars.add(name)
                if statement.init is not None:
                    self.check_expr(statement.init)
        elif isinstance(statement, ast.Assign):
            target = statement.target
            if isinstance(target, ast.Var):
                if not self.known(target.name):
                    self.error("assignment to undeclared %r" % target.name,
                               target.line)
                if self.is_array(target.name):
                    self.error("array %r assigned without index" % target.name,
                               target.line)
            else:
                if not self.is_array(target.name):
                    self.error("%r indexed but not an array" % target.name,
                               target.line)
                self.check_expr(target.index)
            self.check_expr(statement.value)
        elif isinstance(statement, ast.If):
            self.check_expr(statement.cond)
            self.check_statement(statement.then_branch)
            if statement.else_branch is not None:
                self.check_statement(statement.else_branch)
        elif isinstance(statement, (ast.While, ast.DoWhile)):
            self.check_expr(statement.cond)
            self.loop_depth += 1
            self.check_statement(statement.body)
            self.loop_depth -= 1
        elif isinstance(statement, ast.For):
            if statement.init is not None:
                self.check_statement(statement.init)
            if statement.cond is not None:
                self.check_expr(statement.cond)
            if statement.step is not None:
                self.check_statement(statement.step)
            self.loop_depth += 1
            self.check_statement(statement.body)
            self.loop_depth -= 1
        elif isinstance(statement, ast.Switch):
            self.check_expr(statement.expr)
            seen_values = set()
            for case in statement.cases:
                for value in case.values:
                    if value in seen_values:
                        self.error("duplicate case value %d" % value, case.line)
                    seen_values.add(value)
            self.switch_depth += 1
            for case in statement.cases:
                for child in case.body:
                    self.check_statement(child)
            self.switch_depth -= 1
        elif isinstance(statement, ast.Break):
            if self.loop_depth == 0 and self.switch_depth == 0:
                self.error("break outside loop or switch", statement.line)
        elif isinstance(statement, ast.Continue):
            if self.loop_depth == 0:
                self.error("continue outside loop", statement.line)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self.check_expr(statement.value)
        elif isinstance(statement, ast.ExprStmt):
            self.check_expr(statement.expr)
        else:  # pragma: no cover
            self.error("unknown statement %r" % statement, statement.line)

    # expressions -----------------------------------------------------------------

    def check_expr(self, expr):
        if isinstance(expr, ast.IntLit):
            return
        if isinstance(expr, ast.Var):
            if not self.known(expr.name):
                self.error("use of undeclared %r" % expr.name, expr.line)
            if self.is_array(expr.name):
                self.error("array %r used without index" % expr.name, expr.line)
            return
        if isinstance(expr, ast.Index):
            if not self.is_array(expr.name):
                self.error("%r indexed but not an array" % expr.name, expr.line)
            self.check_expr(expr.index)
            return
        if isinstance(expr, ast.Call):
            self.check_call(expr)
            return
        if isinstance(expr, ast.Unary):
            self.check_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self.check_expr(expr.left)
            self.check_expr(expr.right)
            return
        self.error("unknown expression %r" % expr, expr.line)  # pragma: no cover

    def check_call(self, call):
        if call.name in BUILTINS:
            arity, _ = BUILTINS[call.name]
            if len(call.args) != arity:
                self.error("%s() takes %d argument(s)" % (call.name, arity),
                           call.line)
            if call.name == "getc" and not isinstance(call.args[0], ast.IntLit):
                self.error("getc() stream must be a constant", call.line)
            for argument in call.args:
                self.check_expr(argument)
            return
        target = self.unit.functions.get(call.name)
        if target is None:
            self.error("call to undefined function %r" % call.name, call.line)
        if len(call.args) != len(target.params):
            self.error(
                "%s() takes %d argument(s), got %d"
                % (call.name, len(target.params), len(call.args)),
                call.line,
            )
        for argument in call.args:
            self.check_expr(argument)


def analyze(unit):
    """Analyze a folded translation unit; returns :class:`UnitInfo`.

    Mutates the AST in place (constant folding) and assigns static
    storage for globals and local arrays.
    """
    info = UnitInfo()

    for declaration in unit.globals:
        if declaration.name in info.globals:
            raise SemanticError("duplicate global %r" % declaration.name,
                                declaration.line)
        size, init = _global_layout(declaration)
        symbol = GlobalSymbol(declaration.name, info.globals_size, size,
                              declaration.is_array, init)
        info.globals[declaration.name] = symbol
        info.globals_size += size

    for function in unit.functions:
        if function.name in info.functions or function.name in BUILTINS:
            raise SemanticError("duplicate function %r" % function.name,
                                function.line)
        if function.name in info.globals:
            raise SemanticError(
                "function %r collides with a global" % function.name,
                function.line)
        if len(set(function.params)) != len(function.params):
            raise SemanticError("duplicate parameter in %r" % function.name,
                                function.line)
        info.functions[function.name] = FunctionInfo(
            function.name, list(function.params), function)

    if "main" not in info.functions:
        raise SemanticError("program has no main()", unit.line)
    if info.functions["main"].params:
        raise SemanticError("main() takes no parameters",
                            info.functions["main"].definition.line)

    for function in unit.functions:
        function.body = fold_statement(function.body)
        checker = _Checker(info, info.functions[function.name])
        checker.check_statement(function.body)
        # Assign static storage for local arrays found during checking.
        function_info = info.functions[function.name]
        for name in sorted(function_info.local_arrays):
            if function_info.local_arrays[name] is not None:
                continue
            size = _find_local_array_size(function.body, name)
            symbol = GlobalSymbol("%s.%s" % (function.name, name),
                                  info.globals_size, size, True, None)
            function_info.local_arrays[name] = symbol
            info.globals_size += size

    return info


def _global_layout(declaration):
    """Compute (words, initial values) for a global declaration."""
    if not declaration.is_array:
        init = declaration.init if declaration.init is not None else 0
        if not isinstance(init, int):
            raise SemanticError("scalar initializer must be a constant",
                                declaration.line)
        return 1, init
    init = declaration.init or []
    size = declaration.size
    if size == -1:
        size = len(init)
        if size == 0:
            raise SemanticError(
                "array %r has neither size nor initializer" % declaration.name,
                declaration.line)
    if size <= 0:
        raise SemanticError("array %r must have positive size" % declaration.name,
                            declaration.line)
    if len(init) > size:
        raise SemanticError(
            "initializer longer than array %r" % declaration.name,
            declaration.line)
    return size, list(init)


def _find_local_array_size(statement, name):
    """Locate the LocalDecl for ``name`` and return its size."""
    if isinstance(statement, ast.LocalDecl):
        if statement.name == name and statement.is_array:
            return statement.size
        return None
    children = []
    if isinstance(statement, ast.Block):
        children = statement.statements
    elif isinstance(statement, ast.If):
        children = [statement.then_branch]
        if statement.else_branch is not None:
            children.append(statement.else_branch)
    elif isinstance(statement, (ast.While, ast.DoWhile)):
        children = [statement.body]
    elif isinstance(statement, ast.For):
        children = [child for child in
                    (statement.init, statement.step, statement.body)
                    if child is not None]
    elif isinstance(statement, ast.Switch):
        children = [child for case in statement.cases for child in case.body]
    for child in children:
        size = _find_local_array_size(child, name)
        if size is not None:
            return size
    return None
