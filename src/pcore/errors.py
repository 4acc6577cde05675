"""Exception hierarchy shared by every stage of the pipeline."""

from __future__ import annotations


class PcoreError(Exception):
    """Base class for all user-visible failures."""


class LexError(PcoreError):
    def __init__(self, pos, msg):
        self.pos = pos
        super().__init__(f"lex error at {pos[0]}:{pos[1]}: {msg}")


class ParseError(PcoreError):
    def __init__(self, pos, expected, found):
        self.pos = pos
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at {pos[0]}:{pos[1]}: expected {expected}, found {found!r}"
        )


class TypeError_(PcoreError):
    """Static checking failure. Carries the rule that rejected the program."""

    def __init__(self, rule, msg, pos=None):
        self.rule = rule
        self.pos = pos or (0, 0)
        self.msg = msg
        super().__init__(f"{rule} at {self.pos[0]}:{self.pos[1]}: {msg}")


class MissingReturn(TypeError_):
    def __init__(self, name, pos=None):
        super().__init__("MissingReturn", f"body of {name!r} may fall through", pos)


class DuplicateEnumMember(TypeError_):
    def __init__(self, name, member, pos=None):
        super().__init__(
            "DuplicateEnumMember", f"{member!r} repeated in declaration of {name!r}", pos
        )


class NotCompileTime(TypeError_):
    def __init__(self, what, pos=None):
        super().__init__("NotCompileTime", f"not a compile-time expression: {what}", pos)


class UnboundTypeVar(TypeError_):
    def __init__(self, name, pos=None):
        super().__init__("UnboundTypeVar", f"type name {name!r} is not defined", pos)


class IllTypedOperator(TypeError_):
    def __init__(self, op, types, pos=None):
        tys = ", ".join(str(t) for t in types)
        super().__init__("IllTypedOperator", f"operator {op!r} not defined at ({tys})", pos)


class ArithmeticError_(PcoreError):
    """Division/modulo contract violation (zero or negative operand)."""


class Uninhabitable(PcoreError):
    def __init__(self, t):
        self.type = t
        super().__init__(f"type has no default value: {t}")


class EvalError(PcoreError):
    """Dynamic contract violation outside the well-typed fragment."""


class IndexOutOfBounds(EvalError):
    pass


class BudgetExhausted(PcoreError):
    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"evaluation exceeded {limit} steps")


class TargetError(PcoreError):
    """Native function failure (e.g. reading past the end of the packet)."""


class UnknownNative(TargetError):
    pass


class ControlPlaneError(PcoreError):
    pass


class UnsupportedMatchKind(ControlPlaneError):
    def __init__(self, kind):
        super().__init__(f"rules installed on a table with unsupported match kind {kind!r}")


class StfParseError(PcoreError):
    pass
