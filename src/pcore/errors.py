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
        super().__init__(
            f"parse error at {pos[0]}:{pos[1]}: expected {expected}, found {found!r}"
        )


class TypeError_(PcoreError):
    """Static checking failure: the rule that rejected the program, where."""

    def __init__(self, rule, msg, pos=None):
        self.rule = rule
        self.pos = pos
        self.msg = msg
        super().__init__(rule, msg)

    def __str__(self):
        line, col = self.pos or (0, 0)
        return f"{self.rule} at {line}:{col}: {self.msg}"


class Uninhabitable(PcoreError):
    def __init__(self, t):
        # the printer imports this module (through ops), so t is named only
        # when it has a name, which is how the source spells an enum or a
        # type variable
        name = getattr(t, "name", None)
        super().__init__("type has no default value" + (f": {name}" if name else ""))


class EvalError(PcoreError):
    """Dynamic contract violation outside the well-typed fragment."""


class ArithmeticError_(EvalError):
    """A partial operator outside its domain: a division or modulo by a
    nonpositive number or of a negative one, or a negative shift."""


class BudgetExhausted(PcoreError):
    def __init__(self, limit):
        super().__init__(f"evaluation exceeded {limit} steps")


class TargetError(PcoreError):
    """Native function failure (e.g. reading past the end of the packet)."""


class ControlPlaneError(PcoreError):
    pass


class StfParseError(PcoreError):
    pass
