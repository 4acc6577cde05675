"""Reference typechecker and definitional interpreter for pcore, a small
imperative packet-processing calculus with directional parameters, headers,
tables, and a tagged-union extension."""

__version__ = "0.1.0"

from .parser import (  # noqa: F401
    parse_expression, parse_program, parse_statement, parse_type,
)
from .pretty import pretty_program  # noqa: F401
from .typecheck import (  # noqa: F401
    check_machine, check_program, check_value, initial_delta,
)
from .syntax import Machine  # noqa: F401
