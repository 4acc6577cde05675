"""The host's pace: a fixed piece of pure-Python work, timed next to the ops
so that op times can be put on one scale.

Other tenants of a shared machine change how fast one core runs Python. On
a 2-vCPU sandbox the same loop took from 0.16 s to 0.39 s within half a
minute, and slow spells can last a whole run. Process CPU time moves with
wall time there (the core runs slower; the process is not switched out), so
it does not help. The time of a reference chunk run right next to an op
does: both slow down together. An op's time at reference pace is

    wall time × REFERENCE_S ÷ (median time of the reference chunks near it)

so it reads in the seconds of a core on which one chunk takes REFERENCE_S.

A chunk does, in small, the three kinds of work pcore's ops do: it parses
and compiles regular expressions with the standard library's pure-Python
regex compiler (a front end), builds and compares two trees of frozen
dataclasses (ASTs), and scans a list of rules for keys (a table lookup).
Over 4 minutes of 10 s windows on a 2-vCPU sandbox, in which op times spread
by 11-14% (standard deviation of their logarithm), op time ÷ chunk time
spread by 5-7%. The chunk lives in the benchmark, so a change to pcore moves
the op times and not the yardstick.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from time import perf_counter

try:
    from re import _compiler, _parser
except ImportError:  # Python < 3.11
    import sre_compile as _compiler
    import sre_parse as _parser

# A round figure near one chunk's time on the 2-vCPU sandbox the benchmark
# was written on. It only sets the scale of the reported times: any fixed
# value ranks two versions of pcore the same.
REFERENCE_S = 0.0015
# Each op is followed by chunks until they have taken at least this share
# of the op's time (and at least one chunk).
PACE_SHARE = 0.25
# An op's local pace is the median chunk time of the ops within WINDOW
# places of it.
WINDOW = 8

PATTERNS = (
    r"(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+w\d+|0x[0-9a-fA-F]+|\d+)",
    r"\s*(?://[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)?",
    r"(?P<op>:=|==|!=|<=|>=|<<|>>|&&|\|\||[-+*/%&|^~!<>=.,;:()\[\]{}])",
    r"^(?:add|packet|expect)\s+(\S+)(?:\s+(\S+))*\s*$",
)
TREE_DEPTH = 6
_RNG = random.Random(20201111)
RULES = [((_RNG.randrange(16), _RNG.randrange(128)), "allow", (_RNG.randrange(512),))
         for _ in range(600)]
KEYS = [(_RNG.randrange(16), _RNG.randrange(128)) for _ in range(14)]


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(depth):
    if depth == 0:
        return _Node("leaf", depth, None)
    return _Node("node", _tree(depth - 1), _tree(depth - 1))


def _lookup(key):
    for rule_key, action, args in RULES:
        if rule_key == key:
            return action, args
    return "deny", ()


def chunk():
    """One reference chunk; returns a checksum so the work is not idle."""
    total = sum(len(_compiler._code(_parser.parse(p, 0), 0)) for p in PATTERNS)
    a, b = _tree(TREE_DEPTH), _tree(TREE_DEPTH)
    total += (a == b) + (hash(a) == hash(b))
    return total + sum(len(_lookup(key)[1]) for key in KEYS)


_CHECKSUM = chunk()


def timed_chunk():
    """Seconds one reference chunk takes now."""
    start = perf_counter()
    total = chunk()
    elapsed = perf_counter() - start
    if total != _CHECKSUM:
        raise AssertionError("the reference chunk gave another result")
    return elapsed


def pace_after(op_s):
    """Runs reference chunks after an op that took ``op_s`` seconds;
    returns their times."""
    times = [timed_chunk()]
    while sum(times) < PACE_SHARE * op_s:
        times.append(timed_chunk())
    return times


def pace_for(seconds):
    """Chunk times of reference chunks run for about ``seconds``."""
    times = [timed_chunk()]
    while sum(times) < seconds:
        times.append(timed_chunk())
    return times


def local_paces(chunk_times):
    """For each op, given the chunk times that followed each op in a pass,
    the median chunk time of the ops within WINDOW places of it."""
    return [statistics.median(t for ts in chunk_times[max(0, i - WINDOW):i + WINDOW + 1]
                              for t in ts)
            for i in range(len(chunk_times))]


def at_reference_pace(seconds, pace_s):
    """Scales wall seconds measured at pace ``pace_s`` to reference pace."""
    return seconds * REFERENCE_S / pace_s
