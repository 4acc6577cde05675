"""Command-line driver.

Exit codes: 0 success, 1 type error, 2 runtime/target error, 3 test or
differential failure, 4 usage error (including input nested too deeply or
too large for memory).

`run` and `stf` import the packet harness, and the oracle commands the
generator and the union translation, themselves: `check` loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExhausted, EvalError, LexError, ParseError, PcoreError, TargetError,
    TypeError_,
)
from .lexer import number
from .parser import parse_program
from .pretty import pretty_program
from .syntax import MAX_STEPS, to_obj
from .target import (
    GAMMA0, ControlPlane, HavocOracle, load_control_plane_json, parse_havoc,
)
from . import typecheck

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_RUNTIME = 2
EXIT_FAIL = 3
EXIT_USAGE = 4


def _read(path):
    with open(path) as f:
        return f.read()


def cmd_check(args):
    program = parse_program(_read(args.file))
    if args.dump_ast:
        print(json.dumps(to_obj(program), indent=2))
    typecheck.check_program(program, gamma=GAMMA0)
    print(f"{args.file}: ok")
    return EXIT_OK


def cmd_run(args):
    from .stf import run_packet
    program = parse_program(_read(args.file))
    typecheck.check_program(program, gamma=GAMMA0)
    oracle = HavocOracle(*parse_havoc(args.havoc))
    cp = ControlPlane()
    if args.control_plane:
        load_control_plane_json(cp, _read(args.control_plane))
    out = run_packet(program, cp, args.packet, args.port, oracle,
                     args.max_steps)
    if args.json:
        print(json.dumps({
            "egress": out.egress,
            "output": out.payload_out,
            "dropped": out.dropped,
            "steps": out.steps,
        }))
    elif out.dropped:
        print(f"dropped after {out.steps} steps")
    else:
        print(f"{out.sent()} ({out.steps} steps)")
    return EXIT_OK


def cmd_stf(args):
    from .stf import run_stf
    report = run_stf(_read(args.file), _read(args.stf), havoc=args.havoc,
                     max_steps=args.max_steps)
    if args.json:
        print(json.dumps(report.to_obj()))
    else:
        for v in report.expects:
            status = "PASS" if v.ok else "FAIL"
            print(f"{status} expect {v.port} {v.payload} (got {v.actual})")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_translate_unions(args):
    from .unions import translate
    program = parse_program(_read(args.file))
    translated = translate(program)
    typecheck.check_program(translated, gamma=GAMMA0)
    print(pretty_program(translated), end="")
    return EXIT_OK


def cmd_diff_unions(args):
    from .unions import Translator, WrongTagTranslator, diff_union_semantics
    program = parse_program(_read(args.file))
    translator = WrongTagTranslator() if args.wrong_tag else Translator()
    verdict = diff_union_semantics(program, translator,
                                   max_steps=args.max_steps)
    print("PASS" if verdict["pass"] else "FAIL")
    return EXIT_OK if verdict["pass"] else EXIT_FAIL


def cmd_gen(args):
    from .gen import GenConfig, generate_typed_program
    cfg = GenConfig(seed=args.seed, unions=args.unions)
    print(pretty_program(generate_typed_program(cfg)), end="")
    return EXIT_OK


def cmd_soundness(args):
    from .gen import run_soundness_suite
    stats = run_soundness_suite(args.n, max_steps=args.max_steps)
    print(f"{stats['n']} programs, {len(stats['failures'])} failures, "
          f"{len(stats['budget_failures'])} budget exhaustions, "
          f"{stats['total_steps']} total steps")
    for seed, msg in stats["failures"][:10]:
        print(f"  seed {seed}: {msg}")
    return EXIT_OK if not stats["failures"] else EXIT_FAIL


def positive(text):
    """A step budget: a number above zero."""
    n = number(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def main(argv=None):
    top = argparse.ArgumentParser(prog="pcore")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="parse and typecheck a program")
    p.add_argument("file")
    p.add_argument("--dump-ast", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run one packet through a program")
    p.add_argument("file")
    p.add_argument("--packet", default="")
    p.add_argument("--port", type=number, default=0)
    p.add_argument("--control-plane", help="JSON rule file")
    p.add_argument("--havoc", default="zero")
    p.add_argument("--max-steps", type=positive, default=MAX_STEPS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("stf", help="run a packet-test script")
    p.add_argument("file")
    p.add_argument("stf")
    p.add_argument("--havoc", default="zero")
    p.add_argument("--max-steps", type=positive, default=MAX_STEPS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stf)

    p = sub.add_parser("translate-unions", help="eliminate tagged unions")
    p.add_argument("file")
    p.set_defaults(fn=cmd_translate_unions)

    p = sub.add_parser("diff-unions",
                       help="differential-test the union translation")
    p.add_argument("file")
    p.add_argument("--wrong-tag", action="store_true",
                   help="use the fault-injected translator")
    p.add_argument("--max-steps", type=positive, default=MAX_STEPS)
    p.set_defaults(fn=cmd_diff_unions)

    p = sub.add_parser("gen", help="emit a random well-typed program")
    p.add_argument("--seed", type=number, default=0)
    p.add_argument("--unions", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("soundness", help="run the soundness property suite")
    p.add_argument("--n", type=number, default=100)
    p.add_argument("--max-steps", type=positive, default=MAX_STEPS)
    p.set_defaults(fn=cmd_soundness)

    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (LexError, ParseError, TypeError_) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except (EvalError, TargetError, BudgetExhausted) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (PcoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError):
        print("error: input too large", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
