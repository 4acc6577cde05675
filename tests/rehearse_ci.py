"""Rehearse the CI workflow offline.

Reads `.github/workflows/tests.yml` and runs, from the checkout, each step
whose commands need no network: the tier-1 tests, the console-script steps
and the benchmark's tests and smoke runs. `pcore` is a shim that runs
`pcore.cli` from this checkout's `src`, so the console-script steps check
the working tree, not an installed package. Steps that install packages
(`pip install`) or use an action are named and skipped. The matrix row is
the one for the running Python's version: a job whose matrix has no such
row is skipped, as is a step whose `if: matrix.X == 'v'` does not hold for
it. Prints each step's exit code and exits non-zero when a step fails.
Needs PyYAML. Run it with

    python tests/rehearse_ci.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SHIM = f"""#!/bin/sh
exec {sys.executable} -c 'import sys; from pcore.cli import main; sys.exit(main())' "$@"
"""


def matrix_row(job):
    """The matrix values of job for the running Python: its include entry
    for this version extends the version's own row, as on GitHub. None
    when the job's matrix lists versions and not this one."""
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    matrix = job.get("strategy", {}).get("matrix", {})
    if version not in map(str, matrix.get("python-version", [version])):
        return None
    row = {"python-version": version}
    for extra in matrix.get("include", []):
        if str(extra.get("python-version")) == version:
            row.update(extra)
    return row


def expand(text, row, temp):
    """text with its `${{ matrix.X }}` and `${{ runner.temp }}` expressions
    replaced; a KeyError names any other expression."""
    def value(m):
        expr = m.group(1)
        if expr == "runner.temp":
            return temp
        if expr.startswith("matrix."):
            return str(row.get(expr[len("matrix."):], ""))
        raise KeyError(f"no offline value for ${{{{ {expr} }}}}")
    return re.sub(r"\$\{\{\s*([\w.-]+)\s*\}\}", value, text)


def holds(condition, row):
    """Whether a step's `if: matrix.X == 'v'` holds for row; a KeyError
    names any other condition."""
    m = re.fullmatch(r"\s*matrix\.([\w-]+)\s*==\s*'([^']*)'\s*", condition)
    if m is None:
        raise KeyError(f"no offline value for if: {condition}")
    return str(row.get(m.group(1), "")) == m.group(2)


def rehearse(workflow):
    """Run the workflow's offline steps; returns the names of those that
    failed."""
    failed = []
    with tempfile.TemporaryDirectory() as temp:
        bin_dir = Path(temp) / "bin"
        bin_dir.mkdir()
        (bin_dir / "pcore").write_text(SHIM)
        (bin_dir / "pcore").chmod(0o755)
        env = dict(os.environ, RUNNER_TEMP=temp,
                   PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
                   PYTHONPATH=str(ROOT / "src"))
        for job_name, job in workflow["jobs"].items():
            row = matrix_row(job)
            if row is None:
                print(f"skip  job {job_name} (no matrix row for this Python)",
                      flush=True)
                continue
            print(f"job   {job_name}, matrix {row}", flush=True)
            for step in job["steps"]:
                name = f"{job_name}: {step.get('name') or step.get('uses')}"
                if "if" in step and not holds(step["if"], row):
                    print(f"skip  {name} (if: {step['if']})", flush=True)
                    continue
                if "run" not in step:
                    print(f"skip  {name} (an action)", flush=True)
                    continue
                if "pip install" in step["run"]:
                    print(f"skip  {name} (pip install needs the network)",
                          flush=True)
                    continue
                cwd = expand(step.get("working-directory", str(ROOT)), row, temp)
                code = subprocess.run(
                    ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                     expand(step["run"], row, temp)],
                    cwd=cwd, env=env).returncode
                print(f"exit {code}  {name}", flush=True)
                if code:
                    failed.append(name)
    return failed


def main():
    failed = rehearse(yaml.safe_load(WORKFLOW.read_text()))
    print(f"{len(failed)} step(s) failed" + "".join(f"\n  {n}" for n in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
