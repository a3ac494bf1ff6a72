"""Which functions under ``src/repro/`` does no entry point call?

Runs every command a CI job runs (perf smoke, the drill runner, figure
benchmarks, examples) with a ``sys.setprofile`` hook installed through a
``sitecustomize`` directory on ``PYTHONPATH`` -- so the harness's server
child is covered -- and prints each function none of them entered as
``file:line qualname lines``.  Exits 1 when one matches no line of
``tools/reach_keep.txt`` (``qualname — reason``; shell patterns allowed) or
when a line there matches no existing function.  A command that exits
non-zero is only reported: what it failed to reach shows up as unexplained.
Unit tests are not an entry point: a function only they call has no caller.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
KEEP = Path(__file__).with_name("reach_keep.txt")

# Appends each newly entered code object at once: the harness kills its child.
HOOK = """\
import os, sys, threading
_out = open(os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid()), "a", buffering=1)
_seen = set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(os.environ["REACH_SRC"]):
            _out.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
threading.setprofile(_hook)
sys.setprofile(_hook)
"""

# The drills job's command: the runner's registry decides what a drill run is.
DRILLS = ["-m", "repro.check", "all", "--report", os.devnull]
# --benchmark-disable, not CI's --benchmark-only: pytest-benchmark pauses
# sys.setprofile around every timed call, which hides the benchmarks' bodies.
COMMANDS = (
    [["-m", "bench.perf", "--smoke"]]
    + [DRILLS]
    + [["-m", "pytest", "benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"]]
    + [["-m", "repro.bench", "all"]]
    + [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
)


def defined() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line incl. decorators) -> (qualname, line count)."""
    found = {}

    def walk(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = (name, child.end_lineno - first + 1)
                walk(child, name, path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text()), module, path)
    return found


def reached() -> set[tuple[str, int]]:
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        Path(site, "sitecustomize.py").write_text(HOOK)
        path = os.pathsep.join([site, str(ROOT / "src"), str(ROOT)])
        env = dict(os.environ, PYTHONPATH=path, REACH_OUT=out, REACH_SRC=str(SRC))
        env["PMV_BENCH_SCALE"] = "0.05"
        for command in COMMANDS:
            run = [sys.executable, *command]
            if code := subprocess.run(run, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode:
                print(f"reach: warning: {' '.join(command)} exited {code}", file=sys.stderr)
        lines = [line for name in os.listdir(out) for line in Path(out, name).read_text().split()]
    return {(file, int(lineno)) for file, _, lineno in (line.rpartition(":") for line in lines)}


def main() -> int:
    functions, problems = defined(), []
    unreached = {key: functions[key] for key in sorted(functions.keys() - reached())}
    kept = [line for line in KEEP.read_text().splitlines() if line.strip() and line[0] != "#"]
    patterns = [line.split(" — ")[0].strip() for line in kept]
    for (file, lineno), (name, lines) in unreached.items():
        print(f"{Path(file).relative_to(ROOT)}:{lineno} {name} {lines}")
        if not any(fnmatchcase(name, pattern) for pattern in patterns):
            problems.append(f"{name} is neither reached nor in {KEEP.name}")
    for pattern in patterns:
        if not any(fnmatchcase(name, pattern) for name, _ in functions.values()):
            problems.append(f"{KEEP.name} names {pattern}, which does not exist")
    total = sum(lines for _, lines in unreached.values())
    summary = [f"{len(unreached)} functions / {total} lines unreached", *problems]
    print("\n".join(f"reach: {line}" for line in summary), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
