"""List the statements of src/littleyolo that a command never executes.

    python tools/linetrace.py -m pytest -q tests
    python tools/linetrace.py -c "import littleyolo"
    python tools/linetrace.py script.py [args...]

The command runs in this process, as `python -m`, `python -c` or `python
script.py` would run it, with src/ first on sys.path and a line tracer
(sys.settrace and threading.settrace) that records only code in
src/littleyolo. Afterwards every statement (ast.stmt, docstrings excluded)
none of whose lines ran is printed, grouped by file, and the command's exit
status is returned. Nothing is written to disk.
"""

from __future__ import annotations

import ast
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "littleyolo"


def statements(path: Path) -> list[ast.stmt]:
    """Every statement of the module at path that compiles to code: not a
    docstring, a global or a nonlocal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}
    return [node for node in ast.walk(tree) if isinstance(node, ast.stmt)
            and id(node) not in docs and not isinstance(node, (ast.Global, ast.Nonlocal))]


def trace(run) -> tuple[int, dict[str, set[int]]]:
    """Call run() under the tracer: (its exit status, {file: lines run})."""
    ran: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, bool] = {}
    root = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = name.startswith(root)
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def report(ran: dict[str, set[int]]) -> str:
    """The statements none of whose lines ran, by file under src/, and a total."""
    out, missed, total = [], 0, 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        nodes = statements(path)
        total += len(nodes)
        never = sorted({n.lineno for n in nodes if not any(
            y in lines for y in range(min([n.lineno] + [d.lineno for d in getattr(
                n, "decorator_list", [])]), n.end_lineno + 1))})
        if never:
            out.append(f"{path.relative_to(SRC.parent)}: {len(never)} never run")
            out += [f"  {y:>4}  {source[y - 1].strip()[:90]}" for y in never]
            missed += len(never)
    out.append(f"{missed} of {total} statements never run")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    if argv[0] == "-m" and len(argv) > 1:
        sys.argv = [argv[1], *argv[2:]]
        run = lambda: runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    elif argv[0] == "-c" and len(argv) > 1:
        sys.argv = ["-c", *argv[2:]]
        run = lambda: exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = argv
        run = lambda: runpy.run_path(argv[0], run_name="__main__")
    status, ran = trace(run)
    sys.stdout.flush()
    print(report(ran))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
