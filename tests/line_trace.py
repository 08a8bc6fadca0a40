"""List the lines of `src/hilbk3` that a test run never executes.

Usage, from the repository root:

    python tests/line_trace.py [pytest arguments]

With no arguments it runs the tier-1 suite (`python -m pytest -q`).  It
writes a `sitecustomize.py` into a temporary directory and prepends that
directory to PYTHONPATH, so every Python process of the run loads it at
start-up: the pytest process and the report subprocesses that tests start.
A test that passes its own `env` to a subprocess gets the directory put
back at the front of that env's PYTHONPATH (through the `subprocess.Popen`
audit event, which sees the env before the child is spawned).  A child
started with `-S` or `-I` loads no `sitecustomize` and is not traced.

The hook sets `sys.settrace` and `threading.settrace`; its global trace
returns a line tracer only for code objects under `src/hilbk3`, and each
process writes the (file, line) pairs it ran to its own file at exit.  The
script merges those files and prints every executable line (a line that
some code object of the module lists in `co_lines()`) that never ran, one
`path:line: source` a line, then the pytest exit status.  A line inside a
tracer-pinned member, one of the methods that `benchmarks/tracing.py` wraps
by name with no caller in the package (`test_callers.UNCALLED`), is marked
`[tracer-pinned]`.  The script exits 1 when a never-run line falls outside
those members, and with pytest's status otherwise.

Pytest does not collect this file, and the tier-1 suite does not run it:
under the hook the suite takes several minutes.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_callers import UNCALLED, _public_definitions

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hilbk3"

# the hook imports only modules that every interpreter loads anyway, and
# `threading`: a report subprocess must load no more than a report does
HOOK = """\
import atexit
import os
import sys
import threading

_ROOT = {root!r}
_DUMP = {dump!r}
_HOOK_DIR = os.path.dirname(os.path.abspath(__file__))
_ran = set()
_ours = {{}}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name).startswith(_ROOT)
    if ours:
        # the first line a code object lists (its def or class line) gets a
        # call event, not a line event
        _ran.add((name, frame.f_lineno))
        return _line
    return None


def _audit(event, args):
    # a test that passes its own env to a child keeps the child traced
    if event == "subprocess.Popen" and isinstance(args[3], dict):
        path = args[3].get("PYTHONPATH", "")
        if path.split(os.pathsep)[0] != _HOOK_DIR:
            args[3]["PYTHONPATH"] = _HOOK_DIR + (os.pathsep + path if path else "")


def _dump():
    sys.settrace(None)
    with open(os.path.join(_DUMP, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.writelines(f"{{os.path.realpath(name)}}\\t{{line}}\\n" for name, line in _ran)


sys.addaudithook(_audit)
atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
"""


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from the file lists."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def pinned_lines(path: Path) -> set[int]:
    """The lines of the module's tracer-pinned members."""
    return {line for name, node in _public_definitions(ast.parse(path.read_text()))
            if (path.stem, name) in UNCALLED
            for line in range(node.lineno, node.end_lineno + 1)}


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir, dump = Path(tmp, "hook"), Path(tmp, "dump")
        hook_dir.mkdir()
        dump.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(root=str(PACKAGE) + os.sep, dump=str(dump)))
        path = [str(hook_dir), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", *argv],
                                cwd=ROOT, env=env, check=False).returncode
        ran, dumps = set(), sorted(dump.iterdir())
        for file in dumps:
            for record in file.read_text().splitlines():
                name, line = record.rsplit("\t", 1)
                ran.add((name, int(line)))
    print(f"\nmerged the lines of {len(dumps)} processes; never run:")
    outside = 0
    for module in sorted(PACKAGE.glob("*.py")):
        source, pinned = module.read_text().splitlines(), pinned_lines(module)
        for line in sorted(executable_lines(module)):
            if (str(module), line) not in ran:
                mark = " [tracer-pinned]" if line in pinned else ""
                print(f"{module.relative_to(ROOT)}:{line}: {source[line - 1].strip()}{mark}")
                outside += line not in pinned
    print(f"never-run lines outside the tracer-pinned members: {outside}")
    print(f"pytest exit status: {status}")
    return 1 if outside else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
