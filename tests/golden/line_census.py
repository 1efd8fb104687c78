"""Line census: the executable lines of the ``officesim`` package that no
command runs.

    PYTHONPATH=src python tests/golden/line_census.py

runs ``validate``, ``summary``, ``simulate``, ``compare --contact-rate
2000`` and ``proportions`` on the reference scenario at 2 replications x
2 days, in this process under ``sys.settrace``, and prints per file the
executable lines that none of them ran, then the totals.
``officesim.checks`` is left out: it holds the diagnostics, which no
command runs. A line is executable where the compiled module maps an
instruction to it. The census reads whichever ``officesim`` the path
finds first, so pointing ``PYTHONPATH`` at another checkout counts that
one.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import types
from importlib.util import find_spec
from pathlib import Path

COMMANDS = (
    ("validate",),
    ("summary",),
    ("simulate",),
    ("compare", "--contact-rate", "2000"),
    ("proportions",),
)
SKIPPED = ("checks.py",)


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` to which its compiled code maps an
    instruction."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line and line > 0)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_commands(package: Path) -> dict[str, set[int]]:
    """Per file of ``package``, the lines the commands ran."""
    ran: dict[str, set[int]] = {}
    files: dict[str, str | None] = {}  # co_filename -> its real path in package

    def home(filename: str) -> str | None:
        if filename not in files:
            real = os.path.realpath(filename)
            files[filename] = real if Path(real).parent == package else None
        return files[filename]

    def local(frame, event, arg):
        if event == "line":
            ran[home(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        path = home(frame.f_code.co_filename)
        if path is None:
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(on_call)
        try:
            from officesim import reference_scenario_path
            from officesim.cli import main

            for command in COMMANDS:
                argv = [*command, "--scenario", reference_scenario_path(),
                        "--reps", "2", "--days", "2"]
                if command[0] not in ("validate", "summary"):
                    argv += ["--out", os.path.join(tmp, command[0])]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"{' '.join(command)} exited {code}")
        finally:
            sys.settrace(None)
    return ran


def main() -> int:
    package = Path(os.path.realpath(find_spec("officesim").origin)).parent
    ran = run_commands(package)
    total = unrun_total = 0
    for path in sorted(package.glob("*.py")):
        if path.name in SKIPPED:
            continue
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        unrun_total += len(unrun)
        print(f"{path.name}: {len(unrun)} of {len(lines)} lines not run")
        if unrun:
            print("    " + ", ".join(map(str, unrun)))
    print(f"total: {unrun_total} of {total} executable lines not run "
          f"(without {', '.join(SKIPPED)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
