"""Golden digest of the CLI: every invocation of the grid in
``tools/cli_digest.py`` must print the line recorded in ``cli_digest.txt``.

The recorded lines pin stdout, stderr, exit code and any ``--output`` file
of each run, so a change that alters one output byte anywhere on the grid
fails here, naming the invocation.  After an intended output change,
regenerate the file with ``PYTHONPATH=src python tools/cli_digest.py``.
"""

import importlib.util
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load_tool():
    path = HERE.parent / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_output_matches_golden_digest():
    tool = _load_tool()
    golden = {}
    for line in (HERE / "cli_digest.txt").read_text(encoding="utf-8").splitlines():
        digest, shown = line.split("  ", 1)
        golden[shown] = digest
    problems, seen = [], set()
    for argv in tool.grid():
        shown = tool.label(argv)
        seen.add(shown)
        got = tool.digest(argv)
        if shown not in golden:
            problems.append(f"not in the golden file: {shown}")
        elif got != golden[shown]:
            problems.append(f"output differs ({golden[shown]} -> {got}): {shown}")
    problems += [f"no longer in the grid: {shown}" for shown in golden if shown not in seen]
    assert not problems, "\n".join(problems)
