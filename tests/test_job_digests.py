"""Golden digests of the benchmark's jobs: every job of round 0 of the
three workloads of ``perfbench/workloads.py``, seeds 1-3, run in process by
``tools/job_digests.py``, must print the line recorded in
``job_digests.txt``.

Each line hashes one job's output, so a change that moves a value in any
benchmark job fails here, naming the workload, seed and kind.  After an
intended output change, regenerate the file with

    python tools/job_digests.py --rounds 1 > tests/job_digests.txt
"""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load_tool():
    path = HERE.parent / "tools" / "job_digests.py"
    spec = importlib.util.spec_from_file_location("job_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_benchmark_jobs_match_golden_digests(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its source roots
    code = _load_tool().main(["--rounds", "1"])
    got = capsys.readouterr().out.splitlines()
    golden = (HERE / "job_digests.txt").read_text(encoding="utf-8").splitlines()
    problems = [f"{want} -> {line}" for want, line in zip(golden, got) if want != line]
    if len(got) != len(golden):
        problems.append(f"{len(golden)} lines recorded, {len(got)} printed")
    assert code == 0 and not problems, "\n".join(problems)
