"""tools/linetrace.py lists the statements of src/littleyolo a command never runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def never_run(stdout: str) -> dict[str, set[int]]:
    """{file: line numbers} of linetrace's report."""
    never, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("src/"):
            current = never.setdefault(line.split(":")[0], set())
        elif line.startswith("  "):
            current.add(int(line.split()[0]))
    return never


def test_lists_the_statements_a_snippet_never_runs(tmp_path):
    snippet = ("import numpy as np\n"
               "from littleyolo.tensor import upsample_nearest\n"
               "upsample_nearest(np.zeros((1, 2, 2), np.float32), 2)\n"
               "raise SystemExit(3)\n")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "linetrace.py"), "-c", snippet],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr  # the command's own status
    source = (ROOT / "src" / "littleyolo" / "tensor.py").read_text().splitlines()

    def line_of(text):
        return next(i for i, line in enumerate(source, start=1) if text in line)

    never = never_run(done.stdout)["src/littleyolo/tensor.py"]
    assert line_of('raise ValueError(f"factor must be >= 1') in never
    assert line_of("return x.repeat(factor") not in never
    assert line_of("def maxpool(") not in never  # run at import
    assert line_of('"""Nearest-neighbor upsampling') not in never  # a docstring
    assert done.stdout.splitlines()[-1].endswith(" statements never run")
    assert list(tmp_path.iterdir()) == []
