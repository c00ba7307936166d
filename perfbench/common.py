"""Paths shared by the benchmark scripts.

The benchmark always measures the package source of the checkout it sits in
(`<root>/src/littleyolo`), never an installed copy, so a run of the parent
commit and a run of a change compare the two source trees.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"   # generated inputs and outputs, removed after a run
OUT = ROOT / ".perfbench_out"     # result and trace JSON files kept after a run


class MissingSource(RuntimeError):
    """The checkout has no package source to measure."""


def use_checkout_source() -> None:
    """Make `import littleyolo` load `<root>/src/littleyolo` and nothing else."""
    init = SRC / "littleyolo" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"no package source at {init}; run the benchmark "
                            "from the root of a littleyolo checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import littleyolo
    loaded = Path(littleyolo.__file__).resolve()
    if loaded != init.resolve():
        raise MissingSource(f"littleyolo was imported from {loaded}, not from "
                            f"the checkout's {init}")
