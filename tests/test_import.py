"""What ``import weaksgd`` loads: numpy only; scipy and the process pool are
imported on first use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import weaksgd, weaksgd.cli
heavy = sorted({m.split(".")[0] for m in sys.modules
                if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing")})
print(",".join(heavy) or "-")
value = weaksgd.solve_game(weaksgd.build_game([0.4, 0.3, 0.3], [{1}, {2}, {3}])).value
print(repr(value))
"""


def test_import_loads_no_scipy_or_process_pool():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout.split()
    assert out[0] == "-", f"loaded at import: {out[0]}"
    # the game still solves, loading scipy on first use
    assert abs(float(out[1]) + 0.1) < 1e-9


def test_every_exported_name_resolves():
    import weaksgd

    assert [name for name in weaksgd.__all__ if not hasattr(weaksgd, name)] == []
