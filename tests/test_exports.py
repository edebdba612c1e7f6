"""The package's export list is the library modules' ``__all__`` lists."""

import os
import subprocess
import sys
from pathlib import Path

import riskbounds
from riskbounds import (
    bounds_rademacher, bounds_vc, covering, hypothesis, mixing, rademacher, simulate,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_all_is_the_module_lists():
    modules = (hypothesis, rademacher, covering, bounds_rademacher, bounds_vc, mixing, simulate)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert riskbounds.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(riskbounds, name) is getattr(module, name)
    assert isinstance(riskbounds.__version__, str)

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "from riskbounds import *; import riskbounds; "
         "print(sorted(set(riskbounds.__all__) - set(globals())))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
