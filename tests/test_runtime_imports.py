"""The installed package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so every entry point
(the CLI, the job service, the fleet worker, the scenario runner and the
batch layer) must import nothing from outside the standard library.
Test-only references such as networkx stay in the ``test`` extra.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENTRY_POINTS = (
    "repro.cli",
    "repro.service.server",
    "repro.service.worker",
    "repro.scenarios",
    "repro.batch",
)

# multiprocessing registers __main__ a second time as __mp_main__; that
# alias is the running script, not an import.
SCRIPT = f"""
import json, sys
before = set(sys.modules)
import {", ".join(ENTRY_POINTS)}
main = sys.modules["__main__"]
added = [name for name in set(sys.modules) - before
         if sys.modules[name] is not main]
print(json.dumps(sorted(added)))
"""


def test_runtime_imports_only_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, check=True, cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    added = json.loads(out.stdout)
    assert "repro.cli" in added
    foreign = [
        name for name in added
        if name.split(".")[0] != "repro"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
