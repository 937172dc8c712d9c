"""The runtime import stays free of dev-only dependencies.

networkx, scipy, hypothesis and pytest are test tools (the ``dev``
extra).  A fresh interpreter that imports the CLI and everything the
end-to-end benchmark workloads import must load none of them, so a
``pip install .`` without ``[dev]`` runs every command and workload.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEV_ONLY = ("networkx", "scipy", "hypothesis", "pytest")

_PROBE = """
import json, sys
sys.path[0:0] = [{root!r}, {src!r}]
import repro.cli
import benchmarks.e2e.workloads
print(json.dumps(sorted({{m.split(".")[0] for m in sys.modules}})))
"""


def test_runtime_import_loads_no_dev_only_package():
    code = _PROBE.format(root=str(ROOT), src=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert "repro" in loaded and "benchmarks" in loaded
    assert sorted(loaded & set(DEV_ONLY)) == []
