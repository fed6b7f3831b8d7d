"""What a process imports before it beamforms.

``import repro`` loads only ``scipy.sparse`` from SciPy (the CSR product of
a float nearest plan).  Envelope detection imports ``scipy.fft`` on its
first call, and nothing imports ``scipy.signal``, which would pull in
``stats``, ``optimize``, ``interpolate`` and ``ndimage`` and add about
50 MiB to every process's resident set.  Each check runs in a fresh
interpreter, since this test process has long since imported them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_FORBIDDEN = ("scipy.signal", "scipy.stats", "scipy.optimize",
              "scipy.interpolate", "scipy.ndimage", "scipy.fft")

_PROBE = """
import json, sys
import repro, repro.api, repro.cli, repro.server, repro.sweep
before = sorted(sys.modules)
import numpy as np
from repro.beamformer import envelope
envelope(np.ones((4, 16)), axis=1)
print(json.dumps({"before": before, "after": sorted(sys.modules)}))
"""


def _loaded(modules, package):
    return [name for name in modules
            if name == package or name.startswith(package + ".")]


def _probe():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_program_loads_only_scipy_sparse():
    modules = _probe()
    before = modules["before"]
    assert _loaded(before, "scipy.sparse")
    for package in _FORBIDDEN:
        assert _loaded(before, package) == [], package
    after = modules["after"]
    assert _loaded(after, "scipy.fft")
    assert _loaded(after, "scipy.signal") == []
