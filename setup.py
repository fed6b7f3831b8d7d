"""Package metadata for ``repro``: the sources live under ``src/``.

Install editable with ``pip install -e .`` (``--no-use-pep517`` in offline
environments without the ``wheel`` package).  NumPy and SciPy are runtime
dependencies — SciPy's sparse matrices execute the float nearest-sample
plans, and ``scipy.fft`` runs envelope detection.  ``numba`` is optional and
enables the ``compiled`` backend only.  Tests run in place with
``PYTHONPATH=src python -m pytest``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(r'__version__ = "([^"]+)"',
                    (Path(__file__).parent / "src" / "repro" / "__init__.py")
                    .read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Delay-and-sum 3D ultrasound beamforming with on-the-fly "
                "delay generation (TABLEFREE / TABLESTEER)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
