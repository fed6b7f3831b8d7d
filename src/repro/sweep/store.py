"""Content-addressed on-disk store for sweep cell artifacts.

Layout (git-friendly, two-level fanout on the key prefix)::

    <root>/
      ab/
        ab3f...e2/          one directory per cell key
          volume.npz        float64 RF volume under the "rf" array name
          cell.json         {"key", "spec", "metrics"} — written LAST

Writes are crash-safe without locks: every file lands via a temp file in
the same directory plus :func:`os.replace` (atomic on POSIX), and
``cell.json`` is written *after* the volume, so its existence is the
completion marker.  A cell directory holding a volume but no ``cell.json``
is an interrupted write; :meth:`SweepStore.__contains__` reports it
missing and the executor simply recomputes it.

Bit-identity across the store boundary: ``np.savez`` round-trips float64
arrays bit-exactly, and Python's ``json`` round-trips floats through
``repr`` exactly (including the NaN fills :func:`repro.scenarios.score_volume`
uses for inapplicable metrics), so a cell read back compares equal — to
the last mantissa bit — with the in-process result it was stored from.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

import numpy as np

__all__ = ["SweepStore"]

_VOLUME_FILE = "volume.npz"
_CELL_FILE = "cell.json"


class SweepStore:
    """Filesystem map from cell keys to completed sweep artifacts."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """The cell directory for ``key`` (not necessarily existing)."""
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"malformed cell key {key!r}")
        return self.root / key[:2] / key

    # ------------------------------------------------------------- queries
    def __contains__(self, key: str) -> bool:
        return (self.path_for(key) / _CELL_FILE).is_file()

    def keys(self) -> Iterator[str]:
        """Every *completed* cell key in the store."""
        for marker in sorted(self.root.glob(f"??/*/{_CELL_FILE}")):
            yield marker.parent.name

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------ transfer
    @staticmethod
    def _replace(tmp: Path, final: Path) -> None:
        os.replace(tmp, final)

    def write(self, key: str, volume: np.ndarray | None,
              metrics: dict | None, spec: dict) -> Path:
        """Persist one completed cell; returns its directory.

        ``spec`` is the resolved cell-spec echo (kept beside the result so
        an artifact is self-describing long after the producing sweep
        document is gone).  ``volume=None`` stores a metrics-only cell
        (experiment-level reuse).  Overwrites any previous artifact for
        the key — content-addressing makes that a pure refresh.
        """
        cell_dir = self.path_for(key)
        cell_dir.mkdir(parents=True, exist_ok=True)
        suffix = f".tmp-{os.getpid()}"
        if volume is not None:
            tmp = cell_dir / (_VOLUME_FILE + suffix)
            with open(tmp, "wb") as fh:
                np.savez(fh, rf=np.asarray(volume))
            self._replace(tmp, cell_dir / _VOLUME_FILE)
        document = {"key": key, "spec": spec, "metrics": metrics}
        tmp = cell_dir / (_CELL_FILE + suffix)
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True))
        # cell.json lands last: its (atomic) appearance marks completion.
        self._replace(tmp, cell_dir / _CELL_FILE)
        return cell_dir

    def read(self, key: str) -> dict[str, Any]:
        """Load one completed cell back into the in-process result shape.

        Returns ``{"volume": rf}`` plus ``"metrics"`` when the cell was
        scored — exactly the per-cell dict :meth:`repro.api.Session.sweep`
        yields, so cached and freshly-computed cells are interchangeable.
        """
        cell_dir = self.path_for(key)
        document = json.loads((cell_dir / _CELL_FILE).read_text())
        cell: dict[str, Any] = {}
        volume_path = cell_dir / _VOLUME_FILE
        if volume_path.is_file():
            with np.load(volume_path) as archive:
                cell["volume"] = archive["rf"].copy()
        if document["metrics"] is not None:
            cell["metrics"] = document["metrics"]
        return cell

    def read_spec(self, key: str) -> dict:
        """The resolved cell-spec echo stored beside the artifact."""
        document = json.loads((self.path_for(key) / _CELL_FILE).read_text())
        return document["spec"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepStore({str(self.root)!r})"
