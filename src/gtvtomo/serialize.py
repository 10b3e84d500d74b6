"""File formats: raw float64 images/sinograms, PGM previews, CSV exports.

Raw formats carry a one-line ASCII header (``IMG n`` or ``SINO p q``)
followed by little-endian float64 payload, and round-trip exactly.  PGM is
lossy (scaled to the 16-bit range) and intended only for viewing.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from gtvtomo.phantoms import Image
from gtvtomo.projector import Sinogram


def write_image_raw(img: Image, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"IMG {img.n}\n".encode("ascii"))
        fh.write(img.pixels.astype("<f8").tobytes())


def _read_raw(path, magic: str, ndims: int) -> tuple[list[int], np.ndarray]:
    """Header ``magic d1 .. dk`` and the float64 payload it announces, checked in size."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    header = line.decode("ascii", errors="replace").split()
    if len(header) != ndims + 1 or header[0] != magic or not all(v.isdigit() for v in header[1:]):
        raise ValueError(
            f"{path}: expected a '{magic}' header with {ndims} integer size(s), got {line[:40]!r}"
        )
    dims = [int(v) for v in header[1:]]
    expected = 8 * dims[0] * dims[-1]  # IMG n holds n*n values, SINO p q holds p*q
    if len(payload) != expected:
        raise ValueError(
            f"{path}: header '{' '.join(header)}' needs {expected} payload bytes, found {len(payload)}"
        )
    return dims, np.frombuffer(payload, dtype="<f8").copy()


def read_image_raw(path) -> Image:
    (n,), pixels = _read_raw(path, "IMG", 1)
    return Image(n, pixels)


def write_sinogram_raw(s: Sinogram, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"SINO {s.p} {s.q}\n".encode("ascii"))
        fh.write(s.values.astype("<f8").tobytes())


def read_sinogram_raw(path) -> Sinogram:
    (p, q), values = _read_raw(path, "SINO", 2)
    return Sinogram(p, q, values)


def write_image_pgm(img: Image, path) -> None:
    """Scaled 16-bit preview; PGM stores the samples big-endian."""
    maxval = 65535
    grid = img.grid
    lo, hi = grid.min(), grid.max()
    scaled = np.zeros_like(grid) if hi <= lo else (grid - lo) / (hi - lo) * maxval
    quantized = np.rint(scaled).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.n} {img.n}\n{maxval}\n".encode("ascii"))
        fh.write(quantized.tobytes())


def write_sinogram_csv(s: Sinogram, path) -> None:
    """One row per detector bin, one column per angle."""
    with open(path, "w", newline="") as fh:
        for row in s.grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_indexed_csv(values, path, header: tuple[str, str]) -> None:
    """A header row, then one ``index,value`` row per value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, v in enumerate(np.asarray(values, dtype=np.float64)):
            w.writerow([i, repr(float(v))])


def _read_indexed_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[1]) for r in rows[1:]])


def write_curve_csv(values, path, header: tuple[str, str] = ("iteration", "error")) -> None:
    _write_indexed_csv(values, path, header)


def read_curve_csv(path) -> np.ndarray:
    return _read_indexed_csv(path)


def write_profile_csv(values, path) -> None:
    _write_indexed_csv(values, path, ("column", "value"))


def read_profile_csv(path) -> np.ndarray:
    return _read_indexed_csv(path)


def write_graph_edges_csv(g, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("i", "j", "weight"))
        for i, j, wt in zip(g.edge_i, g.edge_j, g.weights):
            w.writerow([int(i), int(j), repr(float(wt))])


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
