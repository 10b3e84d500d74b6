"""File formats: raw float64 images/sinograms, PGM previews, CSV exports.

Raw formats carry a one-line ASCII header (``IMG n`` or ``SINO p q``)
followed by little-endian float64 payload, and round-trip exactly.  PGM is
lossy (scaled to the 16-bit range) and intended only for viewing.  Every
binary file goes through :func:`_write_raw`, every CSV through :func:`write_csv`.
"""

from __future__ import annotations

import csv

import numpy as np

from gtvtomo.phantoms import Image
from gtvtomo.projector import Sinogram


def write_image_raw(img: Image, path) -> None:
    _write_raw(path, f"IMG {img.n}", img.pixels.astype("<f8"))


def _write_raw(path, header: str, payload: np.ndarray) -> None:
    """An ASCII header and a newline, then the payload's bytes as stored: ``<f8`` for IMG and SINO, ``>u2`` for PGM."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        fh.write(payload.tobytes())


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
    _write_raw(path, f"SINO {s.p} {s.q}", s.values.astype("<f8"))


def read_sinogram_raw(path) -> Sinogram:
    (p, q), values = _read_raw(path, "SINO", 2)
    return Sinogram(p, q, values)


def write_image_pgm(img: Image, path) -> None:
    """Scaled 16-bit preview; PGM stores the samples big-endian."""
    maxval = 65535
    grid = img.grid
    lo, hi = grid.min(), grid.max()
    scaled = np.zeros_like(grid) if hi <= lo else (grid - lo) / (hi - lo) * maxval
    _write_raw(path, f"P5\n{img.n} {img.n}\n{maxval}", np.rint(scaled).astype(">u2"))


def write_sinogram_csv(s: Sinogram, path) -> None:
    """One row per detector bin, one column per angle; no header, LF line ends."""
    write_csv(s.grid.tolist(), path, None)


def write_csv(rows, path, header) -> None:
    """A header row, then one row per record, CRLF-terminated by ``csv.writer``.

    ``csv.writer`` writes each float cell (Python or numpy float64) as its
    shortest round-trip text, the same as ``repr(float(v))``, and every other
    cell as ``str``.  A ``header`` of None (the sinogram view) writes no header
    row and ends rows in LF.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n" if header is not None else "\n")
        if header is not None:
            w.writerow(header)
        w.writerows(rows)


def _read_indexed_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[1]) for r in rows[1:]])


def write_curve_csv(values, path, header: tuple[str, str] = ("iteration", "error")) -> None:
    write_csv(enumerate(np.asarray(values, dtype=np.float64).tolist()), path, header)


def read_curve_csv(path) -> np.ndarray:
    return _read_indexed_csv(path)


def write_profile_csv(values, path) -> None:
    write_csv(enumerate(np.asarray(values, dtype=np.float64).tolist()), path, ("column", "value"))


def read_profile_csv(path) -> np.ndarray:
    return _read_indexed_csv(path)


def write_graph_edges_csv(g, path) -> None:
    write_csv(zip(g.edge_i.tolist(), g.edge_j.tolist(), g.weights.tolist()), path, ("i", "j", "weight"))
