import numpy as np
import pytest

from gtvtomo import Image, Sinogram, graph_from_edges
from gtvtomo.serialize import (
    read_curve_csv,
    read_image_raw,
    read_profile_csv,
    read_sinogram_raw,
    write_curve_csv,
    write_graph_edges_csv,
    write_image_pgm,
    write_image_raw,
    write_profile_csv,
    write_sinogram_csv,
    write_sinogram_raw,
)


class TestRawRoundTrips:
    def test_image_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(9, rng.standard_normal(81))
        path = tmp_path / "x.img"
        write_image_raw(img, path)
        back = read_image_raw(path)
        assert back.n == 9
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_sinogram_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        s = Sinogram(7, 5, rng.standard_normal(35))
        path = tmp_path / "s.sino"
        write_sinogram_raw(s, path)
        back = read_sinogram_raw(path)
        assert (back.p, back.q) == (7, 5)
        np.testing.assert_array_equal(back.values, s.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE 3\n" + b"\x00" * 72)
        with pytest.raises(ValueError):
            read_image_raw(path)
        with pytest.raises(ValueError):
            read_sinogram_raw(path)


class TestPgm:
    def test_header_and_payload_size(self, tmp_path):
        img = Image(4, np.linspace(0, 1, 16))
        path = tmp_path / "x.pgm"
        write_image_pgm(img, path)
        blob = path.read_bytes()
        header = b"P5\n4 4\n65535\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 16 * 2

    def test_scaling_hits_full_range(self, tmp_path):
        img = Image(4, np.linspace(-2, 3, 16))
        path = tmp_path / "x.pgm"
        write_image_pgm(img, path)
        payload = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert payload.min() == 0 and payload.max() == 65535


class TestCsv:
    def test_curve_round_trip(self, tmp_path):
        values = [3.5, 1.25, 0.875]
        path = tmp_path / "c.csv"
        write_curve_csv(values, path)
        np.testing.assert_array_equal(read_curve_csv(path), values)
        assert path.read_text().splitlines()[0] == "iteration,error"

    def test_profile_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(12)
        path = tmp_path / "p.csv"
        write_profile_csv(values, path)
        np.testing.assert_array_equal(read_profile_csv(path), values)

    def test_sinogram_csv_layout(self, tmp_path):
        s = Sinogram(2, 3, np.arange(6.0))
        path = tmp_path / "s.csv"
        write_sinogram_csv(s, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # p rows
        assert [float(v) for v in lines[0].split(",")] == [0.0, 1.0, 2.0]

    def test_graph_edges(self, tmp_path):
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)])
        path = tmp_path / "g.csv"
        write_graph_edges_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,weight"
        assert lines[1] == "0,1,0.5"
        assert lines[2] == "1,2,0.25"
