import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtvtomo import Image, Sinogram, graph_from_edges
from gtvtomo.serialize import (
    read_curve_csv,
    read_image_raw,
    read_profile_csv,
    read_sinogram_raw,
    write_csv,
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


# Arbitrary bytes, token soup near the real syntax, and well-formed headers
# with payloads of whole float64 values, so that some inputs parse and the
# size checks run.
_TOKENS = st.one_of(
    st.sampled_from([b"IMG", b"SINO", b"0", b"1", b"2", b"-1", b"2.5", b"1e3", b"\xff"]),
    st.binary(max_size=4),
)
_SIZES = st.lists(st.sampled_from([b"1", b"2", b"3"]), min_size=1, max_size=2)
_HEADERS = st.one_of(
    st.binary(max_size=24),
    st.lists(_TOKENS, max_size=4).map(b" ".join),
    st.tuples(st.sampled_from([b"IMG", b"SINO"]), _SIZES).map(lambda t: b" ".join([t[0], *t[1]])),
)
_PAYLOADS = st.one_of(st.binary(max_size=80), st.integers(0, 9).map(lambda k: bytes(8 * k)))


class TestRawFuzz:
    @settings(max_examples=300, deadline=None, database=None)
    @given(header=_HEADERS, newline=st.booleans(), payload=_PAYLOADS)
    @example(header=b"SINO 1 2", newline=True, payload=bytes(16))  # parses as a sinogram
    def test_readers_parse_or_raise_value_error(self, tmp_path_factory, header, newline, payload):
        path = tmp_path_factory.getbasetemp() / "fuzz.raw"
        path.write_bytes(header + (b"\n" if newline else b"") + payload)
        for reader in (read_image_raw, read_sinogram_raw):
            try:
                reader(path)
            except ValueError:
                pass


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

    def test_write_csv_exact_bytes(self, tmp_path):
        floats = [0.1, 1 / 3, 1e16, 1e-5, -0.0, 5e-324]
        rows = [floats, [np.float64(v) for v in floats], [7, np.int64(-3), "text", np.float64(2.5), 0.25, "x y"]]
        path = tmp_path / "t.csv"
        write_csv(rows, path, ("a", "b", "c", "d", "e", "f"))
        text = [["a", "b", "c", "d", "e", "f"]] + [[repr(float(v)) for v in floats]] * 2
        text.append(["7", "-3", "text", "2.5", "0.25", "x y"])
        assert path.read_bytes() == "".join(",".join(row) + "\r\n" for row in text).encode("ascii")
        assert path.read_bytes().splitlines()[1] == b"0.1,0.3333333333333333,1e+16,1e-05,-0.0,5e-324"

    def test_graph_edges(self, tmp_path):
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)])
        path = tmp_path / "g.csv"
        write_graph_edges_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,weight"
        assert lines[1] == "0,1,0.5"
        assert lines[2] == "1,2,0.25"

    def test_graph_edges_are_write_csv_bytes(self, tmp_path):
        edges = [(0, 3419, 0.0), (1, 3418, 5e-324), (2, 3417, 1e-05), (3, 3416, 1.0), (3419, 3420, 1e16)]
        g = graph_from_edges(3421, edges)
        assert g.edge_i.dtype == g.edge_j.dtype == np.int64
        write_graph_edges_csv(g, tmp_path / "edges.csv")
        write_csv(zip(g.edge_i, g.edge_j, g.weights), tmp_path / "numpy.csv", ("i", "j", "weight"))  # numpy scalars
        lists = zip(g.edge_i.tolist(), g.edge_j.tolist(), g.weights.tolist())
        write_csv(lists, tmp_path / "lists.csv", ("i", "j", "weight"))
        edges = (tmp_path / "edges.csv").read_bytes()
        assert edges == (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
        assert edges == b"i,j,weight\r\n0,3419,0.0\r\n1,3418,5e-324\r\n2,3417,1e-05\r\n3,3416,1.0\r\n3419,3420,1e+16\r\n"
