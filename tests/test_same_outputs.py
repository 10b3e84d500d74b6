"""tools/same_outputs.py reports exactly the outputs that differ between two runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

COMMANDS = (
    "phantom --n 16 --out ph.img --pgm ph.pgm",
    "project --image ph.img --rays 23 --num-angles 8 --out s.sino --csv s.csv",
)


def test_same_source_same_outputs_and_one_flipped_byte_is_reported(tmp_path):
    a = same_outputs.outputs(ROOT / "src", COMMANDS, tmp_path / "a")
    b = same_outputs.outputs(ROOT / "src", COMMANDS, tmp_path / "b")
    assert sorted(name for name in a if not name.startswith("[")) == ["ph.img", "ph.pgm", "s.csv", "s.sino"]
    assert [a[f"[{i}] {c.split()[0]} exit"] for i, c in enumerate(COMMANDS, 1)] == [b"0", b"0"]
    assert same_outputs.differences(a, b) == []

    sino = tmp_path / "b" / "s.sino"
    data = bytearray(sino.read_bytes())
    data[-1] ^= 1
    sino.write_bytes(bytes(data))
    assert same_outputs.differences(a, {**b, **same_outputs.files(tmp_path / "b")}) == ["s.sino"]


def test_a_file_on_one_side_only_is_reported():
    assert same_outputs.differences({"x": b"1"}, {"x": b"1", "y": b""}) == ["y"]
    assert same_outputs.differences({"[1] noise stdout": b""}, {"[1] noise stdout": b"\n"}) == ["[1] noise stdout"]


def test_unknown_revision_exits_2_with_gits_message(capsys):
    assert same_outputs.main(["no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cannot extract src/ of no-such-rev: fatal: ")
