"""tools/same_outputs.py reports exactly the outputs that differ between two runs."""

import importlib.util
from pathlib import Path

from gtvtomo import cli

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


def test_commands_cover_the_help_of_gtvtomo_and_every_subcommand():
    parser = cli._build_parser()
    names = next(a for a in parser._actions if a.dest == "command").choices
    assert {"--help", *(f"{name} --help" for name in names)} <= set(same_outputs.COMMANDS)


def test_science_report_names_the_moved_cell_and_gamma(tmp_path):
    run = ("table1 --out-dir bench --seeds 1,2 --n 16 --rays 23 --num-angles 8",)
    before = same_outputs.outputs(ROOT / "src", run, tmp_path / "a")
    assert same_outputs.science_report(before, before) == []
    assert same_outputs.science_report(before, {**before, "[1] table1 stdout": b""}) == []  # not under bench/

    table = before["bench/table1.csv"].decode().splitlines()
    cell = table[1].split(",")  # shepp-logan,0.05,fbp,raw,mean,std,seeds
    table[1] = ",".join([*cell[:4], repr(float(cell[4]) + 0.5), *cell[5:]])
    summary = [line.split(",") for line in before["bench/smooth_rn08/seed_2/summary.csv"].decode().splitlines()]
    summary[1:] = [[*row[:4], "99.0", *row[5:]] for row in summary[1:]]  # best_gamma is column 5
    after = {
        **before,
        "bench/table1.csv": "\n".join(table).encode() + b"\n",
        "bench/smooth_rn08/seed_2/summary.csv": "\n".join(map(",".join, summary)).encode() + b"\n",
    }

    report = same_outputs.science_report(before, after)
    cells = [line.split() for line in report if line.split()[:1] in (["shepp-logan"], ["smooth"])]
    assert len(cells) == 16
    assert [c[:4] for c in cells if c[-1] != "+0"] == [["shepp-logan", "0.05", "fbp", "raw"]]
    assert float(next(c for c in cells if c[-1] != "+0")[-1]) == 0.5
    gammas = [line.split() for line in report if "/seed_" in line]
    assert len(gammas) == 8
    assert [g[0] for g in gammas if g[-1] == "moved"] == ["smooth_rn08/seed_2"]
    assert next(g for g in gammas if g[-1] == "moved")[2] == "99"
    assert report[-1].startswith("criterion 6: smooth 0.08 FBP-GD/FBP mean rev ")
