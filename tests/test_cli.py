import argparse
from dataclasses import fields

import numpy as np
import pytest

import gtvtomo.cli as cli
from gtvtomo import ExperimentSpec
from gtvtomo.cli import main
from gtvtomo.pipeline import parse_spec_file

# Option strings of every subcommand; the experiment flags are derived from
# ExperimentSpec, so a new or renamed spec field shows up here.
SURFACE = {
    "phantom": ["--kind", "--n", "--seed", "--out", "--pgm"],
    "project": ["--image", "--rays", "--num-angles", "--span", "--out", "--csv"],
    "noise": ["--sino", "--level", "--seed", "--out"],
    "denoise": [
        "--sino", "--gamma", "--patch-side", "--neighbors", "--epsilon", "--max-iters",
        "--out", "--trace", "--edges",
    ],
    "reconstruct": [
        "--sino", "--n", "--method", "--span", "--fbp-filter", "--fbp-interpolation",
        "--art-lam", "--art-sweeps", "--art-row-order", "--sirt-lam", "--sirt-iterations",
        "--seed", "--truth", "--curve", "--out", "--pgm",
    ],
    "experiment": [
        "--spec", "--out-dir", "--phantom", "--n", "--rays", "--num-angles", "--detector-span",
        "--noise-level", "--patch-side", "--neighbors", "--gammas", "--methods", "--art-lam",
        "--art-sweeps", "--art-row-order", "--sirt-lam", "--sirt-iterations", "--fbp-filter",
        "--fbp-interpolation", "--denoise-epsilon", "--denoise-max-iters", "--seed",
    ],
    "table1": [
        "--out-dir", "--seeds", "--n", "--rays", "--num-angles", "--gammas", "--art-sweeps",
        "--sirt-iterations", "--noise-override",
    ],
}

# One non-default value per ExperimentSpec field, in spec-file syntax.
FIELD_VALUES = {
    "phantom": "smooth",
    "n": "32",
    "rays": "47",
    "num_angles": "18",
    "detector_span": "50.5",
    "noise_level": "0.05",
    "patch_side": "5",
    "neighbors": "6",
    "gammas": "0, 0.5",
    "methods": "fbp, sirt",
    "art_lam": "0.5",
    "art_sweeps": "7",
    "art_row_order": "randomized",
    "sirt_lam": "1.5",
    "sirt_iterations": "40",
    "fbp_filter": "cosine",
    "fbp_interpolation": "nearest",
    "denoise_epsilon": "1e-5",
    "denoise_max_iters": "50",
    "seed": "4",
    "output_dir": "elsewhere",
}
FLAG_NAMES = {"output_dir": "--out-dir"}


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.fixture
def captured_specs(monkeypatch):
    """Replace run_experiment in the CLI with a stub that records its spec."""
    specs = []

    def fake_run(spec):
        specs.append(spec)
        return {"best_gamma": 0.0, "methods": {}}

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    return specs


class TestSurface:
    def test_option_strings_per_subcommand(self):
        found = {
            name: sorted(o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, sub in subparsers().items()
        }
        assert found == {name: sorted(opts) for name, opts in SURFACE.items()}

    def test_spec_defaults_apply_when_flags_are_omitted(self):
        subs = subparsers()
        rec = subs["reconstruct"].parse_args(["--sino", "s", "--n", "8", "--out", "o"])
        spec = cli._spec_from_args(rec, rays=5, num_angles=3)
        assert spec == ExperimentSpec(n=8, rays=5, num_angles=3, seed=0)
        table = subs["table1"].parse_args(["--out-dir", "d"])
        assert cli._spec_from_args(table) == ExperimentSpec()

    @pytest.mark.parametrize("name", sorted(FIELD_VALUES))
    def test_flag_and_spec_file_agree(self, tmp_path, captured_specs, name):
        assert set(FIELD_VALUES) == {f.name for f in fields(ExperimentSpec)}
        raw = FIELD_VALUES[name]
        flag = FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        path = tmp_path / "one.spec"
        path.write_text(f"{name} = {raw}\n")
        assert main(["experiment", flag, raw]) == 0
        assert main(["experiment", "--spec", str(path)]) == 0
        by_flag, by_file = captured_specs
        assert by_flag == by_file
        assert by_flag != ExperimentSpec()


class TestSpecValueErrors:
    def test_spec_file_names_path_line_and_key(self, tmp_path, capsys):
        path = tmp_path / "exp.spec"
        path.write_text("phantom = smooth\n# comment\nn = x\n")
        with pytest.raises(ValueError, match=r"exp\.spec:3: n: expected an integer, got 'x'"):
            parse_spec_file(path)
        assert main(["experiment", "--spec", str(path)]) == 2
        assert f"{path}:3: n: expected an integer, got 'x'" in capsys.readouterr().err

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("n = 16\nwavelength = 3\n")
        with pytest.raises(ValueError, match=r"exp\.spec:2: unknown experiment key 'wavelength'"):
            parse_spec_file(path)

    @pytest.mark.parametrize(
        "flag,raw,message",
        [
            ("--n", "x", "n: expected an integer, got 'x'"),
            ("--gammas", "0.1,big", "gammas: expected numbers, got '0.1,big'"),
            ("--noise-level", "high", "noise_level: expected a number, got 'high'"),
        ],
    )
    def test_flag_gives_the_same_message(self, capsys, flag, raw, message):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", flag, raw])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def raw_file(tmp_path, header: bytes, payload_bytes: int):
    path = tmp_path / "bad.raw"
    path.write_bytes(header + np.zeros(payload_bytes // 8 + 1).tobytes()[:payload_bytes])
    return path


class TestMalformedRawFiles:
    """Malformed IMG/SINO inputs exit with 2 and a message naming the file."""

    @pytest.mark.parametrize(
        "header,expected",
        [(b"\xffIMG 3\n", "b'\\xffIMG 3\\n'"), (b"IMG 3.5\n", "b'IMG 3.5\\n'")],
        ids=["non-ascii-header", "non-integer-size"],
    )
    def test_bad_image_header(self, tmp_path, capsys, header, expected):
        path = raw_file(tmp_path, header, 72)
        assert main(["project", "--image", str(path), "--out", str(tmp_path / "s.sino")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: expected a 'IMG' header with 1 integer size(s), got {expected}" in err

    @pytest.mark.parametrize(
        "payload_bytes", [64, 80, 75], ids=["truncated", "oversized", "not-a-multiple-of-8"]
    )
    def test_wrong_payload_size(self, tmp_path, capsys, payload_bytes):
        path = raw_file(tmp_path, b"SINO 3 3\n", payload_bytes)
        args = ["noise", "--sino", str(path), "--level", "0.1", "--out", str(tmp_path / "n.sino")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{path}: header 'SINO 3 3' needs 72 payload bytes, found {payload_bytes}" in err
