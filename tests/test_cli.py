import argparse
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gtvtomo
import gtvtomo.cli as cli
from gtvtomo import ExperimentSpec, Sinogram
from gtvtomo.cli import main
from gtvtomo.gtv_denoise import DenoiseConfig
from gtvtomo.patch_graph import PatchConfig
from gtvtomo.pipeline import _coerce, parse_spec_file
from gtvtomo.projector import Geometry
from gtvtomo.recon import ArtConfig, FbpConfig, SirtConfig
from gtvtomo.serialize import read_image_raw, read_sinogram_raw, write_image_pgm, write_sinogram_raw

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
        "--art-lam", "--art-sweeps", "--sirt-lam", "--sirt-iterations",
        "--truth", "--curve", "--out", "--pgm",
    ],
    "experiment": [
        "--spec", "--out-dir", "--phantom", "--n", "--rays", "--num-angles", "--detector-span", "--span",
        "--noise-level", "--patch-side", "--neighbors", "--gammas", "--methods", "--art-lam",
        "--art-sweeps", "--sirt-lam", "--sirt-iterations", "--fbp-filter",
        "--fbp-interpolation", "--denoise-epsilon", "--denoise-max-iters", "--seed",
    ],
    "table1": [
        "--out-dir", "--seeds", "--n", "--rays", "--num-angles", "--gammas", "--art-sweeps",
        "--sirt-iterations", "--noise-override",
    ],
}

# Every subcommand in help order, with the one-line help ``gtvtomo --help`` lists it by.
SUBCOMMAND_HELP = {
    "phantom": "generate a test image",
    "project": "forward project an image",
    "noise": "add relative Gaussian noise to a sinogram",
    "denoise": "graph total-variation denoising of a sinogram",
    "reconstruct": "reconstruct an image from a sinogram",
    "experiment": "full raw-vs-denoised pipeline run",
    "table1": "built-in four-row raw-vs-denoised benchmark",
}
DENOISE_DESCRIPTION = (
    "The regularization weight multiplies a total variation that counts each unordered pixel pair once; if "
    "your weight was calibrated against a convention summing over ordered pairs, double it here."
)

# One non-default value per ExperimentSpec field, in spec-file syntax.
FIELD_VALUES = {
    "phantom": "smooth",
    "n": "32",
    "rays": "47",
    "num_angles": "18",
    "detector_span": "100.5",
    "noise_level": "0.05",
    "patch_side": "5",
    "neighbors": "6",
    "gammas": "0, 0.5",
    "methods": "fbp, sirt",
    "art_lam": "0.5",
    "art_sweeps": "7",
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
SRC = Path(gtvtomo.__file__).resolve().parents[1]


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse_outcome(parse, argv, capsys):
    """Exit code, stdout and stderr of a ``parse`` of ``argv`` that exits, as argparse does on help and usage errors."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.fixture
def captured_specs(monkeypatch, tmp_path):
    """Replace run_experiment in the CLI with a stub that records its spec and, as a run does, writes summary.txt."""
    specs = []

    def fake_run(spec):
        specs.append(spec)
        out = Path(spec.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.txt").write_text("summary\n")
        return {"best_gamma": 0.0, "methods": {}}

    monkeypatch.chdir(tmp_path)  # the default output directory is relative
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
        assert spec == ExperimentSpec(n=8, rays=5, num_angles=3)
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

    def test_experiment_span_is_the_detector_span(self, captured_specs):
        """``experiment --span`` is ``--detector-span`` under the name ``project`` and ``reconstruct`` use."""
        assert main(["experiment", "--span", "100.5"]) == 0
        assert main(["experiment", "--detector-span", "100.5"]) == 0
        by_span, by_detector_span = captured_specs
        assert by_span == by_detector_span == ExperimentSpec(detector_span=100.5)

    def test_each_stage_field_lands_in_its_setting(self):
        spec = ExperimentSpec(**{name: _coerce(name, raw) for name, raw in FIELD_VALUES.items()})
        assert spec.stages == {
            "geometry": Geometry(n=32, p=47, q=18, detector_span=100.5),
            "patch": PatchConfig(patch_side=5, k=6),
            "fbp": FbpConfig(filter_name="cosine", interpolation="nearest"),
            "art": ArtConfig(lam=0.5, sweeps=7),
            "sirt": SirtConfig(lam=1.5, iterations=40),
            "denoise": DenoiseConfig(gamma=0.0, epsilon=1e-5, max_iters=50),
        }
        assert spec.stages is spec.stages  # built once, not per access


class TestOneCommandParser:
    """One command-line parser per process, built at the first ``main`` call and reused by every later one."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        code = "import gtvtomo.cli as cli; print(cli._build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in SURFACE], ids=lambda a: a[0])
    def test_help_equals_the_full_parsers(self, capsys, argv):
        code, out, err = parse_outcome(main, argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: gtvtomo", *argv[:-1]]))
        assert all(name in out for name in (SURFACE if argv == ["--help"] else SURFACE[argv[0]]))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["phantom", "--n", "8"], "the following arguments are required: --out"),
            (["phantom", "--out", "ph.img", "extra"], "unrecognized arguments: extra"),  # the top-level usage
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-command", "missing-out", "extra-argument", "no-command"],
    )
    def test_usage_errors_equal_the_full_parsers(self, capsys, argv, message):
        code, out, err = parse_outcome(main, argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: gtvtomo") and message in err

    def test_subcommands_in_help_order_with_their_help(self, capsys, monkeypatch):
        """The seven subcommands, in help order, each listed by ``--help`` with its one-line help."""
        assert list(subparsers()) == list(SUBCOMMAND_HELP)
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal, and breaks at hyphens
        listing = " ".join(parse_outcome(main, ["--help"], capsys)[1].split())
        at = [listing.find(f" {name} {text}") for name, text in SUBCOMMAND_HELP.items()]
        assert -1 not in at and at == sorted(at), dict(zip(SUBCOMMAND_HELP, at))
        assert DENOISE_DESCRIPTION in " ".join(parse_outcome(main, ["denoise", "--help"], capsys)[1].split())

    def test_stage_chain_after_help_and_usage_error(self, tmp_path, monkeypatch, capsys):
        """A help and a usage error leave the shared parser as it was: the chain writes the same bytes twice."""
        assert parse_outcome(main, ["--help"], capsys)[0] == 0
        assert parse_outcome(main, ["phantom", "--n", "8"], capsys)[0] == 2
        chain = [
            "phantom --n 16 --out ph.img --pgm ph.pgm",
            "project --image ph.img --rays 23 --num-angles 10 --out clean.sino --csv clean.csv",
            "noise --sino clean.sino --level 0.08 --seed 1 --out noisy.sino",
            "denoise --sino noisy.sino --gamma 0.5 --out denoised.sino --trace trace.csv --edges edges.csv",
            "reconstruct --sino denoised.sino --n 16 --method art --art-sweeps 3 --truth ph.img --curve curve.csv"
            " --out rec.img",
        ]
        written = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert [main(command.split()) for command in chain] == [0] * len(chain)
            written.append({f.name: f.read_bytes() for f in sorted(Path().iterdir())})
        assert len(written[0]) == 10
        assert written[0] == written[1]


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
        "flag,raw,message,command",
        [
            ("--n", "x", "n: expected an integer, got 'x'", "experiment"),
            ("--gammas", "0.1,big", "gammas: expected numbers, got '0.1,big'", "experiment"),
            ("--noise-level", "high", "noise_level: expected a number, got 'high'", "experiment"),
            ("--rays", "x", "rays: expected an integer, got 'x'", "project"),
            ("--num-angles", "1.5", "num_angles: expected an integer, got '1.5'", "project"),
            ("--span", "wide", "detector_span: expected a number, got 'wide'", "project"),
            ("--patch-side", "x", "patch_side: expected an integer, got 'x'", "denoise"),
            ("--neighbors", "x", "neighbors: expected an integer, got 'x'", "denoise"),
            ("--epsilon", "tiny", "denoise_epsilon: expected a number, got 'tiny'", "denoise"),
            ("--max-iters", "x", "denoise_max_iters: expected an integer, got 'x'", "denoise"),
        ],
    )
    def test_flag_gives_the_same_message(self, capsys, flag, raw, message, command):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, raw])
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


class TestEarlyErrors:
    """Bad values exit with 2 and a message naming them, before any work is done."""

    @pytest.fixture
    def image(self, tmp_path):
        path = tmp_path / "ph.img"
        assert main(["phantom", "--kind", "smooth", "--n", "16", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("span", ["nan", "inf"])
    def test_non_finite_span(self, tmp_path, capsys, image, span):
        out = tmp_path / "s.sino"
        assert main(["project", "--image", str(image), "--span", span, "--out", str(out)]) == 2
        assert "detector_span" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "art_lam = 2",
            "sirt_lam = -1",
            "sirt_lam = 2",
            "sirt_lam = 2.5",
            "n = 32",  # n is already set on line 1
            "patch_side = 4",
            "neighbors = 0",
            "noise_level = -1",
            "detector_span = 15",
            "methods = fbp, fbp",
            "gammas = 0, 1, 0",
        ],
    )
    def test_bad_spec_creates_no_output_dir(self, tmp_path, line):
        out = tmp_path / "never"
        path = tmp_path / "exp.spec"
        path.write_text(f"n = 16\nrays = 23\nnum_angles = 10\noutput_dir = {out}\n{line}\n")
        assert main(["experiment", "--spec", str(path)]) == 2
        assert not out.exists()

    def test_sirt_relaxation_past_two_writes_nothing(self, tmp_path, capsys, image):
        out_dir = tmp_path / "never"
        assert main(["experiment", "--sirt-lam", "2.5", "--methods", "sirt", "--out-dir", str(out_dir)]) == 2
        assert "SIRT relaxation lam must be in (0, 2), got 2.5" in capsys.readouterr().err
        assert not out_dir.exists()
        sino, out = tmp_path / "s.sino", tmp_path / "r.img"
        assert main(["project", "--image", str(image), "--rays", "23", "--num-angles", "10",
                     "--out", str(sino)]) == 0
        assert main(["reconstruct", "--sino", str(sino), "--n", "16", "--method", "sirt",
                     "--sirt-lam", "2.5", "--out", str(out)]) == 2
        assert "SIRT relaxation lam must be in (0, 2), got 2.5" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_of_the_wrong_size(self, tmp_path, capsys, image):
        sino = tmp_path / "s.sino"
        out = tmp_path / "r.img"
        assert main(["project", "--image", str(image), "--rays", "23", "--num-angles", "10",
                     "--out", str(sino)]) == 0
        args = ["reconstruct", "--sino", str(sino), "--n", "32", "--method", "sirt",
                "--truth", str(image), "--out", str(out)]
        assert main(args) == 2
        assert "--truth image is 16x16 but --n asks for 32x32" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, with_truth", [("fbp", True), ("art", False)], ids=["fbp", "art-no-truth"])
    def test_curve_needs_truth_and_an_iterative_method(self, tmp_path, capsys, image, method, with_truth):
        sino = tmp_path / "s.sino"
        out = tmp_path / "r.img"
        assert main(["project", "--image", str(image), "--rays", "23", "--num-angles", "10",
                     "--out", str(sino)]) == 0
        args = ["reconstruct", "--sino", str(sino), "--n", "16", "--method", method,
                "--curve", str(tmp_path / "c.csv"), "--out", str(out)]
        assert main(args + (["--truth", str(image)] if with_truth else [])) == 2
        assert "--curve needs --truth and an iterative method" in capsys.readouterr().err
        assert not out.exists()

    def test_denoise_rejects_overflowing_sinogram(self, tmp_path, capsys):
        sino = tmp_path / "big.sino"
        out = tmp_path / "d.sino"
        values = 1e200 * np.random.default_rng(3).standard_normal(6 * 4)
        write_sinogram_raw(Sinogram(6, 4, values), sino)
        assert main(["denoise", "--sino", str(sino), "--gamma", "0.1", "--out", str(out)]) == 2
        assert "patch distances overflow float64; rescale the sinogram" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_must_be_integers(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--out-dir", str(tmp_path / "t"), "--seeds", "1,x"])
        assert exc.value.code == 2
        assert "argument --seeds: invalid int_list value: '1,x'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    SMALL = ["--n", "16", "--rays", "23", "--num-angles", "10"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--seeds", "1", "--noise-override", "-1"], "relative noise level must be finite and >= 0, got -1.0"),
            (["--seeds", "1", "--noise-override", "nan"], "relative noise level must be finite and >= 0, got nan"),
            (["--seeds", "1", "--noise-override", "inf"], "relative noise level must be finite and >= 0, got inf"),
            (["--seeds", "1,-2"], "seed must be >= 0, got -2"),
            (["--seeds", "1,1"], "each seed may be listed once, got [1, 1]"),
        ],
        ids=["override-negative", "override-nan", "override-inf", "negative-seed", "repeated-seed"],
    )
    def test_bad_table1_rows_create_no_output_dir(self, tmp_path, capsys, extra, message):
        out = tmp_path / "t"
        assert main(["table1", "--out-dir", str(out), *self.SMALL, *extra]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            (["experiment", "--rays", "1"], "patch side 3 too large for a 1x36 sinogram"),
            (["experiment", "--rays", "2", "--num-angles", "1"], "patch side 3 too large for a 2x1 sinogram"),
            (["experiment", "--n", "8", "--rays", "3", "--num-angles", "2"], "need at least 11 patches for k=10, got 6"),
            (
                ["experiment", "--rays", "1", "--patch-side", "1", "--neighbors", "5"],
                "filtered backprojection needs at least 2 rays per angle",
            ),
            (["table1", "--rays", "1", "--seeds", "1"], "patch side 3 too large for a 1x36 sinogram"),
        ],
        ids=["one-ray", "one-angle", "too-few-patches", "fbp-one-ray", "table1-one-ray"],
    )
    def test_data_limits_create_no_output_dir(self, tmp_path, capsys, command, message):
        # limits that depend on the sinogram are only met mid-run, before the first write
        out = tmp_path / "out"
        assert main([*command, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_experiment_seed(self, tmp_path, capsys):
        out = tmp_path / "e"
        assert main(["experiment", "--seed", "-3", *self.SMALL, "--out-dir", str(out)]) == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_phantom_seed(self, tmp_path, capsys):
        out = tmp_path / "ph.img"
        assert main(["phantom", "--kind", "binary", "--n", "16", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_noise_seed(self, tmp_path, capsys, image):
        sino, out = tmp_path / "s.sino", tmp_path / "n.sino"
        assert main(["project", "--image", str(image), "--rays", "23", "--num-angles", "10",
                     "--out", str(sino)]) == 0
        assert main(["noise", "--sino", str(sino), "--level", "0.05", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestFarFromUnitScale:
    """Weights and data far from unit scale run like unit-scale ones."""

    def test_denoise_with_huge_gamma(self, tmp_path):
        ph, sino, out = tmp_path / "ph.img", tmp_path / "s.sino", tmp_path / "d.sino"
        assert main(["phantom", "--n", "8", "--out", str(ph)]) == 0
        assert main(["project", "--image", str(ph), "--rays", "3", "--num-angles", "2", "--out", str(sino)]) == 0
        assert main(["denoise", "--sino", str(sino), "--gamma", "1e160", "--neighbors", "3", "--out", str(out)]) == 0
        assert np.all(np.isfinite(read_sinogram_raw(out).values))

    @pytest.mark.parametrize("method", ["art", "sirt"])
    def test_reconstruct_scaled_sinogram(self, tmp_path, method):
        ph, sino, scaled = tmp_path / "ph.img", tmp_path / "s.sino", tmp_path / "big.sino"
        assert main(["phantom", "--n", "64", "--out", str(ph)]) == 0
        assert main(["project", "--image", str(ph), "--out", str(sino)]) == 0
        s = read_sinogram_raw(sino)
        write_sinogram_raw(Sinogram(s.p, s.q, 1e11 * s.values), scaled)
        budget = ["--art-sweeps", "5"] if method == "art" else ["--sirt-iterations", "10"]
        images = []
        for data in (sino, scaled):
            out = tmp_path / f"{data.stem}.img"
            assert main(["reconstruct", "--sino", str(data), "--n", "64", "--method", method, *budget,
                         "--out", str(out)]) == 0
            images.append(read_image_raw(out).pixels)
        want = 1e11 * images[0]
        assert np.linalg.norm(images[1] - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["fbp", "art", "sirt"])
    def test_reconstruct_truth_at_1e200(self, tmp_path, capsys, method):
        # the error's square overflows float64; the error itself is printed
        ph, sino, noisy, scaled = (tmp_path / name for name in ("ph.img", "s.sino", "n.sino", "big.sino"))
        assert main(["phantom", "--n", "64", "--out", str(ph)]) == 0
        assert main(["project", "--image", str(ph), "--out", str(sino)]) == 0
        assert main(["noise", "--sino", str(sino), "--level", "0.08", "--seed", "2", "--out", str(noisy)]) == 0
        s = read_sinogram_raw(noisy)
        write_sinogram_raw(Sinogram(s.p, s.q, 1e200 * s.values), scaled)
        budget = {"fbp": [], "art": ["--art-sweeps", "2"], "sirt": ["--sirt-iterations", "3"]}[method]
        base = ["reconstruct", "--n", "64", "--method", method, *budget, "--out", str(tmp_path / "r.img")]
        assert main([*base, "--sino", str(noisy)]) == 0
        unit = read_image_raw(tmp_path / "r.img").pixels
        capsys.readouterr()
        assert main([*base, "--sino", str(scaled), "--truth", str(ph)]) == 0
        err = float(capsys.readouterr().out.removeprefix("l2 error: "))
        assert err == pytest.approx(1e200 * np.linalg.norm(unit), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_printed_error_round_trips_at_1e200(self, tmp_path, capsys):
        # a fixed-point format would print the error with 201 digits before the point
        ph, sino, scaled, curve = (tmp_path / name for name in ("ph.img", "s.sino", "big.sino", "c.csv"))
        assert main(["phantom", "--n", "16", "--out", str(ph)]) == 0
        assert main(["project", "--image", str(ph), "--rays", "23", "--num-angles", "10", "--out", str(sino)]) == 0
        s = read_sinogram_raw(sino)
        write_sinogram_raw(Sinogram(s.p, s.q, 1e200 * s.values), scaled)
        capsys.readouterr()
        assert main(["reconstruct", "--sino", str(scaled), "--n", "16", "--method", "sirt", "--truth", str(ph),
                     "--curve", str(curve), "--out", str(tmp_path / "r.img")]) == 0
        shown = capsys.readouterr().out.removeprefix("l2 error: ").strip()
        last = float(curve.read_text().splitlines()[-1].split(",")[1])
        assert float(shown) == last > 1e199 and shown == repr(last)


def test_reconstruct_writes_pgm_preview(tmp_path):
    ph, sino, out, pgm = (tmp_path / name for name in ("ph.img", "s.sino", "r.img", "r.pgm"))
    assert main(["phantom", "--n", "16", "--out", str(ph)]) == 0
    assert main(["project", "--image", str(ph), "--rays", "23", "--num-angles", "10", "--out", str(sino)]) == 0
    assert main(["reconstruct", "--sino", str(sino), "--n", "16", "--out", str(out), "--pgm", str(pgm)]) == 0
    blob = pgm.read_bytes()
    header = b"P5\n16 16\n65535\n"
    assert blob.startswith(header) and len(blob) == len(header) + 16 * 16 * 2
    write_image_pgm(read_image_raw(out), tmp_path / "want.pgm")
    assert blob == (tmp_path / "want.pgm").read_bytes()
