import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gtvtomo import ExperimentSpec, generate_phantom, l2_error, pipeline, run_experiment, run_table1
from gtvtomo.cli import main
from gtvtomo.pipeline import TABLE1_ROWS, default_gamma_grid, parse_spec_file, reconstruct
from gtvtomo.projector import Geometry, Sinogram, build_projector, forward_project
from gtvtomo.recon import DivergenceError
from gtvtomo.serialize import (
    read_curve_csv,
    read_image_raw,
    read_profile_csv,
    read_sinogram_raw,
)


def small_spec(tmp_path, **overrides):
    base = dict(
        phantom="shepp-logan",
        n=16,
        rays=23,
        num_angles=10,
        noise_level=0.08,
        patch_side=3,
        neighbors=4,
        gammas=(0.0, 0.3, 1.0),
        methods=("fbp", "art", "sirt"),
        art_sweeps=8,
        sirt_iterations=25,
        seed=1,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def read_table(path):
    """Header and rows (as dicts) of a CSV written by serialize.write_csv."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert Path(path).read_bytes().count(b"\r\n") == len(rows) + 1
    return header, [dict(zip(header, row)) for row in rows]


class TestExperimentSpec:
    def test_defaults_valid(self):
        spec = ExperimentSpec()
        assert spec.gammas == tuple(default_gamma_grid())
        assert 0.0 in spec.gammas

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(phantom="cube")
        with pytest.raises(ValueError):
            ExperimentSpec(methods=())
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("fbp", "mlem"))
        with pytest.raises(ValueError):
            ExperimentSpec(gammas=())
        # Every setting is checked when the spec is built, not when it is used.
        for field, bad, message in [
            ("n", 0, "image side"),
            ("rays", 0, "at least one ray"),
            ("num_angles", 0, "at least one ray and one angle"),
            ("detector_span", 10.0, "detector_span"),
            ("detector_span", float("nan"), "detector_span"),
            ("noise_level", -1.0, "noise level"),
            ("noise_level", float("inf"), "noise level"),
            ("seed", -1, "seed must be >= 0"),
            ("patch_side", 4, "patch side"),
            ("neighbors", 0, "neighbor count"),
            ("art_lam", 0.0, "ART relaxation"),
            ("art_lam", 2.0, "ART relaxation"),
            ("art_sweeps", 0, "sweeps"),
            ("sirt_lam", -1.0, "lam"),
            ("sirt_lam", float("nan"), "lam"),
            ("sirt_lam", 2.0, "lam"),
            ("sirt_lam", 2.5, "lam"),
            ("sirt_iterations", 0, "iterations"),
            ("fbp_filter", "hann", "filter"),
            ("fbp_interpolation", "cubic", "interpolation"),
            ("denoise_epsilon", float("nan"), "epsilon"),
            ("denoise_max_iters", 0, "max_iters"),
            ("gammas", (0.1, -1.0), "gamma"),
            ("gammas", (float("inf"),), "gamma"),
            ("gammas", (0.0, float("nan")), "gamma"),
            ("gammas", (0.5, 0.1, 0.5), "each gamma may be listed once"),
            ("methods", ("fbp", "art", "fbp"), "each method may be listed once"),
        ]:
            with pytest.raises(ValueError, match=message):
                ExperimentSpec(**{field: bad})


class TestSpecFile:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text(
            "# comment line\n"
            "phantom = smooth\n"
            "n = 16\n"
            "rays = 23\n"
            "num_angles = 10\n"
            "noise_level = 0.05\n"
            "gammas = 0, 0.5\n"
            "methods = fbp, sirt\n"
            "detector_span = auto\n"
            "seed = 3\n"
        )
        values = parse_spec_file(path)
        assert values["phantom"] == "smooth"
        assert values["gammas"] == (0.0, 0.5)
        assert values["methods"] == ("fbp", "sirt")
        assert values["detector_span"] is None
        spec = ExperimentSpec(**parse_spec_file(path) | {"seed": 9})
        assert spec.seed == 9
        assert spec.noise_level == 0.05

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors such as Notepad start a UTF-8 file with U+FEFF
        text = "phantom = smooth\nn = 16\n"
        plain, marked = tmp_path / "plain.spec", tmp_path / "marked.spec"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_spec_file(marked) == parse_spec_file(plain) == {"phantom": "smooth", "n": 16}

    def test_bad_key_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("wavelength = 3\n")
        with pytest.raises(ValueError):
            parse_spec_file(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_spec_file(path)

    def test_key_given_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.spec"
        path.write_text("n = 64\n# the same key again\n n =32\n")
        with pytest.raises(ValueError, match=r"twice\.spec:3: n is already set on line 1"):
            parse_spec_file(path)


class TestReconstruct:
    """Every method returns ``(Image, ErrorCurve)``: one error per step given a truth, none without."""

    @pytest.mark.parametrize("method", ["fbp", "art", "sirt"])
    def test_projector_of_another_geometry_rejected(self, tmp_path, monkeypatch, method):
        spec = small_spec(tmp_path)
        other = build_projector(Geometry(16, 23, 10, 40.0))
        sino = forward_project(build_projector(spec.stages["geometry"]), generate_phantom(spec.phantom, spec.n))
        with pytest.raises(ValueError, match=r"^projector has Geometry\(.*detector_span=40\.0\) but the spec asks"):
            reconstruct(method, sino, spec, other)
        if method == "fbp":  # FBP still builds no projector when none is given
            monkeypatch.setattr(pipeline, "build_projector", None)
            assert reconstruct(method, sino, spec)[0].n == spec.n

    @pytest.mark.parametrize("method", ["mlem", "FBP"])
    def test_unknown_method_rejected(self, tmp_path, method):
        spec = small_spec(tmp_path)
        sino = Sinogram(spec.rays, spec.num_angles, np.zeros(spec.rays * spec.num_angles))
        with pytest.raises(ValueError, match=rf"^unknown method '{method}'; expected one of \('fbp', 'art', 'sirt'\)$"):
            reconstruct(method, sino, spec)

    @pytest.mark.parametrize("method", ["fbp", "art", "sirt"])
    def test_sinogram_shape_must_match_spec(self, tmp_path, method):
        spec = small_spec(tmp_path)  # 23 rays, 10 angles: the transposed shape has as many values
        sino = forward_project(build_projector(spec.stages["geometry"]), generate_phantom(spec.phantom, spec.n))
        transposed = Sinogram(spec.num_angles, spec.rays, sino.values)
        with pytest.raises(ValueError, match=r"^sinogram is 10x23 but geometry expects 23x10$"):
            reconstruct(method, transposed, spec)

    @pytest.mark.parametrize("method", ["fbp", "art", "sirt"])
    def test_one_result_contract(self, tmp_path, method):
        spec = small_spec(tmp_path, art_sweeps=4, sirt_iterations=6)
        truth = generate_phantom(spec.phantom, spec.n)
        A = build_projector(spec.stages["geometry"])
        sino = forward_project(A, truth)
        img, curve = reconstruct(method, sino, spec, A, truth)
        assert curve.values.size == {"fbp": 1, "art": spec.art_sweeps, "sirt": spec.sirt_iterations}[method]
        assert curve.values[-1] == l2_error(img, truth)
        bare, empty = reconstruct(method, sino, spec, A)
        assert empty.values.size == 0
        np.testing.assert_array_equal(bare.pixels, img.pixels)


class TestRunExperiment:
    def test_record_is_json_ready(self, tmp_path):
        record = run_experiment(small_spec(tmp_path))
        assert json.loads(json.dumps(record, allow_nan=False))["best_gamma"] == record["best_gamma"]

    def test_degenerate_pipeline_identical_branches(self, tmp_path):
        spec = small_spec(tmp_path, noise_level=0.0, gammas=(0.0,))
        summary = run_experiment(spec)
        clean = read_sinogram_raw(Path(spec.output_dir) / "sino_clean.sino")
        noisy = read_sinogram_raw(Path(spec.output_dir) / "sino_noisy.sino")
        denoised = read_sinogram_raw(Path(spec.output_dir) / "sino_denoised.sino")
        np.testing.assert_array_equal(noisy.values, clean.values)
        np.testing.assert_array_equal(denoised.values, clean.values)
        for method, branches in summary["methods"].items():
            assert branches["raw"]["min_error"] == pytest.approx(
                branches["gd"]["min_error"], abs=1e-12
            )
            assert branches["raw"]["final_error"] == pytest.approx(
                branches["gd"]["final_error"], abs=1e-12
            )

    @pytest.mark.parametrize("budget", [{}, {"art_sweeps": 1, "sirt_iterations": 1}], ids=["default", "one-step"])
    def test_artifacts_exist_and_parse(self, tmp_path, budget):
        spec = small_spec(tmp_path, **budget)
        summary = run_experiment(spec)
        # one curve per iterative method and branch, one row per step, at every budget; none for FBP
        steps = {"art": spec.art_sweeps, "sirt": spec.sirt_iterations}
        curves = {p.name for p in Path(spec.output_dir).glob("curve_*.csv")}
        assert curves == {f"curve_{m}_{br}.csv" for m in steps for br in ("raw", "gd")}
        for name in curves:
            assert read_curve_csv(Path(spec.output_dir) / name).size == steps[name.split("_")[1]]
        readers = {
            ".img": read_image_raw,
            ".sino": read_sinogram_raw,
        }
        for path in Path(spec.output_dir).iterdir():
            if path.suffix in readers:
                readers[path.suffix](path)
            elif path.suffix == ".csv" and path.name.startswith(("curve_", "profile_")):
                reader = read_curve_csv if path.name.startswith("curve_") else read_profile_csv
                assert reader(path).size > 0

        # Floats read back exactly; integer columns carry no decimal point.
        out = Path(spec.output_dir)
        _, rows = read_table(out / "gamma_scores.csv")
        assert [(float(r["gamma"]), float(r["score"])) for r in rows] == summary["gamma_scores"]
        header, rows = read_table(out / "summary.csv")
        assert header == [
            "phantom", "n", "noise_level", "seed", "best_gamma", "method", "branch",
            "final_error", "min_error", "argmin_iteration",
        ]
        assert [(r["method"], r["branch"]) for r in rows] == [
            (m, br) for m in spec.methods for br in ("raw", "gd")
        ]
        for r in rows:
            rec = summary["methods"][r["method"]][r["branch"]]
            assert list(rec) == header  # the returned record holds the summary.csv row
            assert (r["phantom"], r["n"], r["seed"]) == (spec.phantom, str(spec.n), str(spec.seed))
            assert float(r["noise_level"]) == spec.noise_level
            assert float(r["best_gamma"]) == summary["best_gamma"]
            assert float(r["final_error"]) == rec["final_error"]
            assert float(r["min_error"]) == rec["min_error"]
            assert r["argmin_iteration"] == str(rec["argmin_iteration"])

    def test_stages_run_apart_match_run_experiment(self, tmp_path):
        """Front end, solves outside run_experiment, writers: no directory before the writers,
        then the same files and the same record as one run_experiment call."""
        whole = small_spec(tmp_path, output_dir=str(tmp_path / "whole"))
        staged = replace(whole, output_dir=str(tmp_path / "staged"))
        record = run_experiment(whole)
        A = build_projector(staged.stages["geometry"])
        truth, clean, branches, front = pipeline._front_end(staged, A)
        recons = {
            (m, br): reconstruct(m, sino, staged, A, truth) for m in staged.methods for br, sino in branches.items()
        }
        assert not Path(staged.output_dir).exists()
        assert pipeline._write(staged, truth, clean, branches, front, recons) == record

        def files(d):
            return {p.name: p.read_bytes() for p in Path(d).iterdir()}

        assert files(staged.output_dir) == files(whole.output_dir)

    def test_projector_of_another_geometry_leaves_no_output_dir(self, tmp_path):
        spec = small_spec(tmp_path)
        other = build_projector(Geometry(16, 23, 10, 40.0))
        with pytest.raises(ValueError, match=f"but the spec asks for {re.escape(repr(spec.stages['geometry']))}$"):
            run_experiment(spec, projector=other)
        assert not Path(spec.output_dir).exists()

    def test_divergence_leaves_no_output_dir(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("forced")

        monkeypatch.setattr(pipeline, "sirt", diverge)
        spec = small_spec(tmp_path)
        with pytest.raises(DivergenceError):
            run_experiment(spec)
        assert not Path(spec.output_dir).exists()
        argv = ["experiment", "--n", "16", "--rays", "23", "--num-angles", "10", "--neighbors", "4",
                "--gammas", "0,0.3", "--methods", "fbp,sirt", "--out-dir", spec.output_dir]
        assert main(argv) == 4
        assert not Path(spec.output_dir).exists()

    def test_reproducible_bit_identical(self, tmp_path):
        spec_a = small_spec(tmp_path, output_dir=str(tmp_path / "a"))
        spec_b = small_spec(tmp_path, output_dir=str(tmp_path / "b"))
        sa = run_experiment(spec_a)
        sb = run_experiment(spec_b)
        assert sa["best_gamma"] == sb["best_gamma"]
        assert sa["gamma_scores"] == sb["gamma_scores"]
        for method in sa["methods"]:
            for branch in ("raw", "gd"):
                ra = sa["methods"][method][branch]
                rb = sb["methods"][method][branch]
                assert ra["min_error"] == rb["min_error"]
                assert ra["final_error"] == rb["final_error"]
        assert (Path(spec_a.output_dir) / "summary.csv").read_bytes() == (
            Path(spec_b.output_dir) / "summary.csv"
        ).read_bytes()

    def test_default_sirt_budget_holds_the_minimum(self, tmp_path):
        """At the default geometry and budget, both SIRT error curves turn up before the last iterate."""
        spec = ExperimentSpec(
            phantom="smooth", noise_level=0.05, methods=("fbp", "sirt"), seed=1, output_dir=str(tmp_path / "out")
        )
        for branch, rec in run_experiment(spec)["methods"]["sirt"].items():
            assert rec["argmin_iteration"] < spec.sirt_iterations - 1, branch

    def test_denoised_branch_helps_at_desk_scale_seed(self, tmp_path):
        spec = small_spec(tmp_path, methods=("fbp",), gammas=(0.0, 0.5, 2.0))
        summary = run_experiment(spec)
        assert summary["denoised_rel_error"] <= summary["noisy_rel_error"]


class TestRunTable1:
    def test_degenerate_noise_equalizes_columns(self, tmp_path):
        base = ExperimentSpec(
            n=16,
            rays=23,
            num_angles=10,
            neighbors=4,
            gammas=(0.0, 0.4),
            art_sweeps=6,
            sirt_iterations=20,
        )
        record = run_table1(tmp_path / "t", seeds=[1], base=base, noise_override=0.0)
        for row in record["rows"]:
            for method, cell in row["cells"].items():
                assert cell["raw"]["mean"] == pytest.approx(cell["gd"]["mean"], abs=1e-9)

    def test_mean_and_std_reported(self, tmp_path):
        base = ExperimentSpec(
            n=16,
            rays=23,
            num_angles=10,
            neighbors=4,
            gammas=(0.0, 0.4),
            art_sweeps=6,
            sirt_iterations=20,
        )
        record = run_table1(tmp_path / "t", seeds=[1, 2], base=base)
        assert json.loads(json.dumps(record, allow_nan=False))["seeds"] == [1, 2]
        row = record["rows"][0]
        cell = row["cells"]["fbp"]["raw"]
        assert len(cell["values"]) == 2
        assert cell["mean"] == pytest.approx(np.mean(cell["values"]))
        assert cell["std"] == pytest.approx(np.std(cell["values"]))
        assert Path(record["txt"]).exists()
        header, lines = read_table(record["csv"])
        assert header == [
            "phantom", "noise_level", "method", "branch", "mean_min_error", "std_min_error", "seeds",
        ]
        assert [
            (r["phantom"], float(r["noise_level"]), r["method"], r["branch"],
             float(r["mean_min_error"]), float(r["std_min_error"]), r["seeds"])
            for r in lines
        ] == [
            (row["phantom"], row["noise_level"], m, br, c["mean"], c["std"], "2")
            for row in record["rows"]
            for m, cells in row["cells"].items()
            for br, c in cells.items()
        ]

    def test_list_valued_base_spec(self, tmp_path):
        """A spec given lists is stored as tuples, so it runs like, equals and hashes like the tuple spec."""
        small = dict(n=16, rays=23, num_angles=10, neighbors=4, art_sweeps=6, sirt_iterations=20)
        listed = ExperimentSpec(gammas=[0, 0.4], methods=["fbp", "art"], **small)
        tupled = ExperimentSpec(gammas=(0.0, 0.4), methods=("fbp", "art"), **small)
        dirs = tmp_path / "listed", tmp_path / "tupled"
        for out, base in zip(dirs, (listed, tupled)):
            run_table1(out, seeds=[1], base=base)
        files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in dirs]
        assert files[0] == files[1] and len(files[0]) > 2
        for rel in files[0]:
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
        assert listed == tupled and hash(listed) == hash(tupled)
        assert type(listed.methods) is tuple and [type(g) for g in listed.gammas] == [float, float]

    def test_requires_seeds(self, tmp_path):
        with pytest.raises(ValueError):
            run_table1(tmp_path / "t", seeds=[])

    @pytest.mark.parametrize("seeds, bad", [([1.7, 3], "1.7"), ([1, 1.5], "1.5")])
    def test_seeds_must_be_integers(self, tmp_path, seeds, bad):
        with pytest.raises(ValueError, match=rf"^seeds must be integers, got {bad}$"):
            run_table1(tmp_path / "t", seeds=seeds)
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("noise_override", [None, 0.03])
    def test_each_distinct_experiment_runs_once(self, tmp_path, monkeypatch, noise_override):
        calls = []

        def counted(spec, **kwargs):
            calls.append(spec)
            return run_experiment(spec, **kwargs)

        monkeypatch.setattr(pipeline, "run_experiment", counted)
        base = ExperimentSpec(
            n=16, rays=23, num_angles=10, neighbors=4, gammas=(0.0, 0.4), art_sweeps=6, sirt_iterations=20
        )
        seeds = [2, 1]
        record = run_table1(tmp_path / "t", seeds=seeds, base=base, noise_override=noise_override)
        # an override gives a phantom's two rows one spec per seed, so each phantom runs once per seed
        assert len(calls) == len(set(calls)) == (2 if noise_override is not None else 4) * 2
        # row-major, seeds in the order given
        order = [(ph, level if noise_override is None else noise_override, seed)
                 for ph, level, _ in TABLE1_ROWS for seed in seeds]
        assert [(c.phantom, c.noise_level, c.seed) for c in calls] == list(dict.fromkeys(order))
        _, lines = read_table(record["csv"])
        assert len(lines) == 4 * 2 * 2
        if noise_override is not None:
            shepp = [line for line in lines if line["phantom"] == "shepp-logan"]
            assert shepp[:4] == shepp[4:]


class TestCli:
    def test_stage_by_stage_chain(self, tmp_path):
        img = tmp_path / "ph.img"
        sino = tmp_path / "s.sino"
        noisy = tmp_path / "n.sino"
        den = tmp_path / "d.sino"
        rec = tmp_path / "r.img"
        assert main(["phantom", "--kind", "smooth", "--n", "16", "--out", str(img)]) == 0
        assert (
            main(
                [
                    "project",
                    "--image",
                    str(img),
                    "--rays",
                    "23",
                    "--num-angles",
                    "10",
                    "--out",
                    str(sino),
                    "--csv",
                    str(tmp_path / "s.csv"),
                ]
            )
            == 0
        )
        assert main(["noise", "--sino", str(sino), "--level", "0.08", "--out", str(noisy)]) == 0
        assert (
            main(
                [
                    "denoise",
                    "--sino",
                    str(noisy),
                    "--gamma",
                    "0.5",
                    "--neighbors",
                    "4",
                    "--out",
                    str(den),
                    "--trace",
                    str(tmp_path / "trace.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "reconstruct",
                    "--sino",
                    str(den),
                    "--n",
                    "16",
                    "--method",
                    "art",
                    "--art-sweeps",
                    "5",
                    "--truth",
                    str(img),
                    "--curve",
                    str(tmp_path / "curve.csv"),
                    "--out",
                    str(rec),
                ]
            )
            == 0
        )
        assert read_image_raw(rec).n == 16
        assert read_curve_csv(tmp_path / "curve.csv").size == 5

    def test_experiment_subcommand_with_spec_file(self, tmp_path):
        spec_file = tmp_path / "exp.spec"
        spec_file.write_text(
            "phantom = shepp-logan\nn = 16\nrays = 23\nnum_angles = 10\n"
            "neighbors = 4\ngammas = 0, 0.5\nmethods = fbp\nart_sweeps = 5\n"
        )
        out = tmp_path / "expdir"
        code = main(["experiment", "--spec", str(spec_file), "--out-dir", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_experiment_prints_its_summary(self, tmp_path, capsys):
        out = tmp_path / "expdir"
        argv = ["experiment", "--n", "16", "--rays", "23", "--num-angles", "10", "--neighbors", "4",
                "--gammas", "0,0.5", "--methods", "fbp,sirt", "--sirt-iterations", "5", "--out-dir", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == (out / "summary.txt").read_text()

    def test_invalid_arguments_exit_2(self, tmp_path):
        img = tmp_path / "ph.img"
        assert main(["phantom", "--kind", "smooth", "--n", "4", "--out", str(img)]) == 2

    def test_missing_input_exit_3(self, tmp_path):
        code = main(
            ["project", "--image", str(tmp_path / "nope.img"), "--out", str(tmp_path / "s.sino")]
        )
        assert code == 3

    def test_table1_subcommand(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "table1",
                "--out-dir",
                str(out),
                "--seeds",
                "1",
                "--n",
                "16",
                "--rays",
                "23",
                "--num-angles",
                "10",
                "--gammas",
                "0,0.4",
                "--art-sweeps",
                "5",
                "--sirt-iterations",
                "15",
            ]
        )
        assert code == 0
        assert (out / "table1.csv").exists()
        assert (out / "table1.txt").exists()

    def test_denoise_edges_export(self, tmp_path):
        img = tmp_path / "ph.img"
        sino = tmp_path / "s.sino"
        den = tmp_path / "d.sino"
        edges = tmp_path / "edges.csv"
        main(["phantom", "--kind", "binary", "--n", "16", "--out", str(img)])
        main(["project", "--image", str(img), "--rays", "23", "--num-angles", "10", "--out", str(sino)])
        code = main(
            [
                "denoise",
                "--sino",
                str(sino),
                "--gamma",
                "0.2",
                "--neighbors",
                "4",
                "--out",
                str(den),
                "--edges",
                str(edges),
            ]
        )
        assert code == 0
        assert edges.read_text().splitlines()[0] == "i,j,weight"
