"""Check that the working tree writes the same bytes as a git revision.

    python tools/same_outputs.py REV

Extracts ``src/`` of REV with ``git archive`` into a temporary directory (no
checkout, no worktree), runs :data:`COMMANDS` in order under ``python -W error
-m gtvtomo.cli``, once on REV's source and once on the working tree's (the two
sides at once, in two threads, each in its own directory), and compares every
file they write byte for byte, plus each command's exit code, stdout and
stderr.  Prints the outputs that differ and exits 1 on any difference, 0 on
none, and 2, with git's message, if REV's ``src/`` cannot be extracted.  Uses
only the standard library.

When an output of the five-seed ``table1`` run under ``bench/`` differs, a
science report follows the differing names (see :func:`science_report`): the
16 ``table1.csv`` cells on both sides with the change of each mean, the
per-seed GD-vs-raw win count, each experiment's ``best_gamma`` with the moved
ones marked, and acceptance criterion 6 (the smooth 0.08 FBP-GD/FBP ratio, at
most 0.6, and every GD mean below raw).  It is the record a change that moves
``table1.csv`` pastes into CHANGES.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from math import nan
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The README stage chain (with every optional output), a denoise stopped by
# --max-iters, reconstruct --truth per method, FBP with the Shepp-Logan filter
# and with the cosine filter and nearest interpolation, a denoise at gamma 0,
# every other phantom kind, ART and SIRT at a span where most rows miss the
# image (1 380 of 3 420 active, 36 ART levels), one experiment with every
# method, the same at that span, a smooth experiment with SIRT alone (each
# iterative method there solves both branches in one call), a smooth FBP
# experiment on an unsorted gamma grid capped at 40 denoiser iterations (the
# sweep solves it in ascending order on one shared path of dual steps, and
# some weights reach the cap on that path), two table1 runs, then the help of
# gtvtomo and of each subcommand, an unknown subcommand and a missing required
# flag (argparse's output and exit code 2, no file written).
COMMANDS = (
    "phantom --kind shepp-logan --n 64 --out ph.img --pgm ph.pgm",
    "project --image ph.img --rays 95 --num-angles 36 --out clean.sino --csv clean.csv",
    "noise --sino clean.sino --level 0.08 --seed 1 --out noisy.sino",
    "denoise --sino noisy.sino --gamma 0.6 --out denoised.sino --trace trace.csv --edges edges.csv",
    "denoise --sino noisy.sino --gamma 20 --max-iters 40 --out capped.sino --trace capped.csv",
    "reconstruct --sino denoised.sino --n 64 --method art --art-lam 0.25 --truth ph.img --curve curve.csv"
    " --out rec.img --pgm rec.pgm",
    "reconstruct --sino noisy.sino --n 64 --method fbp --truth ph.img --out fbp.img --pgm fbp.pgm",
    "reconstruct --sino noisy.sino --n 64 --method fbp --fbp-filter shepp-logan --truth ph.img --out fbpsl.img",
    "reconstruct --sino noisy.sino --n 64 --method fbp --fbp-filter cosine --fbp-interpolation nearest --truth ph.img"
    " --out fbpcn.img",
    "denoise --sino noisy.sino --gamma 0 --out g0.sino --trace g0.csv",
    "phantom --kind smooth --n 64 --out sm.img --pgm sm.pgm",
    "phantom --kind binary --n 64 --seed 3 --out binary.img --pgm binary.pgm",
    "phantom --kind grains --n 64 --seed 3 --out grains.img --pgm grains.pgm",
    "phantom --kind fourphases --n 64 --seed 3 --out fourphases.img --pgm fourphases.pgm",
    "reconstruct --sino noisy.sino --n 64 --method art --truth ph.img --curve art.csv --out art.img",
    "reconstruct --sino noisy.sino --n 64 --method sirt --truth ph.img --curve sirt.csv --out sirt.img",
    "reconstruct --sino noisy.sino --n 64 --span 200 --method art --truth ph.img --curve art200.csv --out art200.img",
    "reconstruct --sino noisy.sino --n 64 --span 200 --method sirt --truth ph.img --curve sirt200.csv"
    " --out sirt200.img",
    "experiment --phantom shepp-logan --noise-level 0.08 --methods fbp,art,sirt --out-dir run1",
    "experiment --phantom shepp-logan --noise-level 0.08 --detector-span 200 --methods fbp,art,sirt --out-dir run200",
    "experiment --phantom smooth --noise-level 0.05 --methods fbp,sirt --out-dir run-smooth",
    "experiment --phantom smooth --noise-level 0.08 --gammas 20,0,0.5,2.7595,0.001 --denoise-max-iters 40"
    " --methods fbp --out-dir run-unsorted",
    "table1 --out-dir bench --seeds 1,2,3,4,5",
    "table1 --out-dir bench-override --seeds 1,2 --noise-override 0.03 --n 32",
    "--help",
    "phantom --help",
    "project --help",
    "noise --help",
    "denoise --help",
    "reconstruct --help",
    "experiment --help",
    "table1 --help",
    "bogus --out bogus.img",
    "phantom --n 8",
)


def extract_src(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev``, unpacked under ``dest`` from ``git archive``; returns that ``src``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest / "src"


def files(workdir: Path) -> dict[str, bytes]:
    """Every file under ``workdir``, by its relative path."""
    return {p.relative_to(workdir).as_posix(): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}


def outputs(src: Path, commands, workdir: Path) -> dict[str, bytes]:
    """Run ``commands`` in a new ``workdir`` on the package in ``src``: each one's exit code,
    stdout and stderr, then every file written, by name."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    found = {}
    for i, command in enumerate(commands, 1):
        argv = [sys.executable, "-W", "error", "-m", "gtvtomo.cli", *shlex.split(command)]
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True)
        tag = f"[{i}] {command.split()[0]}"
        found[f"{tag} exit"] = str(proc.returncode).encode()
        found[f"{tag} stdout"] = proc.stdout
        found[f"{tag} stderr"] = proc.stderr
    found.update(files(workdir))
    return found


def differences(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The names whose bytes differ, or that only one side has, sorted."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _rows(data: bytes | None) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO((data or b"").decode())))


def _cells(found: dict[str, bytes]) -> dict[tuple, tuple[float, float]]:
    """``bench/table1.csv`` as (mean, std) by (phantom, noise level, method, branch)."""
    return {
        (r["phantom"], r["noise_level"], r["method"], r["branch"]):
            (float(r["mean_min_error"]), float(r["std_min_error"]))
        for r in _rows(found.get("bench/table1.csv"))
    }


def _seed_runs(found: dict[str, bytes]) -> tuple[dict[str, float], dict[tuple, float]]:
    """From each ``bench/<row>/seed_<s>/summary.csv``: best_gamma by experiment (``<row>/seed_<s>``), and
    min_error by (experiment, method, branch)."""
    gammas, errors = {}, {}
    for name in sorted(found):
        if match := re.fullmatch(r"bench/([^/]+/seed_[^/]+)/summary\.csv", name):
            for r in _rows(found[name]):
                gammas[match[1]] = float(r["best_gamma"])
                errors[match[1], r["method"], r["branch"]] = float(r["min_error"])
    return gammas, errors


def _g(x, spec=".6g") -> str:
    return "-" if x is None else format(x, spec)


def _wins(errors: dict[tuple, float]) -> str:
    """``"w of n"``: of the ``n`` keys ending in ``gd`` whose ``raw`` twin is there, ``w`` have the lower error."""
    pairs = [(e, errors[(*k[:-1], "raw")]) for k, e in errors.items() if k[-1] == "gd" and (*k[:-1], "raw") in errors]
    return f"{sum(gd < raw for gd, raw in pairs)} of {len(pairs)}"


def science_report(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    """The lines that say how the ``table1`` run under ``bench/`` moved from ``before`` (rev) to ``after``
    (tree); none when no output under ``bench/`` differs."""
    if not any(name.startswith("bench/") for name in differences(before, after)):
        return []
    row = "  {:<26} {:>9} ± {:<9}  {:>9} ± {:<9}  {}".format
    lines = ["science report of bench/, rev -> tree"]
    lines.append(row("table1 cell", "rev mean", "std", "tree mean", "std", "mean delta"))
    cells = [_cells(before), _cells(after)]
    for key in dict.fromkeys([*cells[0], *cells[1]]):
        (m0, s0), (m1, s1) = (side.get(key, (None, None)) for side in cells)
        delta = None if None in (m0, m1) else m1 - m0
        lines.append(row(" ".join(key), _g(m0), _g(s0), _g(m1), _g(s1), _g(delta, "+.3g")))
    (gammas0, errors0), (gammas1, errors1) = _seed_runs(before), _seed_runs(after)
    lines.append(f"GD below raw per seed: rev {_wins(errors0)}, tree {_wins(errors1)}")
    lines.append(f"  {'best_gamma':<26} {'rev':<9} tree")
    for exp in dict.fromkeys([*gammas0, *gammas1]):
        g0, g1 = gammas0.get(exp), gammas1.get(exp)
        lines.append(f"  {exp:<26} {_g(g0):<9} {_g(g1):<9}{'  moved' if g0 != g1 else ''}".rstrip())
    means = [{key: m for key, (m, _) in side.items()} for side in cells]
    ratio = [side.get(("smooth", "0.08", "fbp", "gd"), nan) / side.get(("smooth", "0.08", "fbp", "raw"), nan)
             for side in means]
    lines.append(
        f"criterion 6: smooth 0.08 FBP-GD/FBP mean rev {ratio[0]:.3f}, tree {ratio[1]:.3f} (at most 0.6);"
        f" GD mean below raw: rev {_wins(means[0])}, tree {_wins(means[1])}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare the working tree with, e.g. HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            rev_src = extract_src(args.rev, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract src/ of {args.rev}: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(2) as pool:  # the sides share nothing; each runs its commands in order
            rev_run = pool.submit(outputs, rev_src, COMMANDS, tmp / "rev-out")
            tree_run = pool.submit(outputs, ROOT / "src", COMMANDS, tmp / "tree-out")
            before, after = rev_run.result(), tree_run.result()
    differ = differences(before, after)
    for name in differ:
        print(name)
    for line in science_report(before, after):
        print(line)
    total = len(before.keys() | after.keys())
    print(f"{len(differ)} of {total} outputs differ from {args.rev}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
