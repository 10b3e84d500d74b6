"""Check that the working tree writes the same bytes as a git revision.

    python tools/same_outputs.py REV

Extracts ``src/`` of REV with ``git archive`` into a temporary directory (no
checkout, no worktree), runs :data:`COMMANDS` in order under ``python -W error
-m gtvtomo.cli``, once on REV's source and once on the working tree's, and
compares every file they write byte for byte, plus each command's exit code,
stdout and stderr.  Prints the outputs that differ and exits 1 on any
difference, 0 on none, and 2, with git's message, if REV's ``src/`` cannot be
extracted.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The README stage chain (with every optional output), a denoise stopped by
# --max-iters, reconstruct --truth per method, ART and SIRT at a span where
# most rows miss the image (1 380 of 3 420 active, 36 ART levels), one
# experiment with every method, and two table1 runs.
COMMANDS = (
    "phantom --kind shepp-logan --n 64 --out ph.img --pgm ph.pgm",
    "project --image ph.img --rays 95 --num-angles 36 --out clean.sino --csv clean.csv",
    "noise --sino clean.sino --level 0.08 --seed 1 --out noisy.sino",
    "denoise --sino noisy.sino --gamma 0.6 --out denoised.sino --trace trace.csv --edges edges.csv",
    "denoise --sino noisy.sino --gamma 20 --max-iters 40 --out capped.sino --trace capped.csv",
    "reconstruct --sino denoised.sino --n 64 --method art --art-lam 0.25 --truth ph.img --curve curve.csv"
    " --out rec.img --pgm rec.pgm",
    "reconstruct --sino noisy.sino --n 64 --method fbp --truth ph.img --out fbp.img --pgm fbp.pgm",
    "reconstruct --sino noisy.sino --n 64 --method art --truth ph.img --curve art.csv --out art.img",
    "reconstruct --sino noisy.sino --n 64 --method sirt --truth ph.img --curve sirt.csv --out sirt.img",
    "reconstruct --sino noisy.sino --n 64 --span 200 --method art --truth ph.img --curve art200.csv --out art200.img",
    "reconstruct --sino noisy.sino --n 64 --span 200 --method sirt --truth ph.img --curve sirt200.csv"
    " --out sirt200.img",
    "experiment --phantom shepp-logan --noise-level 0.08 --methods fbp,art,sirt --out-dir run1",
    "table1 --out-dir bench --seeds 1,2,3,4,5",
    "table1 --out-dir bench-override --seeds 1,2 --noise-override 0.03 --n 32",
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
        before = outputs(rev_src, COMMANDS, tmp / "rev-out")
        after = outputs(ROOT / "src", COMMANDS, tmp / "tree-out")
    differ = differences(before, after)
    for name in differ:
        print(name)
    total = len(before.keys() | after.keys())
    print(f"{len(differ)} of {total} outputs differ from {args.rev}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
