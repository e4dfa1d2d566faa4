"""The shipped outputs to their bits.

Through cli.main, `run` on configs/linear_gaussian.json and
configs/nonlinear_tanh.json and `theory` on configs/ou_theory.json write
their CSVs, whose sha256 digests must be those of tests/golden.json.  The
bits move with numpy's version, with the SIMD targets its dispatch enables
on the host, and with the kernel backend, so the digests are keyed by
those.  A host with no key of its own still checks the numbers: those of
each series.csv and theory.csv against the copies in tests/golden/, to an
absolute 1e-12, with a UserWarning that says so.

A change that moves a digest on purpose updates it with

    PYTHONPATH=src python tests/test_golden.py

which runs the three commands, writes this host's digests into
tests/golden.json (its other keys stay) and rewrites the copies; CHANGES.md
then says which file moved and why."""

import csv
import hashlib
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from flowfilter import BACKEND
from flowfilter.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
COPIES = Path(__file__).with_name("golden")
# config -> (command, the CSVs it writes whose digests are held)
COMMANDS = {"linear_gaussian": ("run", ("series.csv", "gain_log.csv")),
            "nonlinear_tanh": ("run", ("series.csv", "gain_log.csv")),
            "ou_theory": ("theory", ("theory.csv",))}
# the CSVs compared by number where the host has no digests
COPIED = ("series.csv", "theory.csv")


def host_key() -> str:
    """What moves the bits: numpy's version, the dispatch targets it
    enables on this host, and the kernel backend."""
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return f"numpy {np.__version__}; {BACKEND} kernels; {' '.join(targets)}"


def _outputs(out: Path) -> dict:
    """"config/file" -> path of each CSV held, from one run of each command."""
    paths = {}
    for name, (command, files) in COMMANDS.items():
        assert main([command, str(ROOT / "configs" / f"{name}.json"),
                     "--out-dir", str(out / name)]) == 0, name
        paths.update({f"{name}/{f}": out / name / f for f in files})
    return paths


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _copy(key: str) -> Path:
    return COPIES / key.replace("/", "_")


def _assert_numbers_close(path: Path, copy: Path):
    """Every cell as in the copy: a number within 1e-12, any other text
    (a label, theory.csv's inputs, nan) equal."""
    with open(path) as fh, open(copy) as ref:
        rows, expected = list(csv.reader(fh)), list(csv.reader(ref))
    assert [len(r) for r in rows] == [len(r) for r in expected], path.name
    for row, want in zip(rows, expected):
        for cell, ref_cell in zip(row, want):
            try:
                close = abs(float(cell) - float(ref_cell)) <= 1e-12
            except ValueError:
                close = False
            assert close or cell == ref_cell, (path.name, row, want)


def test_shipped_outputs_are_the_golden_ones(tmp_path):
    outputs = _outputs(tmp_path)
    digests = json.loads(GOLDEN.read_text()).get(host_key())
    if digests is not None:
        assert {key: _sha256(path) for key, path in outputs.items()} == digests
        return
    warnings.warn(f"tests/golden.json has no digests for {host_key()!r}; "
                  "series.csv and theory.csv were compared with their copies "
                  "to 1e-12 instead", UserWarning)
    for key, path in outputs.items():
        if path.name in COPIED:
            _assert_numbers_close(path, _copy(key))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        outputs = _outputs(Path(out))
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[host_key()] = {key: _sha256(path)
                              for key, path in outputs.items()}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        COPIES.mkdir(exist_ok=True)
        for key, path in outputs.items():
            if path.name in COPIED:
                shutil.copyfile(path, _copy(key))
    print(f"digests for {host_key()!r} written to {GOLDEN}", file=sys.stderr)
