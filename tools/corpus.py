"""A fixed corpus of `dmresponse` command-line runs, and a diff of two runs.

    PYTHONPATH=src python tools/corpus.py run DIR
    python tools/corpus.py compare A B

`run` writes the corpus's input files into DIR, runs each invocation
through `dmresponse.cli.main` with DIR as the working directory, and
stores DIR/reports/NAME.json: the argv, the exit code, the report without
its `timing` section (None when a usage error exits 2 before any report is
written) and, for exit 2, the usage error. It runs
whichever `dmresponse` is importable, so one command records a parent
checkout (PYTHONPATH=<checkout>/src) and a change.

`compare` prints one line per invocation, `identical` or the dotted keys
that differ, then a summary; it exits 0 when every invocation is identical
and 1 otherwise. No digests are stored: BLAS sums differ across hosts, so
compare two runs made on one host.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

N = 40
GEN = ["--kind", "gapped_random", "--size", str(N)]
LOW = [*GEN, "--gap", "1.6"]

# each route's flags on a generated model, and the --mode values it allows; the
# SCF route runs at zero and at finite temperature
ROUTES = {
    "dense": (GEN, ("perturb", "suscept-fwd", "suscept-bwd", "both")),
    "dense_orthogonalized": (
        ["--kind", "overlap_chain", "--size", str(N)],
        ("perturb", "suscept-fwd", "suscept-bwd", "both"),
    ),
    "sparse": (
        ["--kind", "chain", "--size", str(N), "--tau", "1e-6"],
        ("perturb", "suscept-fwd", "suscept-bwd", "both"),
    ),
    "f32": ([*LOW, "--precision", "f32"], ("perturb", "suscept-fwd", "both")),
    "split16": ([*LOW, "--precision", "split16"], ("perturb", "suscept-fwd", "both")),
    "thermal": ([*GEN, "--beta-t", "20"], ("perturb", "suscept-fwd", "both")),
    "scf": ([*GEN, "--kernel", "hubbard:1"], ("perturb", "suscept-fwd", "both")),
    "scf_finite_t": (
        [*GEN, "--kernel", "hubbard:1", "--beta-t", "20"],
        ("perturb", "suscept-fwd", "both"),
    ),
}

FILES = ["--h0", "h0.mtx", "--h1", "h1.mtx", "--obs", "obs.mtx"]

INVOCATIONS = {
    **{
        f"respond-{route}-{mode}": ["respond", *flags, "--mode", mode]
        for route, (flags, modes) in ROUTES.items()
        for mode in modes
    },
    **{f"ground-state-{route}": ["ground-state", *flags] for route, (flags, _) in ROUTES.items()},
    "respond-thermal-n100-beta50": [
        "respond", "--kind", "gapped_random", "--size", "100", "--beta-t", "50", "--mode", "both"
    ],
    # a gap of 1 at beta_t = 200 leaves about exp(-100) of each state next to it
    "respond-thermal-cold": ["respond", *GEN, "--beta-t", "200", "--mode", "both"],
    "respond-scf-bilinear": ["respond", *GEN, "--kernel", "bilinear:0.3", "--mode", "both"],
    "audit-dense": ["audit", *GEN, "--seed", "3"],
    "audit-thermal": ["audit", "--kind", "gapped_random", "--size", "16", "--beta-t", "12"],
    "audit-dense_orthogonalized": ["audit", "--kind", "overlap_chain", "--size", str(N)],
    "audit-dense-nocc7": ["audit", *GEN, "--nocc", "7"],
    "audit-thermal-nocc7": ["audit", *GEN, "--beta-t", "20", "--nocc", "7"],
    "respond-dense-nocc7": ["respond", *GEN, "--nocc", "7", "--mode", "both"],
    "respond-thermal-nocc7": ["respond", *GEN, "--beta-t", "20", "--nocc", "7", "--mode", "both"],
    "respond-sparse-nocc7": ["respond", *GEN, "--nocc", "7", "--tau", "1e-9", "--mode", "both"],
    "respond-scf-nocc7": ["respond", *GEN, "--nocc", "7", "--kernel", "hubbard:1", "--mode", "both"],
    "ground-state-scf-nocc7": ["ground-state", *GEN, "--nocc", "7", "--kernel", "hubbard:1"],
    "benchmark": ["benchmark", "--sizes", "200,400"],
    "file-array-dense": ["respond", *FILES, "--mode", "both"],
    "file-array-sparse": ["respond", *FILES, "--tau", "1e-6", "--mode", "both"],
    "file-array-thermal": ["respond", *FILES, "--beta-t", "20", "--mode", "both"],
    "file-coordinate-sparse": ["respond", "--h0", "chain.mtx", "--tau", "1e-6", "--mode", "both"],
    "file-overlap-dense": ["respond", "--h0", "oc_h0.mtx", "--overlap", "s.mtx", "--mode", "both"],
    "file-overlap-scf": [
        "respond", "--h0", "oc_h0.mtx", "--overlap", "s.mtx", "--kernel", "hubbard:1",
        "--mode", "both",
    ],
    "file-overlap-scf-finite-t": [
        "respond", "--h0", "oc_h0.mtx", "--overlap", "s.mtx", "--kernel", "hubbard:1",
        "--beta-t", "20", "--mode", "both",
    ],
    "file-overlap-audit-thermal": [
        "audit", "--h0", "oc_h0.mtx", "--overlap", "s.mtx", "--beta-t", "20"
    ],
    "usage-tau-split16": [
        "respond", "--kind", "chain", "--size", "8", "--tau", "1e-6", "--precision", "split16"
    ],
    "usage-gap-too-wide": ["respond", "--kind", "gapped_random", "--size", "20", "--gap", "4"],
    "fail-unparsable-file": ["respond", "--h0", "bad.mtx"],
    "fail-spectral-bounds": ["respond", "--h0", "wide.mtx", "--mode", "both"],
}


def write_inputs(directory: Path) -> None:
    """The array, coordinate and overlap files the file invocations read."""
    from dmresponse import models
    from dmresponse.mmio import write_matrix_market
    from dmresponse.sparse import sparsify

    rng = np.random.default_rng(5)
    sym = lambda x: x + x.T  # noqa: E731
    h_oc, s = models.overlap_chain_matrices(N, 1.0, 0.2)
    for name, m in {
        "h0.mtx": models.gapped_random_hamiltonian(N, 1.0, N // 2, seed=5),
        "h1.mtx": sym(rng.standard_normal((N, N))),
        "obs.mtx": sym(rng.standard_normal((N, N))),
        "chain.mtx": sparsify(models.chain_hamiltonian(N, 1.0), 0.0),
        "oc_h0.mtx": h_oc,
        "s.mtx": s,
    }.items():
        write_matrix_market(str(directory / name), m)
    header = "%%MatrixMarket matrix array real general\n2 2\n"
    (directory / "bad.mtx").write_text(header + "1\n0\nbogus\n1\n")
    (directory / "wide.mtx").write_text(header + "1\n1e308\n1e308\n1\n")


def _invoke(argv: list[str]) -> dict:
    """One run of cli.main in the working directory, as a record."""
    from dmresponse import cli

    out = Path("out.json")
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        report.pop("timing", None)
    lines = stderr.getvalue().strip().splitlines()
    usage_error = lines[-1] if code == 2 and lines else None
    return {"argv": argv, "exit_code": code, "report": report, "usage_error": usage_error}


def run(directory: Path) -> None:
    (directory / "reports").mkdir(parents=True, exist_ok=True)
    directory = directory.resolve()
    home = os.getcwd()
    os.chdir(directory)
    try:
        write_inputs(directory)
        for name, argv in INVOCATIONS.items():
            record = _invoke(argv)
            text = json.dumps(record, indent=1, sort_keys=True)
            (directory / "reports" / f"{name}.json").write_text(text + "\n")
            print(f"{name}: exit {record['exit_code']}")
        Path("out.json").unlink(missing_ok=True)
    finally:
        os.chdir(home)


_MISSING = object()


def differing_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths at which two JSON values differ; leaves are compared as
    serialized, so 1 and 1.0, or 0.0 and -0.0, differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b))
        pairs = [(key, a.get(key, _MISSING), b.get(key, _MISSING)) for key in keys]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = list(zip(range(len(a)), a, b))
    else:
        same = a is not _MISSING and b is not _MISSING and json.dumps(a) == json.dumps(b)
        return [] if same else [prefix.rstrip(".")]
    return [k for key, x, y in pairs for k in differing_keys(x, y, f"{prefix}{key}.")]


def compare(a: Path, b: Path) -> int:
    def records(directory):
        paths = sorted((directory / "reports").glob("*.json"))
        return {p.stem: json.loads(p.read_text()) for p in paths}

    left, right = records(a), records(b)
    identical = differ = missing = exit_changed = 0
    for name in sorted(set(left) | set(right)):
        if name not in left or name not in right:
            missing += 1
            print(f"{name}: missing from {a if name not in left else b}")
            continue
        keys = differing_keys(left[name], right[name])
        exit_changed += "exit_code" in keys
        if keys:
            differ += 1
            print(f"{name}: differs in {', '.join(keys)}")
        else:
            identical += 1
            print(f"{name}: identical")
    print(
        f"{identical + differ + missing} invocations: {identical} identical, {differ} differ, "
        f"{missing} missing; {exit_changed} exit codes changed"
    )
    return 0 if differ == missing == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="corpus", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the corpus into DIR")
    run_p.add_argument("directory", type=Path, metavar="DIR")
    cmp_p = sub.add_parser("compare", help="diff the records of two runs")
    cmp_p.add_argument("a", type=Path, metavar="A")
    cmp_p.add_argument("b", type=Path, metavar="B")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.directory)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
