"""Byte-for-byte golden outputs: sweep and fig6 CSVs, scheme rows, mixed-input runs and optima.

These pin what no other test does: the packed `params` column, the argmax
and tie-break of every optimizable scheme (the fig6 `eta_opt` and `p_opt`
columns included), and the exact float text. Outputs that the benchmark's
reference tables in perfbench/ref already hold (the tiny fig6 CSVs and the
post-selected tiny sweeps in REF_TABLES, the full-size post-selected sweeps
here and the default-grid fig6 CSVs in tests/test_acceptance.py) are compared
with those tables, which only perfbench/make_refs.py writes. The files in
tests/golden/ are written by running this module as a script, all of them or
only the ones named:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]   # e.g. scheme_qffc_ps.csv

Regenerating a golden file is a behaviour change and needs a CHANGES.md entry
saying why. Before writing, the report mode regenerates the named outputs (all
by default) in memory, writes nothing, and prints one Markdown table of how
each differs from the bytes it is compared with, per column (each key=value of
a ;-joined field is a column of its own); it exits 1 when a float moved by more
than REPORT_ATOL or any other field changed:

    PYTHONPATH=src python tests/test_golden.py --report [NAME ...]
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from decoguard import GridSpec, bloch_to_density, make_channel, optimize_scheme, schemes
from decoguard.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH_REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref"

SWEEP_FLAGS = ("--phi", "0.25pi", "--angle-count", "4", "--alpha-count", "2",
               "--r-count", "3", "--workers", "1")
# every optimizable scheme with every noise kind it accepts
SWEEP_CASES = tuple((s, n) for s in ("qfbc", "qffc_rot", "wmppf") for n in ("ad", "pd")) \
    + tuple((s, "ad") for s in ("wmqmr", "qffc_ps", "composite"))

FIG6_FLAGS = ("--angle-count", "4", "--alpha-count", "3", "--r-count", "3", "--workers", "1")
FIG6_NAMES = tuple(f"fig6_{n}_phi{t}.csv" for n in ("ad", "pd") for t in ("0pi", "0.25pi", "0.5pi"))
# outputs of the tiny benchmark commands, by output name -> reference table
REF_TABLES = {**{name: PERFBENCH_REF / "tiny" / f"{name}.gz" for name in FIG6_NAMES},
              **{f"sweep_{s}_ad.csv": PERFBENCH_REF / "tiny" / f"sweep_{s}.csv.gz"
                 for s in ("wmqmr", "qffc_ps", "composite")}}

SCHEME_CASES = {
    "wmqmr_state": ("--kind", "wmqmr", "--r", "0.5", "--p1", "0.8", "--state", "+x"),
    "wmqmr_p2": ("--kind", "wmqmr", "--r", "0.3", "--p1", "0.6", "--p2", "0.5",
                 "--alpha", "0.3", "--phi", "0.25pi"),
    "qfbc_axes": ("--kind", "qfbc", "--noise", "ad", "--r", "0.4", "--theta", "0.2pi",
                  "--eta", "0.1pi", "--meas-axis", "x", "--rot-axis", "y",
                  "--alpha", "0.2pi", "--phi", "0.5pi"),
    "qfbc_negative_eta": ("--kind", "qfbc", "--noise", "pd", "--r", "0.3",
                          "--theta", "0.25pi", "--eta=-0.15pi", "--state", "+x"),
    "qfbc_beta": ("--kind", "qfbc", "--noise", "pd", "--r", "0.2", "--theta", "0.3",
                  "--eta", "0.2", "--beta", "0.5", "--alpha", "0.4"),
    "qffc_ps": ("--kind", "qffc_ps", "--r", "0.6", "--p", "0.7", "--alpha", "0.3pi"),
    "qffc_ps_post": ("--kind", "qffc_ps", "--r", "0.6", "--p", "0.7", "--p-u", "0.2",
                     "--p-v", "0.4", "--alpha", "0.1pi", "--phi", "0.5pi"),
    "qffc_rot": ("--kind", "qffc_rot", "--noise", "pd", "--r", "0.5", "--p", "0.8",
                 "--eta", "0.1pi", "--signs=-+", "--alpha", "0.2pi"),
    "wmppf_identity": ("--kind", "wmppf", "--noise", "identity", "--r", "0", "--p", "0.7",
                       "--state", "+y"),
    "wmppf_ad": ("--kind", "wmppf", "--noise", "ad", "--r", "0.7", "--p", "0.9",
                 "--alpha", "0.25pi"),
    "composite": ("--kind", "composite", "--r", "0.5", "--p", "0.8", "--eta", "0.05pi",
                  "--signs=+-", "--alpha", "0.1pi"),
    "ent_wmqmr_both": ("--kind", "ent_wmqmr", "--r1", "0.6", "--r2", "0.3", "--p1", "0.8",
                       "--side", "both"),
    "ent_wmqmr_p2": ("--kind", "ent_wmqmr", "--r", "0.5", "--p1", "0.7", "--p2", "0.6"),
}

# Bloch vectors of four mixed states, drawn once from a seeded generator and
# written out so the inputs do not depend on the generator's stream
MIXED_BLOCH = ((0.412553, -0.215791, 0.538127), (-0.127405, 0.683962, -0.301447),
               (0.052218, 0.097316, -0.781044), (-0.563372, -0.402958, 0.118235))
OPT_CASES = tuple((k, n) for k in ("qfbc", "qffc_rot", "wmppf") for n in ("ad", "pd")) \
    + tuple((k, "ad") for k in ("wmqmr", "qffc_ps", "composite"))
OPT_R = {"ad": 0.45, "pd": 0.3}

# the post-selected pipelines on the MIXED_BLOCH states, by kind and keywords
RUN_CASES = (("wmqmr", {"r": 0.45, "p1": 0.6}), ("wmqmr", {"r": 0.45, "p1": 0.6, "p2": 0.3}),
             ("qffc_ps", {"r": 0.45, "p": 0.7}),
             ("qffc_ps", {"r": 0.45, "p": 0.7, "p_u": 0.2, "p_v": 0.4}),
             ("composite", {"r": 0.45, "p": 0.8, "eta": 0.3}),
             ("composite", {"r": 0.45, "p": 0.6, "eta": 0.7, "p_u": 0.5, "p_v": 0.1,
                            "signs": (-1, 1)}))
# a full-rank two-qubit state (eigenvalues 0.039 to 0.681, concurrence 0.365)
FULL_RANK_2Q = ((0.4, 0.05 + 0.02j, -0.03j, 0.3),
                (0.05 - 0.02j, 0.15, 0.04, 0.01 + 0.03j),
                (0.03j, 0.04, 0.1, -0.02 + 0.01j),
                (0.3, 0.01 - 0.03j, -0.02 - 0.01j, 0.35))
ENT_CASES = ({"r1": 0.3, "r2": 0.5, "p1": 0.4, "side": "both"},
             {"r1": 0.6, "r2": 0.2, "p1": 0.7, "p2": 0.6, "side": "both"})


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def _text(value) -> str:
    if isinstance(value, tuple):
        return "|".join(_text(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@functools.cache
def _fig6_texts() -> dict[str, str]:
    """Every fig6 CSV of one TINY-grid run, by file name."""
    with tempfile.TemporaryDirectory() as outdir:
        _cli_stdout(("fig6", "--outdir", outdir, *FIG6_FLAGS))
        return {name: (Path(outdir) / name).read_bytes().decode("utf-8") for name in FIG6_NAMES}


def _optimize_text(kind: str, noise_kind: str) -> str:
    grid = GridSpec.default(angle_count=4, alpha_count=2, r_count=3)
    noise = make_channel(noise_kind, OPT_R[noise_kind])
    lines = []
    for i, bloch in enumerate(MIXED_BLOCH):
        res = optimize_scheme(kind, bloch_to_density(bloch), noise, grid)
        params = ";".join(f"{k}={_text(v)}" for k, v in sorted(res.params.items()))
        lines.append(f"{i},{_text(res.f_opt)},{_text(res.success_prob)},{params}\n")
    return "".join(lines)


def _run_mixed_text() -> str:
    """Fidelity, success, concurrence and every branch label and weight of
    the post-selected run_* pipelines on mixed inputs."""
    calls = [(kind, i, bloch_to_density(bloch), kw) for kind, kw in RUN_CASES
             for i, bloch in enumerate(MIXED_BLOCH)]
    calls += [("ent_wmqmr", 0, np.array(FULL_RANK_2Q), kw) for kw in ENT_CASES]
    lines = []
    for kind, i, rho, kw in calls:
        res = getattr(schemes, f"run_{kind}")(rho, **kw)
        params = ";".join(f"{k}={_text(v)}" for k, v in sorted(kw.items()))
        branches = ";".join(f"{b.label}={_text(b.weight)}" for b in res.branches.branches)
        lines.append(f"{kind},{i},{params},{_text(res.fidelity)},{_text(res.success_prob)},"
                     f"{_text(res.concurrence)},{branches}\n")
    return "".join(lines)


def _outputs() -> dict[str, object]:
    """Golden file name -> thunk producing its text."""
    out = {}
    for scheme, noise in SWEEP_CASES:
        out[f"sweep_{scheme}_{noise}.csv"] = (
            lambda s=scheme, n=noise: _cli_stdout(("sweep", "--scheme", s, "--noise", n,
                                                   *SWEEP_FLAGS)))
    for name in FIG6_NAMES:
        out[name] = lambda n=name: _fig6_texts()[n]
    for name, argv in SCHEME_CASES.items():
        out[f"scheme_{name}.csv"] = lambda a=argv: _cli_stdout(("scheme", *a))
    for kind, noise in OPT_CASES:
        out[f"optimize_mixed_{kind}_{noise}.txt"] = (
            lambda k=kind, n=noise: _optimize_text(k, n))
    out["run_mixed_postselected.txt"] = _run_mixed_text
    return out


OUTPUTS = _outputs()


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_matches_golden(name):
    ref = REF_TABLES.get(name)
    expected = gzip.decompress(ref.read_bytes()) if ref else (GOLDEN / name).read_bytes()
    assert OUTPUTS[name]().encode("utf-8") == expected


@pytest.mark.parametrize("scheme", ("wmqmr", "qffc_ps", "composite"))
def test_full_sweep_matches_perfbench_ref(scheme, tmp_path):
    # the sweep-postselected benchmark command; its argmax columns are pinned nowhere else
    out = tmp_path / f"sweep_{scheme}.csv"
    assert main(["sweep", "--scheme", scheme, "--noise", "ad", "--phi", "0.25pi",
                 "--angle-count", "7", "--alpha-count", "6", "--r-count", "8",
                 "--workers", "1", "--out", str(out)]) == 0
    full = gzip.decompress((PERFBENCH_REF / "full" / f"{out.name}.gz").read_bytes())
    assert out.read_bytes() == full


def test_no_stray_golden_files():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(OUTPUTS.keys() - REF_TABLES.keys())


REPORT_ATOL = 1e-12   # a float that moved further is a value change, not round-off
# the columns of the headerless .txt goldens, by file name prefix (a .csv names its own)
TXT_COLUMNS = {"optimize_mixed_": ("state", "f_opt", "success_prob", "params"),
               "run_mixed_": ("kind", "state", "params", "fidelity", "success_prob",
                              "concurrence", "branches")}


def _cells(row: str, names) -> list[tuple[str, str]]:
    """The (column, text) cells of one row; each key=value of a ;-joined field is its own."""
    cells = []
    for i, field in enumerate(row.split(",")):
        name = names[i] if i < len(names) else str(i)
        items = [item.partition("=") for item in field.split(";")]
        if all(eq for _, eq, _ in items):
            cells += [(f"{name}.{key}", value) for key, _, value in items]
        else:
            cells.append((name, field))
    return cells


def _delta(a: str | None, b: str | None) -> float | None:
    """The largest |a - b| over two cells' |-joined numbers (nan equals nan), None unless
    both are numbers of the same count."""
    try:
        pairs = list(zip_longest(map(float, a.split("|")), map(float, b.split("|"))))
    except (AttributeError, TypeError, ValueError):
        return None
    if any(x is None or y is None for x, y in pairs):
        return None
    return max(0.0 if x == y or math.isnan(x) and math.isnan(y)
               else math.inf if math.isnan(x - y) else abs(x - y) for x, y in pairs)


def _column_changes(old: str, new: str, names) -> dict[str, list]:
    """column -> [changed rows, largest |delta| of a float cell, changed non-float cells],
    for the columns where new differs from old; cells are compared by position."""
    changes = {}
    for a, b in zip_longest(old.splitlines(), new.splitlines(), fillvalue=""):
        if a == b:
            continue
        for (col, x), (col_b, y) in zip_longest(_cells(a, names), _cells(b, names),
                                                fillvalue=(None, None)):
            if col == col_b and x == y:
                continue
            change = changes.setdefault(col or col_b, [0, 0.0, 0])
            change[0] += 1
            d = _delta(x, y) if col == col_b else None
            if d is None:
                change[2] += 1
            else:
                change[1] = max(change[1], d)
    return changes


def _report(names) -> int:
    """Print the regeneration report of the named outputs; 1 if any change fails it."""
    unknown = sorted(set(names) - set(OUTPUTS))
    if unknown:
        raise SystemExit(f"unknown golden files: {', '.join(unknown)}")
    lines = ["| file | column | changed rows | max abs delta | changed non-float cells |",
             "|---|---|---|---|---|"]
    failed = False
    for name in names:
        ref = REF_TABLES.get(name)
        old = (gzip.decompress(ref.read_bytes()) if ref else (GOLDEN / name).read_bytes()).decode()
        columns = (old.split("\n", 1)[0].split(",") if name.endswith(".csv") else
                   next(v for k, v in TXT_COLUMNS.items() if name.startswith(k)))
        changes = _column_changes(old, OUTPUTS[name](), columns)
        lines += [f"| {name} | unchanged | 0 | 0 | 0 |"] if not changes else [
            f"| {name} | {col} | {rows} | {delta:.2g} | {other} |"
            for col, (rows, delta, other) in changes.items()]
        failed |= any(delta > REPORT_ATOL or other for _, delta, other in changes.values())
    print("\n".join(lines))
    return int(failed)


REPORT_SAMPLE = ("scheme_qffc_ps.csv", "optimize_mixed_wmqmr_ad.txt", "run_mixed_postselected.txt",
                 "sweep_wmqmr_ad.csv")   # one of each kind, the last read from perfbench/ref


def test_report_reads_unchanged(capsys):
    assert _report(REPORT_SAMPLE) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows == [f"| {name} | unchanged | 0 | 0 | 0 |" for name in REPORT_SAMPLE]


def test_report_fails_a_moved_float_or_a_changed_field(monkeypatch, capsys):
    name = "optimize_mixed_wmqmr_ad.txt"
    first, rest = (GOLDEN / name).read_text().split("\n", 1)
    row = first.split(",")
    for shift, delta, failed in ((1e-9, "1e-09", 1), (1e-15, "1e-15", 0)):
        moved = ",".join([row[0], repr(float(row[1]) + shift), *row[2:]])
        monkeypatch.setitem(OUTPUTS, name, lambda m=moved: f"{m}\n{rest}")
        assert _report([name]) == failed
        assert capsys.readouterr().out.splitlines()[2:] == [f"| {name} | f_opt | 1 | {delta} | 0 |"]
    old = "a,b,params\n0,0.5,eta=0.1|-0.1;axis=x;p=nan\n1,2,p=1\n"
    new = "a,b,params\n0,0.5,eta=0.1|-0.3;axis=y;p=nan\n"
    assert _column_changes(old, new, ("a", "b", "params")) == {
        "params.eta": [1, 0.19999999999999998, 0], "params.axis": [1, 0.0, 1],
        "a": [1, 0.0, 1], "b": [1, 0.0, 1], "params.p": [1, 0.0, 1]}   # the row that went


def test_report_runs_as_a_script():
    out = subprocess.run([sys.executable, __file__, "--report", "scheme_composite.csv"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert (out.returncode, out.stdout.splitlines()[2:]) == (
        0, ["| scheme_composite.csv | unchanged | 0 | 0 | 0 |"])


def _write_goldens(names):
    """Rewrite the named files of tests/golden/."""
    refs = sorted(set(names) & {*REF_TABLES, *(f"default_{n}.gz" for n in FIG6_NAMES)})
    if refs:
        raise SystemExit(f"{', '.join(refs)}: compared with the benchmark's reference "
                         "tables in perfbench/ref, which perfbench/make_refs.py writes")
    unknown = sorted(set(names) - set(OUTPUTS))
    if unknown:
        raise SystemExit(f"unknown golden files: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_bytes(OUTPUTS[name]().encode("utf-8"))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--report"]:
        sys.exit(_report(sys.argv[2:] or sorted(OUTPUTS)))
    _write_goldens(sys.argv[1:] or sorted(OUTPUTS.keys() - REF_TABLES.keys()))
