"""Byte-for-byte golden outputs: sweep and fig6 CSVs, scheme rows, mixed-input runs and optima.

These pin what no other test does: the packed `params` column, the argmax
and tie-break of every optimizable scheme (the fig6 `eta_opt` and `p_opt`
columns included), and the exact float text. The gzip-compressed
default-grid fig6 CSVs (default_fig6_*.csv.gz) are compared with the
default-grid run that tests/test_acceptance.py makes anyway. The files in
tests/golden/ are written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py

Regenerating a golden file is a behaviour change and needs a CHANGES.md entry
saying why.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from decoguard import GridSpec, bloch_to_density, make_channel, optimize_scheme, schemes
from decoguard.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_FLAGS = ("--phi", "0.25pi", "--angle-count", "4", "--alpha-count", "2",
               "--r-count", "3", "--workers", "1")
# every optimizable scheme with every noise kind it accepts
SWEEP_CASES = tuple((s, n) for s in ("qfbc", "qffc_rot", "wmppf") for n in ("ad", "pd")) \
    + tuple((s, "ad") for s in ("wmqmr", "qffc_ps", "composite"))

FIG6_FLAGS = ("--angle-count", "4", "--alpha-count", "3", "--r-count", "3", "--workers", "1")
FIG6_NAMES = tuple(f"fig6_{n}_phi{t}.csv" for n in ("ad", "pd") for t in ("0pi", "0.25pi", "0.5pi"))
FIG6_DEFAULT_GOLDENS = {f"default_{name}.gz": name for name in FIG6_NAMES}

SCHEME_CASES = {
    "wmqmr_theta": ("--kind", "wmqmr", "--r", "0.5", "--p1", "0.8", "--theta", "0.3",
                    "--state", "+x"),
    "wmqmr_p2": ("--kind", "wmqmr", "--r", "0.3", "--p1", "0.6", "--p2", "0.5",
                 "--alpha", "0.3", "--phi", "0.25pi"),
    "qfbc_axes": ("--kind", "qfbc", "--noise", "ad", "--r", "0.4", "--theta", "0.2pi",
                  "--eta", "0.1pi", "--meas-axis", "x", "--rot-axis", "y",
                  "--alpha", "0.2pi", "--phi", "0.5pi"),
    "qfbc_sign_binding": ("--kind", "qfbc", "--noise", "pd", "--r", "0.3",
                          "--theta", "0.25pi", "--eta", "0.15pi", "--sign-binding", "-",
                          "--state", "+x"),
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


def _fig6_bytes(*flags) -> dict[str, bytes]:
    """Every fig6 CSV of one run with the given flags, by file name."""
    with tempfile.TemporaryDirectory() as outdir:
        _cli_stdout(("fig6", "--outdir", outdir, *flags))
        return {name: (Path(outdir) / name).read_bytes() for name in FIG6_NAMES}


@functools.cache
def _fig6_texts() -> dict[str, str]:
    """Every fig6 CSV of one TINY-grid run, by file name."""
    return {name: text.decode("utf-8") for name, text in _fig6_bytes(*FIG6_FLAGS).items()}


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
    expected = (GOLDEN / name).read_bytes()
    assert OUTPUTS[name]().encode("utf-8") == expected


def test_no_stray_golden_files():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*OUTPUTS, *FIG6_DEFAULT_GOLDENS])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in OUTPUTS.items():
        (GOLDEN / name).write_bytes(produce().encode("utf-8"))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
    default_csvs = _fig6_bytes()
    for name, csv_name in FIG6_DEFAULT_GOLDENS.items():
        (GOLDEN / name).write_bytes(gzip.compress(default_csvs[csv_name], mtime=0))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
