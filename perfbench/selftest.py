"""Tests of the benchmark itself (kept out of the package's test suite):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import gzip
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = tracer.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {k: unit for k, (unit, _) in spec.items()}
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0 or \
            name == "trace.overhead_frac"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_emitted_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracer.PER_LAYER
    names = [w["name"] for w in bench["workloads"]] + [
        m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_runs_fail_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "library-mixed", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _copy_refs(dest: Path) -> Path:
    shutil.copytree(workloads.REF_DIR / "tiny", dest / "tiny")
    return dest


def _rewrite_ref(ref_dir: Path, name: str, column: str, edit):
    text = workloads.read_ref("tiny", name, ref_dir)
    lines = text.splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[2].rstrip("\n").split(",")
    cells[col] = edit(cells[col])
    lines[2] = ",".join(cells) + "\n"
    with gzip.open(ref_dir / "tiny" / f"{name}.gz", "wt", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


@pytest.mark.parametrize("workload, column, edit", [
    ("fig6-default", "f_diff", lambda v: f"{float(v) + 1e-9:.12g}"),
    ("fig6-default", "meas_axis", lambda v: "z" if v != "z" else "x"),
    ("sweep-postselected", "success_prob", lambda v: f"{float(v) + 1e-9:.12g}"),
    ("sweep-postselected", "params", lambda v: v.replace("=", "=1", 1)),
])
def test_perturbed_reference_cell_is_a_failure(tmp_path, workload, column, edit):
    from decoguard import cli
    outdir = tmp_path / "out"
    cmds = workloads.cli_commands(workload, "tiny", None, outdir)
    for cmd in cmds:
        assert cli.main(list(cmd.argv)) == 0
    ref_dir = _copy_refs(tmp_path / "ref")
    assert sum(workloads.check_command(c, "tiny", outdir, ref_dir)[1] for c in cmds) == 0
    _rewrite_ref(ref_dir, cmds[0].outputs[0], column, edit)
    attempted, failed = workloads.check_command(cmds[0], "tiny", outdir, ref_dir)
    assert (attempted, failed) == (cmds[0].cells, 1)


def test_float_columns_tolerate_only_1e_12():
    ref = "a,f\n1,0.5\n"
    assert workloads.compare_table(ref, "a,f\n1,0.500000000001\n", ("f",)) == (1, 0)
    assert workloads.compare_table(ref, "a,f\n1,0.500000000002\n", ("f",)) == (1, 1)
    assert workloads.compare_table(ref, "a,f\n2,0.5\n", ("f",)) == (1, 1)
    assert workloads.compare_table(ref, "a,f\n", ("f",)) == (1, 1)


def test_optimum_oracle_accepts_any_search_space_and_rejects_a_wrong_optimum(monkeypatch):
    from decoguard import channels, optimize, schemes
    item = workloads.library_inputs(3, "tiny")[0]
    noise = channels.make_channel(item.noise_kind, item.r)
    grid = optimize.GridSpec.default(angle_count=4)
    assert workloads.optimum_ok("qfbc", item.rho, noise, grid)
    # an independent-eta search reporting its own argmax must still pass
    params = {"theta": grid.theta[1], "etas": (grid.eta[2], -grid.eta[1]),
              "meas_axis": "x", "rot_axis": "y"}
    f = schemes.run_qfbc(item.rho, noise, **params).fidelity
    for f_opt, expected in ((f, True), (f + 1e-6, False)):
        monkeypatch.setattr(optimize, "optimize_qfbc",
                            lambda *a, f_opt=f_opt: optimize.OptResult(f_opt, params, 1.0))
        assert workloads.optimum_ok("qfbc", item.rho, noise, grid) is expected


def test_tracer_rebinds_every_binding_site_and_restores_them():
    import decoguard
    from decoguard import cli, optimize, qmath, schemes
    originals = (qmath.check_density, optimize.check_density, cli.check_density,
                 optimize.run_qfbc, schemes.run_qfbc, decoguard.run_qfbc)
    t = tracer.Tracer()
    t.install()
    try:
        assert optimize.check_density is qmath.check_density is cli.check_density
        assert optimize.run_qfbc is schemes.run_qfbc is decoguard.run_qfbc
        assert qmath.check_density is not originals[0]
        state = qmath.state_from_angles(qmath.InitialState(alpha=0.3, phi=0.0))
        optimize.optimize_qffc_rot(state, decoguard.make_channel("ad", 0.2),
                                   optimize.GridSpec.default(angle_count=4))
    finally:
        t.uninstall()
    assert (qmath.check_density, optimize.check_density, cli.check_density,
            optimize.run_qfbc, schemes.run_qfbc, decoguard.run_qfbc) == originals
    calls, _, _ = tracer.aggregate(t.spans)
    assert calls["optimize.optimize_qffc_rot"] == 1
    assert calls["qmath.check_density"] >= 1 and calls["measurements.rotation"] >= 1


def test_self_time_subtracts_direct_children_only():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    calls, self_s, inclusive = tracer.aggregate(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert inclusive == pytest.approx({"a": 10.0, "b": 4.0, "c": 1.0})


def test_tail_keeps_ten_samples_beyond():
    assert tracer.tail(list(range(20)))[0] == 50.0
    assert tracer.tail(list(range(144)))[0] == 90.0
    assert tracer.tail(list(range(5580)))[0] == 99.0
    assert tracer.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
