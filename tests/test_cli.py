import numpy as np
import pytest

from decoguard import optimize
from decoguard.cli import load_config, main, parse_angle, parse_signs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestParsing:
    def test_angle_pi_suffix(self):
        assert parse_angle("0.25pi") == pytest.approx(np.pi / 4)
        assert parse_angle("pi") == pytest.approx(np.pi)
        assert parse_angle("1.5") == pytest.approx(1.5)
        with pytest.raises(Exception):
            parse_angle("quarter")

    def test_signs(self):
        assert parse_signs("+-") == (1, -1)
        assert parse_signs("--") == (-1, -1)
        with pytest.raises(Exception):
            parse_signs("+?")


class TestChannelCommand:
    def test_pd_dephasing_off_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--kind", "pd", "--r", "0.75",
                               "--state", "+x")
        assert code == 0
        header, rows = csv_rows(out)
        out_row = dict(zip(header, rows[1]))
        assert out_row["row"] == "output"
        assert float(out_row["re01"]) == pytest.approx(0.25, abs=1e-12)
        assert float(out_row["bloch_x"]) == pytest.approx(0.5, abs=1e-12)

    def test_ad_full_decay(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--kind", "ad", "--r", "1",
                               "--state", "+z-excited")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[1][1:5] == ["1", "0", "0", "0"]  # re00=1, rest of top row 0

    def test_zero_damping_rows_identical(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--kind", "pd", "--r", "0",
                               "--state", "+y")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][1:] == rows[1][1:]  # bitwise equal apart from the label

    def test_lambda_parameterization_matches_r(self, capsys):
        # r = sin^2(pi/4) differs from 0.5 only at machine precision
        _, out_r, _ = run_cli(capsys, "channel", "--kind", "pd", "--r", "0.5",
                              "--state", "+x")
        _, out_lam, _ = run_cli(capsys, "channel", "--kind", "pd", "--lam", "0.5pi",
                                "--state", "+x")
        _, rows_r = csv_rows(out_r)
        _, rows_lam = csv_rows(out_lam)
        for a, b in zip(rows_r[1][1:], rows_lam[1][1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-12)

    def test_rate_parameterization(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--kind", "ad", "--gamma",
                               str(np.log(2) / 2), "--time", "1", "--state", "+x")
        assert code == 0  # r = 0.5

    @pytest.mark.parametrize("command", (("channel", "--kind", "ad"), ("scheme", "--kind", "wmppf",
                                                                       "--p", "0.5")))
    def test_time_without_gamma_rejected(self, capsys, command):
        # --time alone must not fall back to r = 0, the do-nothing channel
        code, out, err = run_cli(capsys, *command, "--time", "2", "--state", "+x")
        assert code == 1 and out == ""
        assert err.startswith("error: --time needs --gamma")

    @pytest.mark.parametrize("flags, named", (
        (("--kind", "ad", "--lam", "0.5pi"), "--lam"),
        (("--kind", "pd", "--gamma", "1"), "--gamma"),
        (("--kind", "pd", "--gamma", "1", "--time", "0.5"), "--gamma"),
        (("--kind", "identity", "--r", "0.7"), "identity"),
        (("--kind", "identity", "--lam", "0.2pi"), "identity"),
    ))
    def test_parameterization_of_another_kind_rejected(self, capsys, flags, named):
        # each applied some channel at a derived r, or none at all, and exited 0
        code, out, err = run_cli(capsys, "channel", *flags, "--state", "+x")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("flags, named", (
        (("--kind", "wmqmr", "--p1", "0.5", "--lam", "0.5pi"), "--lam"),
        (("--kind", "wmppf", "--p", "0.5", "--noise", "ad", "--lam", "0.5pi"), "--lam"),
        (("--kind", "qffc_rot", "--p", "0.5", "--eta", "0.1", "--noise", "pd",
          "--gamma", "1", "--time", "0.5"), "--gamma"),
        (("--kind", "wmppf", "--p", "0.5", "--noise", "identity", "--r", "0.7"), "identity"),
    ))
    def test_scheme_checks_parameterization_against_noise(self, capsys, flags, named):
        code, out, err = run_cli(capsys, "scheme", *flags, "--state", "+x")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", (("channel", "--kind", "identity"),
                                         ("scheme", "--kind", "wmppf", "--p", "0.5",
                                          "--noise", "identity")))
    def test_identity_accepts_zero_r(self, capsys, command):
        code, out, _ = run_cli(capsys, *command, "--r", "0", "--state", "+x")
        assert code == 0 and out

    def test_conflicting_parameterizations_rejected(self, capsys):
        code, _, err = run_cli(capsys, "channel", "--kind", "pd", "--r", "0.2",
                               "--lam", "0.1pi", "--state", "+x")
        assert code == 1 and "one of" in err

    def test_unknown_state_token(self, capsys):
        code, _, err = run_cli(capsys, "channel", "--kind", "pd", "--r", "0.2",
                               "--state", "+w")
        assert code == 1 and "state" in err

    def test_angles_select_state(self, capsys):
        code, out, _ = run_cli(capsys, "channel", "--kind", "identity",
                               "--alpha", "0.5pi", "--phi", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][-1]) == pytest.approx(1.0)  # bloch_z of |0>


class TestSchemeCommand:
    def test_wmqmr_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "scheme", "--kind", "wmqmr", "--r", "0",
                               "--p1", "0", "--p2", "0", "--state", "+x")
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert row["fidelity"] == "1" and row["success_prob"] == "1"

    def test_qffc_rot_ground_immunity(self, capsys):
        code, out, _ = run_cli(capsys, "scheme", "--kind", "qffc_rot", "--noise", "ad",
                               "--r", "0.9", "--p", "1", "--eta", "0",
                               "--state", "+z")
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["fidelity"]) == pytest.approx(1.0, abs=1e-12)

    def test_wmppf_success_column_is_one(self, capsys):
        for r in ("0.1", "0.6", "0.95"):
            code, out, _ = run_cli(capsys, "scheme", "--kind", "wmppf", "--noise",
                                   "ad", "--r", r, "--p", "0.8", "--alpha", "0.3")
            assert code == 0
            header, rows = csv_rows(out)
            assert dict(zip(header, rows[0]))["success_prob"] == "1"

    def test_ent_scheme_reports_concurrence(self, capsys):
        code, out, _ = run_cli(capsys, "scheme", "--kind", "ent_wmqmr",
                               "--r1", "0.6", "--r2", "0.6", "--p1", "0.8")
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["concurrence"]) > 0.4
        assert float(row["success_prob"]) < 1.0

    def test_missing_parameter_reported(self, capsys):
        code, _, err = run_cli(capsys, "scheme", "--kind", "qffc_rot", "--noise",
                               "ad", "--r", "0.5", "--state", "+x")
        assert code == 1 and "missing" in err

    def test_probability_validation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scheme", "--kind", "wmppf", "--noise", "ad", "--r", "1.5",
                  "--p", "0.5"])
        assert exc.value.code == 2


_WMPPF = ("scheme", "--kind", "wmppf", "--p", "0.5", "--out")


class TestConfigFile:
    def test_config_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nkind = pd\nr = 0.75\nstate = +x\n")
        code, out, _ = run_cli(capsys, "channel", "--config", str(cfg))
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[1][3]) == pytest.approx(0.25, abs=1e-12)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = pd\nr = 0.75\nstate = +x\n")
        code, out, _ = run_cli(capsys, "channel", "--config", str(cfg), "--r", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][1:] == rows[1][1:]

    def test_time_without_gamma_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = ad\ntime = 2\nstate = +x\n")
        code, out, err = run_cli(capsys, "channel", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: --time needs --gamma")

    def test_parameterization_of_another_kind_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = ad\nlam = 0.5pi\nstate = +x\n")
        code, out, err = run_cli(capsys, "channel", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: --lam")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = pd\nbogus_knob = 3\n")
        code, _, err = run_cli(capsys, "channel", "--config", str(cfg), "--r", "0")
        assert code == 1 and "bogus_knob" in err

    @pytest.mark.parametrize("command, line, message", (
        (_WMPPF, "r = 2", "r: probability '2' outside"),
        (_WMPPF, "alpha = abc", "alpha: invalid angle 'abc'"),
        (("fig6", "--outdir"), "noise = identity", "noise: invalid choice 'identity'"),
    ), ids=("r-out-of-range", "alpha-not-an-angle", "noise-not-a-choice"))
    def test_value_checked_as_its_flag(self, capsys, tmp_path, command, line, message):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(line + "\n")
        code, stdout, err = run_cli(capsys, *command, str(out), "--config", str(cfg))
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {cfg}: {message}")
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind pd\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))


class TestHelp:
    @pytest.mark.parametrize("cmd", ["channel", "scheme", "sweep", "fig6"])
    def test_help_mentions_units(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "radians" in text or "probability" in text or "[0, 1]" in text


class TestSweepCommand:
    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scheme", "wmppf", "--noise", "ad",
                               "--angle-count", "4", "--alpha-count", "3",
                               "--r-count", "3")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3 * 3

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--scheme", "qffc_rot", "--noise", "pd",
                             "--angle-count", "4", "--alpha-count", "2",
                             "--r-count", "3", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        assert out_path.read_text().startswith("alpha,phi,r,noise,scheme,")

    def test_wrong_channel_rejected_before_any_row(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(optimize, "_run_surfaces", lambda *args: ran.append(args))
        code, _, err = run_cli(capsys, "sweep", "--scheme", "wmqmr", "--noise", "pd",
                               "--angle-count", "4", "--alpha-count", "2", "--r-count", "3")
        assert code == 1
        assert "wmqmr optimization needs an amplitude-damping channel" in err
        assert ran == []


class TestFig6Command:
    def test_six_files_and_determinism(self, capsys, tmp_path):
        args = ["fig6", "--angle-count", "4", "--alpha-count", "2", "--r-count", "3",
                "--workers", "1"]
        code, _, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "a"))
        assert code == 0
        files = sorted((tmp_path / "a").glob("*.csv"))
        assert len(files) == 6
        names = {f.name for f in files}
        assert names == {f"fig6_{n}_phi{t}.csv"
                         for n in ("ad", "pd") for t in ("0pi", "0.25pi", "0.5pi")}
        for f in files:
            lines = f.read_text().splitlines()
            assert len(lines) == 1 + 2 * 3
            for ln in lines[1:]:
                assert float(ln.split(",")[6]) >= -0.01  # f_diff floor
        code, _, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "b"))
        assert code == 0
        for f in files:
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_one_pool_per_run(self, capsys, tmp_path, monkeypatch):
        # all six surfaces share one process pool, and the pooled run writes
        # the bytes of the serial one
        pools = []

        class SpyPool(optimize.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(optimize, "ProcessPoolExecutor", SpyPool)
        args = ["fig6", "--angle-count", "4", "--alpha-count", "2", "--r-count", "3"]
        for workers in ("2", "1"):
            code, _, _ = run_cli(capsys, *args, "--workers", workers,
                                 "--outdir", str(tmp_path / workers))
            assert code == 0
        assert pools == [2]
        files = sorted((tmp_path / "1").glob("*.csv"))
        assert len(files) == 6
        for f in files:
            assert (tmp_path / "2" / f.name).read_bytes() == f.read_bytes()

    def test_single_noise_restriction(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "fig6", "--outdir", str(tmp_path), "--noise",
                             "ad", "--angle-count", "4", "--alpha-count", "2",
                             "--r-count", "3")
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 3

    def test_missing_outdir_rejected(self, capsys):
        code, _, err = run_cli(capsys, "fig6", "--angle-count", "4",
                               "--alpha-count", "2", "--r-count", "3")
        assert code == 1 and "outdir" in err


class TestSchemeNoise:
    @pytest.mark.parametrize("kind,args", [
        ("wmqmr", ("--r", "0.5", "--p1", "0.8")),
        ("qffc_ps", ("--r", "0.5", "--p", "0.8")),
        ("composite", ("--r", "0.5", "--p", "0.8", "--eta", "0.1")),
        ("ent_wmqmr", ("--r", "0.5", "--p1", "0.8")),
    ])
    @pytest.mark.parametrize("noise", ["pd", "identity"])
    def test_non_ad_noise_rejected(self, capsys, kind, args, noise):
        code, out, err = run_cli(capsys, "scheme", "--kind", kind, "--noise", noise,
                                 *args)
        assert code == 1 and out == ""
        assert f"{kind} needs an amplitude-damping channel" in err

    def test_explicit_ad_noise_matches_default(self, capsys):
        args = ("scheme", "--kind", "wmqmr", "--r", "0.5", "--p1", "0.8", "--state", "+x")
        code, out_default, _ = run_cli(capsys, *args)
        assert code == 0
        code, out_ad, _ = run_cli(capsys, *args, "--noise", "ad")
        assert code == 0 and out_ad == out_default


class TestSignsFlag:
    @pytest.mark.parametrize("signs,packed", [("-+", "signs=-1|1"), ("--", "signs=-1|-1")])
    def test_equals_form_accepts_leading_minus(self, capsys, signs, packed):
        code, out, _ = run_cli(capsys, "scheme", "--kind", "qffc_rot", "--noise", "ad",
                               "--r", "0.5", "--p", "0.8", "--eta", "0.1",
                               f"--signs={signs}", "--state", "+x")
        assert code == 0
        header, rows = csv_rows(out)
        assert packed in dict(zip(header, rows[0]))["params"].split(";")
