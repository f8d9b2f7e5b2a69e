"""Command-line front end.

Subcommands:
  channel   apply one damping channel to one state, print before/after
  scheme    run one protection scheme, print a one-row summary
  sweep     per-scheme optimal-fidelity table over the (alpha, r) grid
  fig6      the full feedback-vs-feedforward comparison surfaces (6 CSV files)

Angles are radians and accept a "pi" suffix (0.25pi). Probabilities are in
[0, 1]. Flags override an optional key=value config file. CSV output is
deterministic: fixed column order, 12-significant-digit floats, UNIX
newlines. Files are written atomically (write-then-rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import optimize, schemes
from .channels import ad_rate_to_r, apply_channel, make_channel, pd_lambda_to_r
from .optimize import GridSpec, SweepResult
from .qmath import (
    InitialState,
    bloch_to_density,
    check_density,
    density_to_bloch,
    state_from_angles,
)

_STATE_TOKENS = {
    "+x": (1, 0, 0), "-x": (-1, 0, 0),
    "+y": (0, 1, 0), "-y": (0, -1, 0),
    "+z": (0, 0, 1), "-z": (0, 0, -1),
    "+z-excited": (0, 0, -1), "excited": (0, 0, -1), "ground": (0, 0, 1),
}

_PHI_TAGS = ((0.0, "0pi"), (np.pi / 4, "0.25pi"), (np.pi / 2, "0.5pi"))


def parse_angle(text: str) -> float:
    """Radians, or a multiple of pi with a 'pi' suffix (e.g. 0.25pi, pi, -pi)."""
    s = text.strip().lower()
    try:
        if s.endswith("pi"):
            head = s[:-2].strip()
            return float(head + "1" if head in ("", "+", "-") else head) * np.pi
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle {text!r}") from None


def parse_prob(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid probability {text!r}") from None
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"probability {text!r} outside [0, 1]")
    return v


def parse_signs(text: str) -> tuple[int, int]:
    mapping = {"+": +1, "-": -1}
    s = text.strip()
    if len(s) != 2 or any(c not in mapping for c in s):
        raise argparse.ArgumentTypeError(f"signs must be two of +/-, got {text!r}")
    return mapping[s[0]], mapping[s[1]]


class _SignsAction(argparse.Action):
    """Stores --signs. Older argparse (Python 3.11 among them) drops a '--'
    value before conversion and passes [], which only '--signs=--' produces."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, parse_signs("--") if values == [] else values)


def load_config(path: str) -> dict[str, str]:
    """Line-oriented key = value file with # comments."""
    out = {}
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _apply_config(args: argparse.Namespace):
    """Fill in argparse defaults (None) from the config file, checked as flags are; flags win."""
    if not getattr(args, "config", None):
        return
    cfg = load_config(args.config)
    known = set(vars(args)) - {"fn", "command", "config", "subparser"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    actions = {a.dest: a for a in args.subparser._actions}
    for key, raw in cfg.items():
        if getattr(args, key) is None:
            action = actions[key]
            try:
                value = (action.type or str)(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"invalid choice {raw!r} (choose from "
                                     f"{', '.join(action.choices)})")
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
            setattr(args, key, value)


def _input_state(args) -> np.ndarray:
    if getattr(args, "state", None) is not None:
        if angles := [f"--{n}" for n in ("alpha", "phi") if getattr(args, n) is not None]:
            raise ValueError(f"--state excludes {', '.join(angles)}")
        token = args.state.lower()
        if token not in _STATE_TOKENS:
            raise ValueError(f"unknown state token {args.state!r}; "
                             f"known: {', '.join(sorted(_STATE_TOKENS))}")
        return bloch_to_density(_STATE_TOKENS[token])
    alpha = args.alpha if args.alpha is not None else 0.0
    phi = args.phi if args.phi is not None else 0.0
    return state_from_angles(InitialState(alpha=alpha, phi=phi))


def _resolve_r(args, kind: str) -> float:
    """A `kind` channel's r: given, or from lambda (pd kick angle) or gamma/t (ad rate)."""
    given = [name for name in ("r", "lam", "gamma") if getattr(args, name, None) is not None]
    if len(given) > 1:
        raise ValueError(f"give only one of --r, --lam, --gamma (got {given})")
    if getattr(args, "time", None) is not None and getattr(args, "gamma", None) is None:
        raise ValueError("--time needs --gamma (r = 1 - exp(-2*gamma*time))")
    if kind == "ad" and "lam" in given or kind == "pd" and "gamma" in given:
        raise ValueError(f"--{given[0]} does not parameterize a {kind} channel")
    if kind == "identity" and any(getattr(args, name) for name in given):
        raise ValueError(f"the identity channel takes no noise strength (got --{given[0]})")
    if args.r is not None:
        return args.r
    if getattr(args, "lam", None) is not None:
        return pd_lambda_to_r(args.lam)
    if getattr(args, "gamma", None) is not None:
        t = args.time if getattr(args, "time", None) is not None else 1.0
        return ad_rate_to_r(args.gamma, t)
    return 0.0


def _grid_from_args(args) -> GridSpec:
    counts = {name: getattr(args, name) for name in ("angle_count", "alpha_count", "r_count")}
    return GridSpec.default(**{name: n for name, n in counts.items() if n is not None})


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str):
    if getattr(args, "out", None):
        _write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)


def _density_row(rho) -> tuple:
    return tuple(float(v) for pair in ((rho[i, j].real, rho[i, j].imag)
                                       for i in range(2) for j in range(2))
                 for v in pair)


def _require(args, name: str):
    if getattr(args, name) is None:
        raise ValueError(f"--{name.replace('_', '-')} is required "
                         "(flag or config file)")


def cmd_channel(args) -> int:
    _require(args, "kind")
    rho_in = _input_state(args)
    ch = make_channel(args.kind, _resolve_r(args, args.kind))
    rho_out = apply_channel(rho_in, ch)
    check_density(rho_out, "channel output")
    cols = ("row", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11",
            "bloch_x", "bloch_y", "bloch_z")
    rows = []
    for label, rho in (("input", rho_in), ("output", rho_out)):
        b = density_to_bloch(rho)
        rows.append((label, *_density_row(rho), b.x, b.y, b.z))
    _emit(args, SweepResult(columns=cols, rows=tuple(rows)).to_csv())
    return 0


def cmd_scheme(args) -> int:
    _require(args, "kind")
    kind = args.kind.lower()
    noise_kind = args.noise if args.noise is not None else "ad"
    r = _resolve_r(args, "ad" if kind in schemes.AD_ONLY_KINDS else noise_kind)
    # a parameter flag is a run_* keyword other than the noise; the kind's own are passed on
    flags = set().union(*schemes.SCHEME_PARAMS.values()) - {"noise", "r"}
    if kind == "ent_wmqmr":   # its input is the fixed Bell state
        flags |= {"state", "alpha", "phi"}
        if args.r1 is not None and args.r2 is not None:   # r would damp neither qubit
            flags |= {"r", "gamma", "time"}
    params = {name: getattr(args, name) for name in flags & set(vars(args))
              if getattr(args, name) is not None}
    if stray := sorted(set(params) - schemes.SCHEME_PARAMS[kind].keys()):
        raise ValueError(f"{kind} does not take " + ", ".join(
            f"--{name.replace('_', '-')}" for name in stray))
    if kind == "ent_wmqmr":
        params = {"r1": r, "r2": r, "side": "one", **params}
        rho_in = np.zeros((4, 4), dtype=complex)  # the Bell state (|00> + |11>)/sqrt(2)
        rho_in[0, 0] = rho_in[0, 3] = rho_in[3, 0] = rho_in[3, 3] = 0.5
    else:
        if kind in schemes.AD_ONLY_KINDS:
            params["r"] = r
        rho_in = _input_state(args)
    noise = make_channel(noise_kind, r)
    result = schemes.run_scheme(rho_in, kind, noise, **params)
    if not 0.0 <= result.success_prob <= 1.0:
        raise ValueError(f"success probability {result.success_prob} outside [0, 1]")
    packed = ";".join(f"{k}={optimize._fmt(v)}" for k, v in sorted(params.items()))
    trail = "|".join(f"{b.label}:{b.weight:.12g}" for b in result.branches.branches)
    cols = ("scheme", "noise", "r", "fidelity", "success_prob", "concurrence",
            "params", "branches")
    conc = result.concurrence if result.concurrence is not None else ""
    rows = ((kind, noise_kind, r, result.fidelity,
             result.success_prob, conc, packed, trail),)
    _emit(args, SweepResult(columns=cols, rows=rows).to_csv())
    return 0


def cmd_sweep(args) -> int:
    _require(args, "scheme")
    grid = _grid_from_args(args)
    phi = args.phi if args.phi is not None else 0.0
    table = optimize.sweep_optimal(args.scheme, phi,
                                   args.noise if args.noise is not None else "ad",
                                   grid, workers=args.workers)
    if len(table.rows) != len(grid.alphas) * len(grid.rs):
        raise RuntimeError("sweep produced an unexpected row count")
    _emit(args, table.to_csv())
    return 0


def cmd_fig6(args) -> int:
    _require(args, "outdir")
    grid = _grid_from_args(args)
    outdir = Path(args.outdir)
    noise_kinds = (args.noise,) if args.noise is not None else ("ad", "pd")
    surfaces = [(noise_kind, phi, tag) for noise_kind in noise_kinds for phi, tag in _PHI_TAGS]
    tables = optimize.sweep_fig6_surfaces([(phi, noise_kind) for noise_kind, phi, _ in surfaces],
                                          grid, workers=args.workers)
    wrote = []
    for (noise_kind, _, tag), table in zip(surfaces, tables, strict=True):
        if len(table.rows) != len(grid.alphas) * len(grid.rs):
            raise RuntimeError("fig6 sweep produced an unexpected row count")
        path = outdir / f"fig6_{noise_kind}_phi{tag}.csv"
        _write_text(path, table.to_csv())
        wrote.append(path)
    sys.stdout.write("".join(f"wrote {p}\n" for p in wrote))
    return 0


def _add_state_flags(p: argparse.ArgumentParser):
    p.add_argument("--state", help="named state: +x,-x,+y,-y,+z,-z,excited,ground")
    p.add_argument("--alpha", type=parse_angle,
                   help="state angle alpha in radians, [0, pi/2] (e.g. 0.25pi)")
    p.add_argument("--phi", type=parse_angle,
                   help="state phase phi in radians, [0, 2pi)")


def _add_noise_flags(p: argparse.ArgumentParser):
    p.add_argument("--r", type=parse_prob, help="damping probability in [0, 1]")
    p.add_argument("--lam", type=parse_angle,
                   help="dephasing kick angle in radians; r = sin^2(lam/2)")
    p.add_argument("--gamma", type=float, help="decay rate (1/time units)")
    p.add_argument("--time", type=float, help="decay duration; r = 1 - exp(-2*gamma*time)")


def _add_grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--angle-count", type=int, dest="angle_count",
                   help="theta/eta grid points over [0, pi/2]; (n-1) must divide 30")
    p.add_argument("--alpha-count", type=int, dest="alpha_count",
                   help="alpha grid points over [0, pi/2] (default 30)")
    p.add_argument("--r-count", type=int, dest="r_count",
                   help="r grid points incl. endpoints 0 and 0.999 (default 31)")
    p.add_argument("--workers", type=int,
                   help="at most this many sweep processes (default: the CPUs this process may "
                        "run on); the timed second row decides if one pool starts; 1 never pools")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoguard",
        description="Weak-measurement state protection schemes over damping "
                    "channels: single runs, channel demos, and optimal-fidelity "
                    "comparison sweeps. Angles are radians ('pi' suffix allowed), "
                    "strengths are probabilities in [0, 1].")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", help="apply a damping channel to one state")
    p.add_argument("--kind", choices=("pd", "ad", "identity"),
                   help="channel kind (required here or in the config file)")
    _add_noise_flags(p)
    _add_state_flags(p)
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_channel, subparser=p)

    p = sub.add_parser("scheme", help="run one protection scheme")
    p.add_argument("--kind", choices=schemes.SCHEME_KINDS,
                   help="protection scheme (required here or in the config file)")
    p.add_argument("--noise", choices=("pd", "ad", "identity"),
                   help="noise channel for qfbc/qffc_rot/wmppf (default ad); the "
                        "other schemes take only ad")
    _add_noise_flags(p)
    _add_state_flags(p)
    p.add_argument("--p", type=parse_prob, help="pre-measurement strength in [0, 1]")
    p.add_argument("--p1", type=parse_prob, help="weak-measurement strength in [0, 1]")
    p.add_argument("--p2", type=parse_prob,
                   help="reversal strength in [0, 1] (default: matched)")
    p.add_argument("--p-u", type=parse_prob, dest="p_u",
                   help="post-measurement strength, M1 branch (default: matched)")
    p.add_argument("--p-v", type=parse_prob, dest="p_v",
                   help="post-measurement strength, M2 branch (default: matched)")
    p.add_argument("--theta", type=parse_angle,
                   help="measurement angle in radians, [0, pi/2]")
    p.add_argument("--eta", type=parse_angle,
                   help="rotation angle in radians, [0, pi/2]; qfbc takes [-pi/2, pi/2] "
                        "(write a negative value as --eta=-0.15pi)")
    p.add_argument("--beta", type=parse_angle,
                   help="generalized-measurement phase in radians")
    p.add_argument("--meas-axis", choices=("x", "y", "z"), dest="meas_axis",
                   help="measurement axis (qfbc)")
    p.add_argument("--rot-axis", choices=("x", "y", "z"), dest="rot_axis",
                   help="rotation axis (qfbc)")
    p.add_argument("--signs", type=parse_signs, action=_SignsAction,
                   help="per-branch rotation signs for qffc_rot/composite, e.g. "
                        "--signs=+- (the = form is needed for values starting with -)")
    p.add_argument("--r1", type=parse_prob, help="qubit-1 damping (ent_wmqmr)")
    p.add_argument("--r2", type=parse_prob, help="qubit-2 damping (ent_wmqmr)")
    p.add_argument("--side", choices=("one", "both"),
                   help="protected side(s) for ent_wmqmr (default one)")
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_scheme, subparser=p)

    p = sub.add_parser("sweep", help="optimal-fidelity sweep for one scheme")
    p.add_argument("--scheme", choices=optimize.OPTIMIZABLE_KINDS,
                   help="scheme to optimize per (alpha, r) cell (required)")
    p.add_argument("--phi", type=parse_angle, help="state phase in radians (default 0)")
    p.add_argument("--noise", choices=("pd", "ad"), help="channel kind (default ad)")
    _add_grid_flags(p)
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_sweep, subparser=p)

    p = sub.add_parser(
        "fig6",
        help="feedback-vs-feedforward comparison surfaces",
        description="Optimal-fidelity comparison surfaces over the (alpha, r) "
                    "grid; emitted angle columns are radians, strengths and "
                    "damping values are probabilities in [0, 1].")
    p.add_argument("--outdir", help="directory for the six CSV files (required)")
    p.add_argument("--noise", choices=("pd", "ad"),
                   help="restrict to one channel kind (default both)")
    _add_grid_flags(p)
    p.add_argument("--config", help="key = value config file; flags override")
    p.set_defaults(fn=cmd_fig6, subparser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.fn(args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
