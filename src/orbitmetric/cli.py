"""Command-line front end for orbit metrics and diagnostics.

Every run is described by one effective configuration: an optional JSON
config file supplies defaults, explicit flags override it, and the result
is echoed into each output artifact so artifacts are self-describing.
All randomness derives from --seed, so identical configs give
byte-identical outputs.

Exit codes: 0 on success, 1 when --strict is set and the verdict is
"violated", 2 on any input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from . import analysis as _analysis
from . import pseudometrics as _pseudometrics
from . import selftest as _selftest
from . import systems as _systems
from .errors import SamplingError
from .measures import Schedule

DEFAULT_SCHEDULE_MAX = 1000
MEANEQ_SCHEDULE_MAX = 200
DEFAULT_PAIR_SAMPLES = 20
DEFAULT_POINT_SAMPLES = 20

# "0110", "01(10)*", "(1)*" -- prefix plus optional periodic tail
_SHIFT_POINT = re.compile(r"^([01]*)(?:\(([01]+)\)\*)?$")


class CliError(Exception):
    """Invalid input; the process exits with status 2."""


# ---------------------------------------------------------------------------
# config resolution: flags override the config file, which overrides defaults


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise CliError(f"{path}: config must be a JSON object")
    return data


def _effective(args, cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    return value


def _require(args, cfg: dict, key: str, flag: str, default=None):
    value = _effective(args, cfg, key, default)
    if value is None:
        raise CliError(f"{flag} is required for this command")
    return value


def _integer(value, what: str) -> int:
    """``value`` as an int: an int, an integral float or a decimal string.

    Anything else, a bool or a fractional number included, raises CliError
    rather than being truncated.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise CliError(f"{what} must be an integer, got {value!r}")


def _positive_int(args, cfg: dict, key: str, default: int, flag: str) -> int:
    value = _integer(_effective(args, cfg, key, default), flag)
    if value < 1:
        raise CliError(f"{flag} must be at least 1")
    return value


def _positive_float(args, cfg: dict, key: str, flag: str, default=None) -> float:
    value = _require(args, cfg, key, flag, default)
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise CliError(f"{flag} must be a number")
    if not value > 0:
        raise CliError(f"{flag} must be positive")
    return value


def _common_values(args, cfg: dict) -> tuple[int, str, bool]:
    seed = _integer(_effective(args, cfg, "seed", 0), "--seed")
    fmt = _effective(args, cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise CliError(f"unknown format '{fmt}' (choose csv or json)")
    strict = bool(_effective(args, cfg, "strict", False))
    return seed, fmt, strict


# ---------------------------------------------------------------------------
# system and point parsing


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{what}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


# short --system names -> system kinds; the kinds are valid names as well
_SYSTEM_ALIASES = {"circle": "circle_rotation", "doubling": "doubling_map",
                   "tent": "tent_map", "logistic": "logistic_map",
                   "shift": "binary_shift"}

# system parameter flags -> spec fields
_SYSTEM_FIELDS = {"alpha": "alpha", "r": "r", "horizon": "shift_horizon"}


def _build_system(args, cfg: dict) -> _systems.System:
    name = _effective(args, cfg, "system")
    spec = _effective(args, cfg, "system_json")
    if name is not None and spec is not None:
        raise CliError("conflicting system definitions: give --system or --system-json, not both")
    if spec is None:
        return _systems.system_from_dict(_named_spec(args, cfg, name))
    if isinstance(spec, str):
        spec = _parse_json_arg(spec, "--system-json")
    try:
        return _systems.system_from_dict(spec)
    except ValueError as exc:
        raise CliError(f"bad system description: {exc}")


def _named_spec(args, cfg: dict, name) -> dict:
    """The system spec of a --system name and the parameter flags."""
    if name is None:
        raise CliError("no system given (use --system or --system-json)")
    kind = _SYSTEM_ALIASES.get(name, name) if isinstance(name, str) else None
    if kind not in _SYSTEM_ALIASES.values():
        raise CliError(f"unknown system '{name}'")
    spec = {"kind": kind}
    for key, field in _SYSTEM_FIELDS.items():
        value = _effective(args, cfg, key)
        if value is not None:
            spec[field] = value
    if kind == "circle_rotation" and "alpha" not in spec:
        raise CliError("--alpha is required for the circle rotation")
    return spec


def _parse_scalar(text: str):
    s = str(text).strip()
    if "/" in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad fraction '{text}'")
    try:
        return float(s)
    except ValueError:
        raise CliError(f"bad numeric point '{text}'")


def _parse_shift_point(text: str) -> _systems.ShiftPoint:
    m = _SHIFT_POINT.match(str(text).strip())
    if not m or (not m.group(1) and m.group(2) is None):
        raise CliError(
            f"bad shift point '{text}' (use e.g. '0110', '01(10)*' or '(1)*')")
    return _systems.ShiftPoint.from_string(m.group(1), m.group(2))


def _product_point(system: _systems.ProductSystem, spec):
    if not isinstance(spec, (list, tuple)) or len(spec) != 2:
        raise CliError("a product point must be a JSON pair [first, second]")
    out = []
    for factor, comp in zip((system.first, system.second), spec):
        if factor.kind == "binary_shift":
            out.append(_parse_shift_point(comp))
        elif factor.kind == "product":
            out.append(_product_point(factor, comp))
        elif isinstance(comp, (int, float)):
            out.append(float(comp))
        else:
            out.append(_parse_scalar(comp))
    return tuple(out)


def _parse_point(system: _systems.System, text: str):
    if system.kind == "binary_shift":
        return _parse_shift_point(text)
    if system.kind == "product":
        return _product_point(system, _parse_json_arg(text, "point"))
    return _parse_scalar(text)


def _build_schedule(args, cfg: dict, allow_single_n: bool = False,
                    default_max: int = DEFAULT_SCHEDULE_MAX) -> Schedule:
    single = _effective(args, cfg, "n") if allow_single_n else None
    checkpoints = _effective(args, cfg, "checkpoints")
    schedule_max = _effective(args, cfg, "schedule_max")
    given = sum(v is not None for v in (single, checkpoints, schedule_max))
    if given > 1:
        raise CliError("give at most one of --n, --checkpoints, --schedule-max")
    tail_start = _effective(args, cfg, "tail_start")
    try:
        if tail_start is not None:
            tail_start = _integer(tail_start, "--tail-start")
        if single is not None:
            return Schedule((_integer(single, "--n"),))
        if checkpoints is not None:
            if isinstance(checkpoints, str):
                parts = [p for p in checkpoints.split(",") if p.strip()]
            elif isinstance(checkpoints, list):
                parts = checkpoints
            else:
                raise CliError(f"bad checkpoint list '{checkpoints}'")
            cps = tuple(_integer(p, "each checkpoint") for p in parts)
            return Schedule(cps, tail_start or 0)
        max_n = (_integer(schedule_max, "--schedule-max")
                 if schedule_max is not None else default_max)
        schedule = Schedule.geometric(max_n)
        if tail_start is not None:
            schedule = Schedule(schedule.checkpoints, tail_start)
        return schedule
    except ValueError as exc:
        raise CliError(f"bad schedule: {exc}")


# ---------------------------------------------------------------------------
# output assembly


def _preamble(metric: str, system_dict, config: dict) -> list[str]:
    return [
        f"# metric={metric} system={json.dumps(system_dict, sort_keys=True)}",
        "# config=" + json.dumps(config, sort_keys=True),
    ]


def _emit_report(report: _analysis.DiagnosticReport, config: dict,
                 fmt: str, strict: bool) -> tuple[str, int]:
    if fmt == "json":
        payload = {"config": config, "version": __version__, **asdict(report)}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = _preamble(report.name, report.parameters.get("system"), config)
        lines.append(report.to_csv().rstrip("\n"))
        lines.append("# summary=" + json.dumps(report.summary, sort_keys=True))
        lines.append(f"# verdict={report.verdict}")
        text = "\n".join(lines) + "\n"
    code = 1 if strict and report.verdict == _analysis.VERDICT_VIOLATED else 0
    return text, code


# ---------------------------------------------------------------------------
# command runners


def _run_pair(args, cfg: dict) -> tuple[str, int]:
    system = _build_system(args, cfg)
    x_text = _require(args, cfg, "x", "--x")
    y_text = _require(args, cfg, "y", "--y")
    x = _parse_point(system, x_text)
    y = _parse_point(system, y_text)
    schedule = _build_schedule(args, cfg, allow_single_n=True)
    seed, fmt, _ = _common_values(args, cfg)
    ebar = _pseudometrics.ebar_estimate(system, x, y, schedule)
    bes = _pseudometrics.besicovitch_estimate(system, x, y, schedule)
    observations = [
        {"n": n, "ebar": e, "besicovitch": b}
        for (n, e), (_, b) in zip(ebar.rows(), bes.rows())
    ]
    summary = {"ebar_tail": ebar.tail_sup, "besicovitch_tail": bes.tail_sup}
    config = {
        "command": "pair", "system": system.to_dict(),
        "x": str(x_text), "y": str(y_text),
        "checkpoints": list(schedule.checkpoints),
        "tail_start": schedule.tail_start,
        "seed": seed, "format": fmt,
    }
    if fmt == "json":
        payload = {"config": config, "version": __version__, "name": "pair",
                   "observations": observations, "summary": summary}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = _preamble("pair", system.to_dict(), config)
        lines.append("n,ebar,besicovitch")
        for row in observations:
            lines.append(f"{row['n']},{row['ebar']!r},{row['besicovitch']!r}")
        lines.append("# summary=" + json.dumps(summary, sort_keys=True))
        text = "\n".join(lines) + "\n"
    return text, 0


def _observable(args, cfg: dict, system: _systems.System) -> str:
    observable = _effective(args, cfg, "observable")
    if observable is None:
        observable = "symbol0" if system.kind == "binary_shift" else "coordinate"
    return observable


# argument key -> (reader(args, cfg, system), keywords of its --key flag)
_ARGUMENTS = {
    "delta": (lambda args, cfg, system: _positive_float(args, cfg, "delta", "--delta"),
              {"type": float, "help": "closeness bound on sampled pairs"}),
    "pairs": (lambda args, cfg, system: _positive_int(
                  args, cfg, "pairs", DEFAULT_PAIR_SAMPLES, "--pairs"),
              {"type": int, "help": "number of sampled pairs"}),
    "observable": (_observable,
                   {"help": "observable name (default coordinate/symbol0)"}),
    "points": (lambda args, cfg, system: _positive_int(
                   args, cfg, "points", DEFAULT_POINT_SAMPLES, "--points"),
               {"type": int, "help": "number of sampled points"}),
    "threshold": (lambda args, cfg, system: _positive_float(
                      args, cfg, "threshold", "--threshold", _analysis.DEFAULT_THRESHOLD),
                  {"type": float, "help": "consistency threshold"}),
}

# command -> (analysis function, argument keys in call order, default
# schedule length, help); every command also takes a threshold
_DIAGNOSTICS = {
    "modulus": (_analysis.continuity_modulus, ("delta", "pairs"),
                DEFAULT_SCHEDULE_MAX, "mean pseudo-metric modulus over close pairs"),
    "ue": (_analysis.unique_ergodicity_diagnostic, ("points",),
           DEFAULT_SCHEDULE_MAX, "unique ergodicity surrogate: empirical diameter"),
    "birkhoff": (_analysis.birkhoff_profile, ("observable", "points"),
                 DEFAULT_SCHEDULE_MAX, "spread of Birkhoff averages across points"),
    # the product-orbit route solves a dense assignment per checkpoint, so
    # this command defaults to a shorter schedule than the others
    "meaneq": (_analysis.mean_equicontinuity_diagnostic, ("delta", "pairs"),
               MEANEQ_SCHEDULE_MAX, "mean equicontinuity diagnostic over close pairs"),
}


def _run_diagnostic(args, cfg: dict) -> tuple[str, int]:
    diagnostic, keys, default_max, _ = _DIAGNOSTICS[args.command]
    system = _build_system(args, cfg)
    values = {key: _ARGUMENTS[key][0](args, cfg, system)
              for key in keys + ("threshold",)}
    schedule = _build_schedule(args, cfg, default_max=default_max)
    seed, fmt, strict = _common_values(args, cfg)
    report = diagnostic(system, *(values[key] for key in keys), schedule,
                        seed=seed, threshold=values["threshold"])
    config = {
        "command": args.command, "system": system.to_dict(), **values,
        "checkpoints": list(schedule.checkpoints),
        "tail_start": schedule.tail_start, "seed": seed, "format": fmt,
    }
    return _emit_report(report, config, fmt, strict)


def _run_example31(args, cfg: dict) -> tuple[str, int]:
    blocks = _positive_int(args, cfg, "blocks", 6, "--blocks")
    rule = _effective(args, cfg, "block_rule", "factorial")
    if isinstance(rule, str) and rule != "factorial":
        try:
            rule = tuple(int(p) for p in rule.split(",") if p.strip())
        except ValueError:
            raise CliError(f"bad block rule '{rule}' (use 'factorial' or a comma list)")
    elif isinstance(rule, (list, tuple)):
        rule = tuple(_integer(p, "each block length") for p in rule)
    seed, fmt, strict = _common_values(args, cfg)
    config_obj = _analysis.Example31Config(block_rule=rule, n_blocks=blocks)
    report = _analysis.example31_report(config_obj)
    config = {
        "command": "example31", "blocks": blocks,
        "block_rule": rule if isinstance(rule, str) else list(rule),
        "seed": seed, "format": fmt,
    }
    return _emit_report(report, config, fmt, strict)


def _run_selftest(args, cfg: dict) -> tuple[None, int]:
    failures = _selftest.run(verbose=True)
    return None, 1 if failures else 0


_RUNNERS = {
    "pair": _run_pair,
    **dict.fromkeys(_DIAGNOSTICS, _run_diagnostic),
    "example31": _run_example31,
    "selftest": _run_selftest,
}


# ---------------------------------------------------------------------------
# argument parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON file with defaults; explicit flags override it")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    common.add_argument("--strict", action="store_true", default=None,
                        help="exit 1 when the verdict is 'violated'")

    sysflags = argparse.ArgumentParser(add_help=False)
    sysflags.add_argument("--system",
                          choices=[name for alias in _SYSTEM_ALIASES.items()
                                   for name in alias],
                          help="named system")
    sysflags.add_argument("--alpha", type=float, help="rotation angle in [0, 1)")
    sysflags.add_argument("--r", type=float, help="logistic parameter in [0, 4]")
    sysflags.add_argument("--horizon", type=int, help="shift metric horizon")
    sysflags.add_argument("--system-json", dest="system_json", metavar="JSON",
                          help="full system description (products supported)")

    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--schedule-max", dest="schedule_max", type=int,
                       help="geometric checkpoint schedule up to this orbit length")
    sched.add_argument("--checkpoints", metavar="N1,N2,...",
                       help="explicit comma-separated checkpoint list")
    sched.add_argument("--tail-start", dest="tail_start", type=int,
                       help="index of the first checkpoint counted as tail")

    parser = argparse.ArgumentParser(
        prog="orbitmetric",
        description="Orbit pseudo-metrics, measure distances and diagnostics "
                    "for topological dynamical systems.")
    parser.add_argument("--version", action="version",
                        version=f"orbitmetric {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("pair", parents=[common, sysflags, sched],
                       help="orbit pseudo-metric trace for one pair of points")
    p.add_argument("--x", help="first point")
    p.add_argument("--y", help="second point")
    p.add_argument("--n", type=int, help="single orbit length instead of a schedule")

    for command, (_, keys, _, help_text) in _DIAGNOSTICS.items():
        p = sub.add_parser(command, parents=[common, sysflags, sched], help=help_text)
        for key in keys + ("threshold",):
            p.add_argument("--" + key, **_ARGUMENTS[key][1])

    p = sub.add_parser("example31", parents=[common],
                       help="slow-alternation counterexample audit")
    p.add_argument("--blocks", type=int, help="number of blocks (default 6)")
    p.add_argument("--block-rule", dest="block_rule",
                   help="'factorial' or comma-separated block lengths")

    sub.add_parser("selftest", parents=[common],
                   help="run the built-in cross-check suite")

    # kept so unrecognized-argument errors can show the right usage text
    parser.command_parsers = dict(sub.choices)
    return parser


def _write_output(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        chosen = parser.command_parsers.get(getattr(args, "command", None), parser)
        sys.stderr.write(chosen.format_usage())
        print(f"error: unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
        return 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 2
    try:
        config_path = getattr(args, "config", None)
        cfg = _load_config_file(config_path) if config_path else {}
        text, code = _RUNNERS[args.command](args, cfg)
        if text is not None:
            _write_output(text, _effective(args, cfg, "out"))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
