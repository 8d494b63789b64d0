"""Command-line front end.

Subcommands: singlet, epr, grw-run, oracle-compare, ks-check, ck-trace.
Parameters come from ``key = value`` config files and/or flags; flags
override file values, defaults fill the rest (all enumerated in
``--help``).  Reports are canonical JSON (floats at 17 significant
digits), so the same invocation with the same seed writes byte-identical
files; per-trial tables go to CSV on request.

Exit codes: 0 success, 2 configuration error, 3 numerical or
grid-adequacy error, 4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from typing import Any, Callable

from .errors import ConfigError, InvariantViolationError, NumericalError
from .ks import RaySet, build_structure, ck_argument_trace, search_coloring
from .report import ExperimentReport
from .scenarios import (
    EprConfig,
    OracleComparisonConfig,
    run_epr_position,
    run_grw_ensemble,
    run_oracle_comparison,
    run_singlet_spacetime,
)
from .schema import COUNT, FINITE, POSITIVE, SEED, Key, check_value, from_values, keys_of
from .spin import OrthoTriple

_AXES = "1,0,0;0,1,0;0,0,1"

_SCENARIO_COMMON = {
    "seed": Key(int, None, "master seed (required; keys every random draw)", SEED),
    "out": Key(str, None, "path for the JSON report (stdout when omitted)"),
    "csv": Key(str, None, "optional path for the per-trial CSV table"),
    "workers": Key(int, 1, "worker processes for trial execution", COUNT),
}

_RAY_KEYS = {
    "rays": Key(str, None, "ray-set file ('builtin:ks33' for the bundled set)"),
    "tolerance": Key(float, 1e-9, "orthogonality tolerance for float rays", POSITIVE),
    "out": _SCENARIO_COMMON["out"],
    "csv": Key(str, None, "rejected: these commands emit no per-trial table"),
}

# Keys of epr, grw-run and oracle-compare come from their config
# dataclasses (see schema.py); the literals here belong to no dataclass.
KEY_SPECS: dict[str, dict[str, Key]] = {
    "singlet": {
        **_SCENARIO_COMMON,
        "trials": Key(int, 10000, "number of sampled trials", COUNT),
        "triple_a": Key(str, "none", "A's triple: 'none', 'axes' or x;y;z vectors"),
        "triple_b": Key(str, "axes", "B's triple: 'axes' or x1,x2,x3;y1,...;z1,..."),
        "same_triples": Key(bool, False, "measure the same triple on both wings"),
        "measure_b": Key(bool, True, "set false for the no-B control run"),
    },
    "epr": {**_SCENARIO_COMMON, **keys_of(EprConfig)},
    "grw-run": {**_SCENARIO_COMMON, **keys_of(OracleComparisonConfig),
                "trajectories": Key(int, 1000, "ensemble size", COUNT)},
    "oracle-compare": {**_SCENARIO_COMMON, **keys_of(OracleComparisonConfig),
                       "k": Key(int, 10000, "trajectory ensemble size", COUNT)},
    "ks-check": _RAY_KEYS,
    "ck-trace": _RAY_KEYS,
}


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _suggest(key: str, known) -> str:
    close = sorted(k for k in known if _edit_distance(key, k) <= 2)
    return f"; did you mean {close[0]!r}?" if close else ""


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {text!r}")


def _read_config_file(path: str, spec: dict[str, Key]) -> dict[str, Any]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, Any] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key not in spec:
                raise ConfigError(f"unknown key '{key}'{_suggest(key, spec)}")
            k = spec[key]
            try:
                values[key] = _parse_bool(raw, key) if k.type is bool else k.type(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(f"key '{key}': cannot parse {raw!r} as {k.type.__name__}")
    return values


def _dest(key: str) -> str:
    d = key.replace("-", "_")
    return "lam" if d == "lambda" else d


def _add_spec_args(parser: argparse.ArgumentParser, spec: dict[str, Key]) -> None:
    parser.add_argument("--config", help="key = value config file (flags override it)")
    for key, k in spec.items():
        kind = {"action": argparse.BooleanOptionalAction} if k.type is bool else {"type": k.type}
        parser.add_argument("--" + key.replace("_", "-"), dest=_dest(key), default=None,
                            help=f"{k.help} (default {k.default})", **kind)


def _merge(command: str, args: argparse.Namespace) -> dict[str, Any]:
    spec = KEY_SPECS[command]
    values = {key: k.default for key, k in spec.items()}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config, spec))
    for key in spec:
        flag_value = getattr(args, _dest(key), None)
        if flag_value is not None:
            values[key] = flag_value
    if "seed" in spec and values["seed"] is None:
        raise ConfigError("seed is required (reports record it for reproducibility)")
    for key, k in spec.items():
        if values[key] is not None:
            check_value(key, values[key], k.check)
    return values


def _parse_triple(text: str, key: str) -> OrthoTriple:
    if text.strip().lower() == "axes":
        text = _AXES
    try:
        vectors = [tuple(float(x) for x in part.split(",")) for part in text.split(";")]
        if len(vectors) != 3 or any(len(v) != 3 for v in vectors):
            raise ValueError
        for v in vectors:
            check_value(key, v, FINITE)
        return OrthoTriple.from_vectors(*vectors)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key '{key}': not an orthonormal triple ({exc or text!r})")


def _rays_path(values: dict[str, Any]) -> str:
    raw = values.get("rays")
    if not raw:
        raise ConfigError("key 'rays' is required (a ray-set file path)")
    if raw.startswith("builtin:"):
        name = raw.split(":", 1)[1]
        ref = resources.files("collapselab.data") / f"{name}.rays"
        if not ref.is_file():
            raise ConfigError(f"no bundled ray set named '{name}'")
        return str(ref)
    if not os.path.exists(raw):
        raise ConfigError(f"ray-set file not found: {raw}")
    return raw


def _cmd_singlet(values: dict[str, Any]) -> ExperimentReport:
    triple_b = _parse_triple(values["triple_b"], "triple_b")
    if values["same_triples"]:
        triple_a: OrthoTriple | None = triple_b
    elif values["triple_a"].strip().lower() == "none":
        triple_a = None
    else:
        triple_a = _parse_triple(values["triple_a"], "triple_a")
    return run_singlet_spacetime(
        triple_b, triple_a, values["trials"], values["seed"],
        measure_b=values["measure_b"], workers=values["workers"],
    )


def _cmd_epr(values: dict[str, Any]) -> ExperimentReport:
    config = from_values(EprConfig, values, master_seed=values["seed"],
                         workers=values["workers"])
    return run_epr_position(config)


def _cmd_grw_run(values: dict[str, Any]) -> ExperimentReport:
    config = from_values(OracleComparisonConfig, values)
    return run_grw_ensemble(config, values["trajectories"], values["seed"],
                            workers=values["workers"])


def _cmd_oracle_compare(values: dict[str, Any]) -> ExperimentReport:
    config = from_values(OracleComparisonConfig, values, record_trials=bool(values["csv"]))
    return run_oracle_comparison(config, values["k"], values["seed"],
                                 workers=values["workers"])


def _cmd_ks_check(values: dict[str, Any]) -> ExperimentReport:
    path = _rays_path(values)
    rays = RaySet.from_file(path, tolerance=values["tolerance"])
    structure = build_structure(rays)
    certificate = search_coloring(rays)
    witness = None
    if certificate.witness is not None:
        witness = [certificate.witness.values[i] for i in range(len(rays))]
    return ExperimentReport(
        scenario="ks_check",
        config={"rays": os.path.basename(path), "tolerance": values["tolerance"]},
        master_seed=None,
        aggregates={
            "n_rays": len(rays),
            "n_pairs": len(structure.pairs),
            "n_triples": len(structure.triples),
            "verdict": certificate.verdict,
            "nodes_explored": certificate.nodes_explored,
            "propagation_steps": certificate.propagation_steps,
            "witness": witness,
        },
    )


def _cmd_ck_trace(values: dict[str, Any]) -> ExperimentReport:
    path = _rays_path(values)
    rays = RaySet.from_file(path, tolerance=values["tolerance"])
    try:
        trace = ck_argument_trace(rays)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return ExperimentReport(
        scenario="ck_trace",
        config={"rays": os.path.basename(path), "tolerance": values["tolerance"]},
        master_seed=None,
        aggregates=trace.to_dict(),
    )


_COMMANDS: dict[str, Callable[[dict[str, Any]], ExperimentReport]] = {
    "singlet": _cmd_singlet,
    "epr": _cmd_epr,
    "grw-run": _cmd_grw_run,
    "oracle-compare": _cmd_oracle_compare,
    "ks-check": _cmd_ks_check,
    "ck-trace": _cmd_ck_trace,
}

_DESCRIPTIONS = {
    "singlet": "sample joint squared-spin measurements on the spin-1 singlet",
    "epr": "position EPR pair measured through a stochastically collapsing pointer",
    "grw-run": "trajectory ensemble statistics for a localized-jump run",
    "oracle-compare": "trajectory ensemble vs deterministic ensemble law (trace distance)",
    "ks-check": "decide 101-colorability of a ray set",
    "ck-trace": "full argument trace from an uncolorable ray set",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapselab",
        description="Desk-scale collapse-dynamics and contextuality laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in KEY_SPECS.items():
        p = sub.add_parser(name, help=_DESCRIPTIONS[name],
                           description=_DESCRIPTIONS[name])
        _add_spec_args(p, spec)
    return parser


def _write_output(text: str, path: str | None, created: list[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    created.append(path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created: list[str] = []
    try:
        values = _merge(args.command, args)
        report = _COMMANDS[args.command](values)
        _write_output(report.to_json(), values.get("out"), created)
        csv_path = values.get("csv")
        if csv_path:
            if not report.trials:
                raise ConfigError(f"'{args.command}' has no per-trial table for --csv")
            _write_output(report.trials_csv(), csv_path, created)
        return 0
    except ConfigError as exc:
        _cleanup(created)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        _cleanup(created)
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        _cleanup(created)
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # unexpected: treat as internal
        _cleanup(created)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _cleanup(created: list[str]) -> None:
    for path in created:
        try:
            os.unlink(path)
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
