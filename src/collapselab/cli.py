"""Command-line front end.

Subcommands: singlet, epr, grw-run, oracle-compare, ks-check, ck-trace.
Parameters come from ``key = value`` config files and/or flags; flags
override file values, defaults fill the rest (all enumerated in
``--help``).  Reports are canonical JSON (floats at 17 significant
digits), so the same invocation with the same seed writes byte-identical
files; per-trial tables go to CSV on request.

Exit codes: 0 success, 2 configuration error (an ``--out`` or ``--csv``
path that cannot be written included), 3 numerical or grid-adequacy
error, 4 internal invariant violation, 5 a pool worker died before it
returned its task (killed, as for memory).

Start-up loads only what a run uses.  This module needs no numpy and no
engine: the keys, ``--help`` and the checks of every value come from
``configs`` and ``schema``.  Each handler imports its engine when it
runs.  ``ks-check``, ``ck-trace``, ``--help`` and a key or config-file
error never load numpy.  ``singlet`` loads numpy and ``spin``, where its
run lives, but no trajectory engine; it parses its triples with ``spin``,
so a malformed triple exits after numpy has loaded.  The trajectory
subcommands load ``scenarios`` with ``grw`` and ``lindblad``.
"""
from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable

from .configs import EprConfig, OracleComparisonConfig
from .errors import ConfigError, InvariantViolationError, NumericalError, WorkerLostError
from .report import ExperimentReport
from .schema import COUNT, FINITE, SEED, Key, check_value, from_values, keys_of

if TYPE_CHECKING:
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
    "out": _SCENARIO_COMMON["out"],
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
    from .spin import OrthoTriple

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
    from .spin import run_singlet_spacetime
    return run_singlet_spacetime(
        triple_b, triple_a, values["trials"], values["seed"],
        measure_b=values["measure_b"], workers=values["workers"],
    )


def _cmd_epr(values: dict[str, Any]) -> ExperimentReport:
    config = from_values(EprConfig, values, master_seed=values["seed"],
                         workers=values["workers"])
    from .scenarios import run_epr_position
    return run_epr_position(config)


def _cmd_grw_run(values: dict[str, Any]) -> ExperimentReport:
    config = from_values(OracleComparisonConfig, values)
    from .scenarios import run_grw_ensemble
    return run_grw_ensemble(config, values["trajectories"], values["seed"],
                            workers=values["workers"])


def _cmd_oracle_compare(values: dict[str, Any]) -> ExperimentReport:
    config = from_values(OracleComparisonConfig, values, record_trials=bool(values["csv"]))
    from .scenarios import run_oracle_comparison
    return run_oracle_comparison(config, values["k"], values["seed"],
                                 workers=values["workers"])


def _cmd_ks_check(values: dict[str, Any]) -> ExperimentReport:
    from .ks import RaySet, search_coloring

    path = _rays_path(values)
    rays = RaySet.from_file(path)
    certificate = search_coloring(rays)
    witness = None
    if certificate.witness is not None:
        witness = [certificate.witness.values[i] for i in range(len(rays))]
    return ExperimentReport(
        scenario="ks_check",
        config={"rays": os.path.basename(path)},
        master_seed=None,
        aggregates={
            "n_rays": len(rays),
            "n_pairs": len(rays.structure.pairs),
            "n_triples": len(rays.structure.triples),
            "verdict": certificate.verdict,
            "nodes_explored": certificate.nodes_explored,
            "propagation_steps": certificate.propagation_steps,
            "witness": witness,
        },
    )


def _cmd_ck_trace(values: dict[str, Any]) -> ExperimentReport:
    from .ks import RaySet, ck_argument_trace

    path = _rays_path(values)
    rays = RaySet.from_file(path)
    try:
        trace = ck_argument_trace(rays)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return ExperimentReport(
        scenario="ck_trace",
        config={"rays": os.path.basename(path)},
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


def _check_output_path(key: str, path: str) -> None:
    """Reject an output path that cannot be written, before any work."""
    if os.path.isdir(path):
        raise ConfigError(f"key '{key}': {path} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"key '{key}': directory {folder} does not exist")


def _write_output(text: str, path: str | None, created: list[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        _cleanup([tmp])
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    created.append(path)


# each failure's message prefix and exit code (module docstring)
_EXIT_CODES = ((ConfigError, "error", 2), (NumericalError, "numerical error", 3),
               (InvariantViolationError, "internal invariant violation", 4),
               (WorkerLostError, "worker lost", 5))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created: list[str] = []
    try:
        values = _merge(args.command, args)
        for key in ("out", "csv"):
            if values.get(key):
                _check_output_path(key, values[key])
        report = _COMMANDS[args.command](values)
        # the table first: it keeps the cell texts the report then reuses
        if values.get("csv"):
            _write_output(report.trials_csv(), values["csv"], created)
        _write_output(report.to_json(), values.get("out"), created)
        return 0
    except Exception as exc:
        _cleanup(created)
        for kind, prefix, code in _EXIT_CODES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        # unexpected: treat as internal
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
