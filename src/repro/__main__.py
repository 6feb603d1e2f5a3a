"""``python -m repro`` — the experiment command-line interface.

Three subcommands drive the registry:

``list``
    Enumerate the registered experiments (name, paper reference, knobs).

``run <name>``
    Run one experiment.  Every field of the experiment's config dataclass
    is exposed as a ``--field-name`` option (``--peer-count 120``,
    ``--attack-peak-bps 2e9``); ``--quick`` applies the registered smoke
    overrides and ``--json`` writes the full serialized result.

``sweep <name> --grid field=v1,v2,...``
    Run a grid of config points, optionally in parallel (``--jobs``) and
    incrementally against an artifact store (``--store``).

Examples::

    python -m repro list
    python -m repro run fig10c --peer-count 120 --json out.json
    python -m repro run fig9 --quick
    python -m repro sweep fig3c --grid peer_count=20,40 --grid attack_peak_bps=5e8,1e9 --jobs 8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from typing import Any, Optional

from .experiments.registry import ExperimentSpec, all_experiments, get_experiment

#: Config fields whose defaults are not scalars (hardware profiles,
#: category-share dicts) are not settable from the command line.
_SCALAR_TYPES = (bool, int, float, str)


def _option_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _settable_fields(spec: ExperimentSpec) -> dict[str, Any]:
    """``field name -> default`` for every CLI-settable config field.

    A field is settable when its default is a scalar or a flat sequence of
    scalars (the latter is parsed from a comma-separated list).
    """
    settable: dict[str, Any] = {}
    config = spec.config_cls()
    for field in spec.config_fields():
        default = getattr(config, field.name)
        if isinstance(default, _SCALAR_TYPES):
            settable[field.name] = default
        elif (
            isinstance(default, (tuple, list))
            and default
            and all(isinstance(item, (int, float)) for item in default)
        ):
            settable[field.name] = default
    return settable


def _convert(field_name: str, default: Any, text: str) -> Any:
    """Parse a CLI string against the field's default-value type."""
    try:
        if isinstance(default, bool):
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        if isinstance(default, int):
            try:
                return int(text, 0)
            except ValueError:
                value = float(text)  # accept 2e3 for integer fields
                if value.is_integer():
                    return int(value)
                raise ValueError(f"expected an integer, got {text!r}")
        if isinstance(default, float):
            return float(text)
        if isinstance(default, (tuple, list)):
            element_type = float if any(isinstance(i, float) for i in default) else int
            return tuple(element_type(part) for part in text.split(","))
        return text
    except ValueError as error:
        raise SystemExit(f"error: invalid value for {_option_name(field_name)}: {error}")


def _parse_overrides(spec: ExperimentSpec, tokens: Sequence[str]) -> dict[str, Any]:
    """Parse ``--field-name value`` / ``--field-name=value`` token pairs."""
    settable = _settable_fields(spec)
    overrides: dict[str, Any] = {}
    queue = list(tokens)
    while queue:
        token = queue.pop(0)
        if not token.startswith("--"):
            raise SystemExit(f"error: unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key_part, value = body.split("=", 1)
        else:
            key_part, value = body, None
        field_name = key_part.replace("-", "_")
        if field_name not in settable:
            options = ", ".join(_option_name(name) for name in settable)
            raise SystemExit(
                f"error: unknown option --{key_part} for {spec.name} "
                f"(config options: {options})"
            )
        if value is None:
            if not queue:
                raise SystemExit(f"error: option --{key_part} needs a value")
            value = queue.pop(0)
        overrides[field_name] = _convert(field_name, settable[field_name], value)
    return overrides


def _write_json(payload: Any, destination: Optional[str]) -> None:
    from .experiments.results import to_jsonable

    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=False)
    if destination is None or destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {destination}")


def _print_summary(summary: dict[str, Any]) -> None:
    if not summary:
        print("(no summary)")
        return
    width = max(len(str(key)) for key in summary)
    for key, value in summary.items():
        if isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = str(value)
        print(f"  {str(key).ljust(width)}  {rendered}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    specs = all_experiments()
    if args.json:
        payload = [
            {
                "name": spec.name,
                "figure": spec.figure,
                "title": spec.title,
                "aliases": list(spec.aliases),
                "config_fields": spec.config_field_names(),
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    name_width = max(len(spec.name) for spec in specs)
    figure_width = max(len(spec.figure) for spec in specs)
    for spec in specs:
        print(f"{spec.name.ljust(name_width)}  {spec.figure.ljust(figure_width)}  {spec.title}")
    print()
    print("run one with: python -m repro run <name> [--quick] [--json out.json] [config options]")
    return 0


def _cmd_run(args: argparse.Namespace, extra: list[str]) -> int:
    from .experiments.results import to_jsonable

    spec = get_experiment(args.experiment)
    overrides = _parse_overrides(spec, extra)
    config = spec.make_config(quick=args.quick, **overrides)
    result = spec.run(config)
    print(f"{spec.name} ({spec.figure}) — {spec.title}")
    print(f"config: {config}")
    summary = result.summary() if hasattr(result, "summary") else {}
    print("summary:")
    _print_summary(to_jsonable(summary))
    if args.json is not None:
        _write_json(result.to_dict(), args.json)
    return 0


def _parse_grid(spec: ExperimentSpec, grid_args: list[str]) -> dict[str, tuple[Any, ...]]:
    settable = _settable_fields(spec)
    grid: dict[str, tuple[Any, ...]] = {}
    for item in grid_args:
        if "=" not in item:
            raise SystemExit(
                f"error: --grid expects field=v1,v2,... (got {item!r})"
            )
        field_name, values_text = item.split("=", 1)
        field_name = field_name.replace("-", "_")
        if field_name not in settable:
            raise SystemExit(f"error: unknown grid field {field_name!r} for {spec.name}")
        default = settable[field_name]
        if not isinstance(default, _SCALAR_TYPES):
            # A sequence-typed field (e.g. dequeue_rates): the comma list is
            # one value, not a grid axis — there is no syntax for a grid of
            # tuples, so apply it to every point instead.
            raise SystemExit(
                f"error: {field_name} is a sequence-valued field and cannot be "
                f"a grid axis; pass it as a per-point override instead "
                f"({_option_name(field_name)} {values_text})"
            )
        grid[field_name] = tuple(
            _convert(field_name, default, part) for part in values_text.split(",")
        )
    return grid


def _cmd_sweep(args: argparse.Namespace, extra: list[str]) -> int:
    from .experiments.results import ResultStore
    from .experiments.sweep import Sweep, run_sweep

    spec = get_experiment(args.experiment)
    grid = _parse_grid(spec, args.grid or [])
    base = _parse_overrides(spec, extra)
    sweep = Sweep(
        experiment=spec.name,
        grid=grid,
        base=base,
        seed=args.seed_base,
        quick=args.quick,
    )
    store = ResultStore(args.store) if args.store else None
    result = run_sweep(sweep, jobs=args.jobs, store=store)
    print(
        f"{spec.name}: {len(result)} point(s), "
        f"{result.cached_points} cached, jobs={result.jobs}"
    )
    for point, summary in zip(result.points, result.summaries()):
        label = ", ".join(f"{key}={value}" for key, value in point.items()) or "(defaults)"
        headline = ", ".join(
            f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in list(summary.items())[:3]
        )
        print(f"  [{label}] {headline}")
    if args.json is not None:
        _write_json(result.to_dict(), args.json)
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: config overrides are parsed from the
    # leftover tokens, so argparse must not swallow e.g. --seed (a config
    # field on most experiments) as an abbreviation of --seed-base.
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments from the declarative registry.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered experiments", allow_abbrev=False
    )
    list_parser.add_argument("--json", action="store_true", help="emit JSON")

    run_parser = subparsers.add_parser(
        "run",
        help="run one experiment",
        description="Run one experiment; any config field is settable as "
        "--field-name VALUE (see `list` for names).",
        allow_abbrev=False,
    )
    run_parser.add_argument("experiment", help="registry name or alias (e.g. fig10c)")
    run_parser.add_argument("--quick", action="store_true", help="apply quick/smoke overrides")
    run_parser.add_argument(
        "--json", metavar="PATH", nargs="?", const="-",
        help="write the full result as JSON to PATH (or stdout with no value)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a config grid, optionally in parallel",
        description="Cartesian-product sweep over config fields; extra "
        "--field-name VALUE options apply to every point.",
        allow_abbrev=False,
    )
    sweep_parser.add_argument("experiment", help="registry name or alias")
    sweep_parser.add_argument(
        "--grid", action="append", metavar="FIELD=V1,V2,...",
        help="one grid axis (repeatable)",
    )
    sweep_parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sweep_parser.add_argument(
        "--seed-base", type=int, default=None,
        help="derive an independent per-point seed from this base",
    )
    sweep_parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="artifact-store directory for incremental re-runs",
    )
    sweep_parser.add_argument("--quick", action="store_true", help="apply quick/smoke overrides")
    sweep_parser.add_argument(
        "--json", metavar="PATH", nargs="?", const="-",
        help="write the sweep result as JSON to PATH (or stdout with no value)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "list":
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args, extra)
        if args.command == "sweep":
            return _cmd_sweep(args, extra)
    except BrokenPipeError:
        # The downstream reader (e.g. `... | head`) closed the pipe; point
        # stdout at devnull so the interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
