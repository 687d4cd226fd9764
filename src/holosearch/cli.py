"""Command-line interface.

Four subcommands, each a thin wrapper over one experiment:

* ``holo run-ab``   A/B-compare random vs sorted pixel selection.
* ``holo scatter``  Quantisation-change vs error-change square-law scatter.
* ``holo hist``     Back-projection magnitude/angle/change histograms.
* ``holo render``   Single search run with rendered hologram and replay.

Flags may also come from a flat ``key = value`` config file via ``--config``;
explicit flags win over the file, the file wins over defaults. Keys match the
flag names (dashes or underscores both work), e.g. ``trace-stride = 50``.

``holo`` runs numpy's BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is
already set, so its output bytes do not depend on the number of cores.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

# One BLAS thread unless the caller chose a count: a threaded dot product sums
# in another order, so output bytes would follow the core count. OpenBLAS
# reads the variable once, when numpy first loads, which is the import below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .experiments import (
    ExperimentConfig,
    format_entry,
    run_convergence_ab,
    run_histograms,
    run_render,
    run_scatter_experiment,
)
from .search import ALGORITHMS, SELECTIONS
from .slm import ModulationScheme
from .targets import SYNTHETIC_NAMES

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _boolean_word(text: str) -> bool:
    """A config-file boolean (raises KeyError for anything else)."""
    return _BOOL_WORDS[text.lower()]


class _Option(NamedTuple):
    parse: Callable[[str], object]  # text -> value, for flags and config files
    help: str
    choices: tuple[str, ...] | None = None


# Every ExperimentConfig field, in field order, as a --flag and a config key.
# A boolean option is a --flag/--no-flag pair.
_OPTIONS = {
    "image": _Option(str, f"PGM path or builtin name ({', '.join(SYNTHETIC_NAMES)})"),
    "resolution": _Option(int, "square grid side (64..2048, powers of two)"),
    "scheme": _Option(str, "modulation scheme, e.g. binary-phase, phase:8, amplitude:cont"),
    "algorithm": _Option(str, "search algorithm", ALGORITHMS),
    "selection": _Option(str, "pixel selection policy", SELECTIONS),
    "iterations": _Option(int, "search iterations"),
    "seed": _Option(int, "master seed for all random streams"),
    "symmetry": _Option(_boolean_word, "max the target with its reflection through the DFT origin"),
    "t_coeff": _Option(float, "annealing start temperature (sa only)"),
    "t0": _Option(float, "annealing decay constant (sa only)"),
    "out_dir": _Option(str, "output directory (created if missing)"),
    "trace_stride": _Option(int, "iterations between trace samples"),
    "recompute_interval": _Option(int, "accepted updates between fresh transforms of the replay"
                                       " (of its leading rows for a real aperture)"),
    "scatter_samples": _Option(int, "pixels sampled by the scatter experiment"),
}


class _Subcommand(NamedTuple):
    help: str
    driver: Callable
    defaults: dict  # overrides of ExperimentConfig's defaults
    printed: tuple[str, ...]  # report fields printed as key = value lines
    announced: tuple[str, ...]  # artifacts printed as "wrote <path>"


_SUBCOMMANDS = {
    "run-ab": _Subcommand(
        "compare random vs sorted pixel selection on one configuration", run_convergence_ab, {},
        ("initial_mse", "final_mse_random", "final_mse_sps", "improvement_error_reduction",
         "accepted_random", "accepted_sps"),
        ("summary.txt",)),
    "scatter": _Subcommand(
        "single-pixel quantisation-change vs error-change scatter", run_scatter_experiment,
        {"scheme": "phase:cont"}, ("samples", "fit_coefficient", "pearson_fit_observed"), ("scatter.csv",)),
    "hist": _Subcommand(
        "back-projection magnitude, angle, and change histograms", run_histograms, {},
        ("pixels",), ("hist_magnitude.csv", "hist_angle.csv", "hist_change.csv")),
    "render": _Subcommand(
        "one search run; writes hologram and replay images", run_render, {},
        ("initial_mse", "final_mse", "accepted"), ("hologram.pgm", "replay.pgm")),
}


def parse_config_file(path) -> dict:
    """Read a flat key = value file into option values.

    Blank lines and ``#`` comments are ignored. Unknown keys and unparseable
    values raise ValueError naming the line number.
    """
    options: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                options[key] = _OPTIONS[key].parse(value)
            except KeyError:
                raise ValueError(f"{path}:{lineno}: expected a boolean word, got {value!r}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return options


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    # Defaults are all None so that "flag was given" is distinguishable from
    # "use config-file or built-in default".
    sub.add_argument("--config", metavar="FILE", help="flat key = value options file")
    for key, option in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if option.parse is _boolean_word:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, help=option.help)
        else:
            sub.add_argument(flag, type=option.parse, choices=option.choices, help=option.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holo",
        description="Search-based hologram optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in _SUBCOMMANDS.items():
        _add_common_flags(sub.add_parser(name, help=subcommand.help))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    options = dict(_SUBCOMMANDS[args.command].defaults)
    if args.config:
        options.update(parse_config_file(args.config))
    for key in _OPTIONS:
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    if "scheme" in options:
        options["scheme"] = ModulationScheme.from_name(options["scheme"])
    return ExperimentConfig(**options)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    subcommand = _SUBCOMMANDS[args.command]
    try:
        report = subcommand.driver(config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"holo: {exc}", file=sys.stderr)
        return 2
    for name in subcommand.printed:
        print(format_entry(name, getattr(report, name)))
    for name in subcommand.announced:
        print(f"wrote {report.paths[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
