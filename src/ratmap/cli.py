"""Command-line front end.

    ratmap analyze <map.json> [--config cfg.json] [--out report.json]
                              [--text] [--render out.ppm]

Flags override the configuration file; the effective configuration is
echoed into the report for provenance.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, RatmapError
from .render import render_julia
from .report import AnalysisConfig, RenderConfig, parse_map, run_analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratmap",
        description="dynamical and operator-algebra analysis of rational maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="analyze a rational map")
    analyze.add_argument("map", help="JSON file with numerator/denominator coefficients")
    analyze.add_argument("--config", help="JSON configuration file")
    analyze.add_argument("--out", help="write the JSON report here (default: stdout)")
    analyze.add_argument("--text", action="store_true",
                         help="print the human-readable report to stdout")
    analyze.add_argument("--render", metavar="OUT.PPM",
                         help="write an escape-time image (binary PPM)")
    return parser


def _load_config(path: str | None) -> AnalysisConfig:
    if path is None:
        return AnalysisConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:
            raise ConfigError(f"configuration file is not valid JSON: {err}") from None
    return AnalysisConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.map, "rb") as fh:
            document = fh.read()
        config = _load_config(args.config)
        if args.render and config.render is None:
            config.render = RenderConfig()
        r = parse_map(document, tolerance=config.tolerance)
        report = run_analysis(r, config)
        if args.render:
            with open(args.render, "wb") as fh:
                fh.write(render_julia(r, config.render))
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(report.to_json_bytes())
        if args.text:
            sys.stdout.write(report.to_text())
        if not args.out and not args.text:
            sys.stdout.buffer.write(report.to_json_bytes())
    except RatmapError as err:
        print(f"error [{err.code}]: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
