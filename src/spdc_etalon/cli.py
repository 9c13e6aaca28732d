"""Command-line interface: config-driven runs with CSV output.

Commands: spectrum, compare, gain-curve, transmission, detection.
Every output file starts with '#'-prefixed header lines carrying the
artifact version and the full resolved configuration, and contains no
timestamps, so identical configs produce byte-identical files.

Exit codes: 0 success, 2 configuration error or unreadable config /
unwritable output, 3 numerical error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import DETECTION_SCHEMES, MODELS, parse_config, serialize_config
from .errors import ConfigError, SpdcEtalonError
from .simplified import SCHEMES
from .spectra import (
    EnvelopeModel,
    GainCurvePoint,
    compare_grids,
    detection_spectrum,
    frequency_angular_spectra,
    frequency_angular_spectrum,
    gain_and_agreement_curve,
    transmission_curve,
)

__all__ = ["run", "main"]

COMMANDS = ("spectrum", "compare", "gain-curve", "transmission", "detection")

# Cell spelling per numpy dtype kind: floats keep 9 significant digits
# ('nan', 'inf', '-inf' and '-0' as printf writes them), integers and the
# bool mask are written as integers, strings as they are.
_CELL_SPECS = {"f": "%.9g", "i": "%d", "b": "%d", "U": "%s"}
# Rows formatted per write: bounds the memory of the formatted text and of
# the Python objects behind it, whatever the row count.
_BLOCK_ROWS = 8192


def _header_lines(config, command):
    lines = [f"# spdc-etalon {__version__}", f"# command: {command}"]
    for raw in serialize_config(config).strip().splitlines():
        lines.append(f"# {raw}" if raw else "#")
    return lines


def _write_csv(path, config, command, columns, data):
    """Write one CSV atomically; remove partial output on failure.

    `data` holds one array per name in `columns`; the arrays broadcast to
    one shape, whose elements are the rows in C order.  A column smaller
    than that shape (a grid axis) has each element formatted once.  Each
    row is formatted by one printf template built from the column dtypes
    (see `_CELL_SPECS`), about `_BLOCK_ROWS` rows per write.
    """
    if len(data) != len(columns):
        raise ValueError("need one data column per column name")
    data = [np.asarray(col) for col in data]
    shape = np.broadcast_shapes(*(col.shape for col in data))
    outer, inner = shape[0], math.prod(shape[1:])
    specs = []
    for k, col in enumerate(data):
        spec = _CELL_SPECS[col.dtype.kind]
        if col.size < outer * inner:
            cells = [spec % v for v in col.ravel().tolist()]
            col = np.array(cells, dtype=object).reshape(col.shape)
            spec = "%s"
        data[k] = np.broadcast_to(col, shape).reshape(outer, inner)
        specs.append(spec)
    template = ",".join(specs) + "\n"
    step = max(1, _BLOCK_ROWS // inner)
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".part")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join([*_header_lines(config, command), ",".join(columns)]) + "\n")
            for lo in range(0, outer, step):
                cells = [col[lo : lo + step].ravel().tolist() for col in data]
                fh.write("".join([template % row for row in zip(*cells)]))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_grid(path, config, command, grid):
    """Write a grid wavelength-major: one row per (wavelength, angle) pixel."""
    _write_csv(
        path,
        config,
        command,
        ["lambda_nm", "theta_deg", *grid.intensity, "masked"],
        [
            grid.signal_wavelengths_nm[:, None],
            np.degrees(grid.internal_angles_rad)[None, :],
            *grid.intensity.values(),
            grid.mask,
        ],
    )


def _out_path(config, args, default_name):
    if args.out:
        return Path(args.out)
    if config.output_path:
        return Path(config.output_path)
    return Path(default_name)


def _envelope_from(config):
    if config.envelope_center_nm is None or config.envelope_fwhm_nm is None:
        return None
    return EnvelopeModel(
        center_nm=config.envelope_center_nm,
        fwhm_nm=config.envelope_fwhm_nm,
        amplitude=config.envelope_amplitude,
    )


def run(command, config, out_path, threads=1, model=None, scheme=None):
    """Execute one CLI command against a validated RunConfig."""
    if command == "spectrum":
        grid = frequency_angular_spectrum(config, model=model, threads=threads).normalized()
        _write_grid(out_path, config, command, grid)
        return [out_path]

    if command == "compare":
        grids = frequency_angular_spectra(config, ("simplified", "rigorous"), threads=threads)
        simplified, rigorous = grids["simplified"], grids["rigorous"]
        stem = Path(out_path)
        paths = {
            "simplified": stem.with_name(stem.stem + "_simplified.csv"),
            "rigorous": stem.with_name(stem.stem + "_rigorous.csv"),
            "summary": stem.with_name(stem.stem + "_summary.csv"),
        }
        for name, grid in (("simplified", simplified), ("rigorous", rigorous)):
            _write_grid(paths[name], config, command, grid.normalized())
        r2 = [compare_grids(simplified, rigorous, scheme=s) for s in config.schemes]
        for s, rr in zip(config.schemes, r2):
            print(f"r_squared[{s}] = {rr:.12g}")
        _write_csv(
            paths["summary"], config, command, ["scheme", "r_squared"], [config.schemes, r2]
        )
        return list(paths.values())

    if command == "gain-curve":
        points = gain_and_agreement_curve(config, threads=threads)
        columns = [f.name for f in fields(GainCurvePoint)]
        data = [[getattr(p, c) for p in points] for c in columns]
        _write_csv(out_path, config, command, columns, data)
        return [out_path]

    if command == "transmission":
        lams, trans, mask = transmission_curve(config)
        _write_csv(
            out_path, config, command, ["lambda_nm", "transmission", "masked"], [lams, trans, mask]
        )
        return [out_path]

    if command == "detection":
        lams, rate, mask = detection_spectrum(
            config,
            scheme=scheme,
            envelope=_envelope_from(config),
            threads=threads,
        )
        _write_csv(
            out_path, config, command, ["lambda_nm", "relative_rate", "masked"], [lams, rate, mask]
        )
        return [out_path]

    raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spdc-etalon",
        description=(
            "Photon-pair emission spectra of a nonlinear slab between "
            "reflective interfaces: rigorous scattering-matrix model, "
            "low-gain multiplicative model, and their comparison."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI config file")
    parser.add_argument("--model", choices=MODELS, help="override model.kind")
    parser.add_argument(
        "--scheme",
        help="emission scheme override (spectrum/compare: ff,bb,fb,bf; "
        "detection: forward/backward/forward_backward)",
    )
    parser.add_argument("--out", help="output path (or prefix for compare)")
    parser.add_argument(
        "--threads", type=int, default=1, help="worker count; results are identical for any value"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text)
        detection_scheme = None
        if args.scheme:
            if args.command == "detection":
                if args.scheme not in DETECTION_SCHEMES:
                    raise ConfigError(
                        f"--scheme: must be one of {DETECTION_SCHEMES} for detection"
                    )
                detection_scheme = args.scheme
            else:
                schemes = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
                if any(s not in SCHEMES for s in schemes):
                    raise ConfigError(f"--scheme: entries must be among {SCHEMES}")
                config = replace(config, schemes=schemes)
        if args.threads < 1:
            raise ConfigError("--threads: must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_path = _out_path(config, args, f"{args.command.replace('-', '_')}.csv")
    try:
        written = run(
            args.command,
            config,
            out_path,
            threads=args.threads,
            model=args.model,
            scheme=detection_scheme,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SpdcEtalonError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
