"""Command-line interface: config-driven runs with CSV output.

Commands: spectrum, compare, gain-curve, transmission, detection.
Every output file starts with '#'-prefixed header lines carrying the
artifact version and the full resolved configuration (with the
--model and --scheme overrides applied), and contains no timestamps, so
identical configs produce byte-identical files.  A command refuses the
flags it does not read, so the header never records one that did not run.

Exit codes: 0 success, 2 configuration error, unreadable config,
unwritable output or out of memory, 3 numerical error.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__
from .config import DETECTION_SCHEMES, MODELS, _parse_field, parse_config, serialize_config
from .errors import ConfigError, SpdcEtalonError
from .simplified import SCHEMES
from .spectra import (
    SpectrumGrid,
    compare_grids,
    detection_spectrum,
    frequency_angular_spectra,
    gain_and_agreement_curve,
    transmission_curve,
    _mirror_map,
)

__all__ = ["run", "main"]

# The override flags each command reads, each with the RunConfig field it
# sets; `COMMANDS` is these keys in this order.
_FLAGS = {
    "spectrum": {"--model": "model", "--scheme": "schemes"},
    "compare": {"--scheme": "schemes"},
    "gain-curve": {},
    "transmission": {},
    "detection": {"--scheme": "detection_scheme"},
}
COMMANDS = tuple(_FLAGS)

# Cell spelling: floats are printf '%.9g' (9 significant digits; 'nan',
# 'inf', '-inf' and '-0' as printf writes them, see `_format_g9`), the bool
# mask is 0/1, and any other cell is its str ('%s'; '%d' for an integer).
# Rows formatted per write: bounds the memory of the byte buffers behind
# one write, whatever the row count.
_BLOCK_ROWS = 8192

# Tables of the '%.9g' kernel, one row per decimal exponent e at row
# e + _E0; the fast path sees e in [-14, 15].
_E0 = 14
_EXPS = range(-_E0, 17)


def _words(values):
    """Little-endian uint64 words; a bytes value is spelled in its word."""
    return np.array(
        [int.from_bytes(v, "little") if isinstance(v, bytes) else v for v in values], "<u8"
    )


def _fixed(e):
    """'%.9g' writes exponents -4..8 without 'e'."""
    return -4 <= e < 9


# 10**(8 - e) scales |x| in [10**e, 10**(e+1)) to its 9-digit significand:
# an exact double for e <= 8, a correctly rounded reciprocal above.
_SCALE = np.array([float(10 ** (8 - e)) if e <= 8 else 1 / float(10 ** (e - 8)) for e in _EXPS])
# The decimal point follows digit _POINT of the run: after the integer
# digits, after the first digit in exponent notation, after the leading 0
# of 0.000ddd.  A 0 digit is inserted there into the 9-digit significand q,
# which is split at _INSERT (0.000ddd needs no split: its leading 0 comes
# from left-aligning), and the run is left-aligned in 14 digits by _ALIGN.
_POINT = np.array([e if 0 <= e < 9 else 0 for e in _EXPS])
_MIN_DIGITS = _POINT + 1  # digits kept even when they are trailing zeros
_INSERT = np.array(
    [1e9 if e < 0 and _fixed(e) else float(10 ** (8 - p)) for e, p in zip(_EXPS, _POINT.tolist())]
)
_ALIGN = np.array([float(10 ** (4 + e)) if e < 0 and _fixed(e) else 1e4 for e in _EXPS])
# XOR turns the inserted '0' into '.'; bytes 0-7 and 8-13 of the run.
_DOT_HI = _words([0x1E << 8 * (p + 1) if p < 7 else 0 for p in _POINT.tolist()])
_DOT_LO = _words([0x1E << 8 * (p - 7) if p >= 7 else 0 for p in _POINT.tolist()])
_SUFFIX = _words([b"\0\0\0" + (b"" if _fixed(e) else b"e%+03d" % e) for e in _EXPS])
# AND keeps the first n bytes of the run.
_KEEP_HI = _words([(1 << 8 * min(n, 8)) - 1 for n in range(15)])
_KEEP_LO = _words([(1 << 8 * max(n - 8, 0)) - 1 for n in range(15)])
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype="<u8")
_D4 = (  # the 4 ASCII digits of v, in the low bytes of word v
    _ASCII[:, None, None, None]
    | _ASCII[:, None, None] << np.uint64(8)
    | _ASCII[:, None] << np.uint64(16)
    | _ASCII << np.uint64(24)
).ravel()
_D4_HI = _D4 << np.uint64(32)
_D2_HI = _D4[:100] << np.uint64(16)
_SLOT = 16  # bytes per float cell: the longest '%.9g' of a double


def _header_lines(config, command):
    lines = [f"# spdc-etalon {__version__}", f"# command: {command}"]
    for raw in serialize_config(config).strip().splitlines():
        lines.append(f"# {raw}" if raw else "#")
    return lines


def _format_g9(x):
    """'%.9g' of every element of `x` as (n, _SLOT) uint8, NUL-padded.

    A cell's bytes appear in order, with NUL bytes between and after them.
    For 1e-13 <= |x| < 1e15 the 9-digit significand is |x| times a
    tabulated power of ten, rounded; that product is off by less than
    2e-7, so the rounding is printf's wherever its fraction lies more
    than 1e-6 from one half.  The digits, with a 0 inserted where the
    decimal point goes and left-aligned in 14 digits (so 0.000ddd gets its
    leading zeros), are looked up four at a time as ASCII and packed into
    two 64-bit words with the sign and the 'e+XX' suffix; masks turn the
    inserted 0 into '.' and drop trailing zeros.  Zeros become '0' or
    '-0'.  The other cells (near-ties, nan, inf, tiny and huge values) are
    formatted by printf itself.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-13) & (a < 1e15)
    zero = a == 0
    a[~fast] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp)
    i += _E0
    m = a * _SCALE[i]
    q = np.rint(m)
    m -= q
    np.abs(m, out=m)
    slow = m >= 0.5 - 1e-6
    # log10 can be off by one only next to a power of ten, where q comes
    # out as 1e8 or 1e9 (see `over`); anything else goes to printf.
    slow |= q < 1e8
    slow |= q > 1e9
    slow |= ~fast & ~zero
    over = q == 1e9
    i[over] += 1
    q[over] = 1e8
    q[zero] = 0.0
    p = _INSERT[i]
    q += np.floor(q / p) * p * 9.0
    q *= _ALIGN[i]
    # ASCII of the 14-digit run, 4 + 4 | 4 + 2 digits at a time.
    top = np.floor(q / 1e10)
    q -= top * 1e10
    mid = np.floor(q / 1e6)
    q -= mid * 1e6
    low = np.floor(q / 1e2)
    q -= low * 1e2
    run_hi = _D4[top.astype(np.intp)]
    run_hi |= _D4_HI[mid.astype(np.intp)]
    run_lo = _D4[low.astype(np.intp)]
    run_lo |= _D2_HI[q.astype(np.intp)]
    # Keep the run up to its last nonzero digit, found from the exponent of
    # the digit values read as one float (highest set bit // 8).
    f = (run_lo ^ np.uint64(0x303030303030)).astype(np.float64)
    f *= 2.0**64
    f += (run_hi ^ np.uint64(0x3030303030303030)).astype(np.float64)
    keep = (f.view(np.int64) >> 52) - 1015 >> 3
    np.maximum(keep, _MIN_DIGITS[i], out=keep)
    run_hi ^= _DOT_HI[i]
    run_hi &= _KEEP_HI[keep]
    run_lo ^= _DOT_LO[i]
    run_lo &= _KEEP_LO[keep]
    # Cell bytes: the sign, the 14-byte run, the exponent suffix at 11-14.
    out = np.empty((x.size, 2), "<u8")
    word = run_hi << np.uint64(8)
    word |= (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
    out[:, 0] = word
    run_hi >>= np.uint64(56)
    run_lo <<= np.uint64(8)
    run_lo |= run_hi
    np.bitwise_or(run_lo, _SUFFIX[i], out=out[:, 1])
    if slow.any():
        out[slow] = _text_cells("%.9g", x[slow], _SLOT).view("<u8")
    return out.view(np.uint8)


def _text_cells(spec, values, width=None):
    """printf `spec` of each value as (n, width) uint8, NUL-padded."""
    cells = [(spec % v).encode("utf-8") for v in values.tolist()]
    if any(b"\0" in c for c in cells):
        raise ValueError("a text cell contains a NUL byte")
    slots = np.array(cells, dtype=f"S{width}" if width else bytes)
    return slots.view(np.uint8).reshape(len(cells), slots.dtype.itemsize)


def _cells(col):
    """Bytes of the cells of `col` in C order, one NUL-padded row each."""
    if col.dtype.kind == "f":
        return _format_g9(col)
    if col.dtype.kind == "b":
        return col.reshape(-1, 1).view(np.uint8) + np.uint8(ord("0"))
    return _text_cells("%s", col.ravel())


def _column(values):
    """`values` as an array, text as str objects: numpy's str dtype would
    drop a trailing NUL before `_text_cells` could reject it."""
    col = np.asarray(values)
    return np.asarray(values, dtype=object) if col.dtype.kind == "U" else col


@contextmanager
def _staged(*paths):
    """Yield a `<name>.part` path to write in the block for each path.

    When the block succeeds, the parts are renamed over their paths;
    when it fails, or a path is a directory, the parts are removed and
    no path changes.
    """
    parts = [path.with_suffix(path.suffix + ".part") for path in paths]
    try:
        yield parts
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for part, path in zip(parts, paths):
            part.replace(path)
    except BaseException:
        for part in parts:
            with suppress(OSError):  # gone already, or a directory not ours
                part.unlink()
        raise


def _write_csv(path, config, command, columns, data):
    """Write one CSV to `path`, as it stands: `run` passes the `.part`
    path of a `_staged` block, which removes it if anything fails.

    `data` holds one column per name in `columns`, each a pair `(values,
    index)`: `values` is 2-D with one row per block of rows (a wavelength
    of a grid, a row of a 1-D table), or a single row that serves every
    block, and `index` is 1-D, so the cell at place c of block r is
    `values[r, index[c]]` (`values[0, index[c]]` for a single row).  A
    plain 1-D array or list is the pair `(col[:, None], [0])`.  A
    `values` of one row or at most `_BLOCK_ROWS` cells is formatted once,
    the others block by block, and each column's cells reach the rows
    through one gather by its index.
    Blocks are written about `_BLOCK_ROWS` rows at a time: each is one
    uint8 array with a NUL-padded slot per cell and ',' and '\\n' at fixed
    columns, written without its NUL bytes.  Text cells must not contain
    NUL.
    """
    if len(data) != len(columns):
        raise ValueError("need one data column per column name")
    data = [col if isinstance(col, tuple) else (_column(col)[:, None], [0]) for col in data]
    blocks, inner = max(len(values) for values, _ in data), len(data[0][1])
    if any(len(values) not in (1, blocks) or len(index) != inner for values, index in data):
        raise ValueError("every column needs the same blocks and cells per block")
    kept = {
        k: _cells(v).reshape(len(v), v.shape[1], -1)
        for k, (v, _) in enumerate(data) if len(v) == 1 or v.size <= _BLOCK_ROWS
    }
    step = max(1, _BLOCK_ROWS // inner)
    with open(path, "wb") as fh:
        header = "\n".join([*_header_lines(config, command), ",".join(columns)]) + "\n"
        fh.write(header.encode("utf-8"))
        layout = None
        for lo in range(0, blocks, step):
            hi = min(lo + step, blocks)
            cells = [
                _cells(v[lo:hi]).reshape(hi - lo, v.shape[1], -1) if k not in kept
                else kept[k] if len(v) == 1 else kept[k][lo:hi]
                for k, (v, _) in enumerate(data)
            ]
            widths = [c.shape[-1] for c in cells]
            if layout != (hi - lo, widths):
                # Reused while the layout holds: a fresh buffer per block
                # costs page faults and separator writes.
                layout = (hi - lo, widths)
                buf = np.empty((hi - lo, inner, sum(widths) + len(widths)), np.uint8)
                ends = np.cumsum(widths) + np.arange(len(widths))
                buf[..., ends] = ord(",")
                buf[..., -1] = ord("\n")
            for (_, index), c, end, w in zip(data, cells, ends, widths):
                # Copied as one V{w} item per cell, not byte by byte.
                buf[..., end - w : end].view(f"V{w}")[..., 0] = c.view(f"V{w}")[:, index, 0]
            fh.write(buf.tobytes().translate(None, b"\0"))


def _grid_table(grid):
    """(columns, data) of a raw grid, unit-max normalized, wavelength-major:
    one block of rows per wavelength, one row per angle in each.

    The wavelength reaches every row of its block through a zero index,
    and the one row of angles serves every block.  The grid's columns at
    angles of one magnitude are one column (`spectra._mirror_map`), so the
    intensities and the mask are normalized and written at the distinct
    |theta| only, each with the index that spreads it over the angles.
    """
    first, inverse = _mirror_map(grid.internal_angles_rad)
    distinct = SpectrumGrid(
        grid.signal_wavelengths_nm, grid.internal_angles_rad[first],
        {k: v[:, first] for k, v in grid.intensity.items()}, grid.mask[:, first],
    ).normalized()
    return (
        ["lambda_nm", "theta_deg", *grid.intensity, "masked"],
        [
            (grid.signal_wavelengths_nm[:, None], np.zeros(inverse.size, np.intp)),
            (np.degrees(grid.internal_angles_rad)[None, :], np.arange(inverse.size)),
            *((v, inverse) for v in distinct.intensity.values()),
            (distinct.mask, inverse),
        ],
    )


def _out_path(config, args, default_name):
    if args.out:
        return Path(args.out)
    if config.output_path:
        return Path(config.output_path)
    return Path(default_name)


def run(command, config, out_path, threads=1):
    """Execute one CLI command against a validated RunConfig.

    The command computes every file's table first, as {path: (columns,
    data)}; then one `_staged` block writes them all, so they replace
    their paths together, and none changes when anything fails.
    `compare` prints its R-squared lines after its files are in place.
    Returns the written paths.
    """
    out_path = Path(out_path)
    lines = []
    if command == "spectrum":
        grids = frequency_angular_spectra(config, (config.model,), threads=threads)
        tables = {out_path: _grid_table(grids[config.model])}
    elif command == "compare":
        grids = frequency_angular_spectra(config, ("simplified", "rigorous"), threads=threads)
        r2 = [compare_grids(grids["simplified"], grids["rigorous"], s) for s in config.schemes]
        tables = {
            out_path.with_name(f"{out_path.stem}_{name}.csv"): _grid_table(grid)
            for name, grid in grids.items()
        }
        summary = out_path.with_name(out_path.stem + "_summary.csv")
        tables[summary] = (["scheme", "r_squared"], [list(config.schemes), r2])
        lines = [f"r_squared[{s}] = {rr:.12g}" for s, rr in zip(config.schemes, r2)]
    elif command == "gain-curve":
        curve = gain_and_agreement_curve(config, threads=threads)
        tables = {out_path: (list(curve), list(curve.values()))}
    elif command == "transmission":
        lams, trans, mask = transmission_curve(config)
        tables = {out_path: (["lambda_nm", "transmission", "masked"], [lams, trans, mask])}
    elif command == "detection":
        lams, rate, mask = detection_spectrum(config, threads=threads)
        tables = {out_path: (["lambda_nm", "relative_rate", "masked"], [lams, rate, mask])}
    else:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")

    with _staged(*tables) as parts:
        for part, (columns, data) in zip(parts, tables.values()):
            _write_csv(part, config, command, columns, data)
    for line in lines:
        print(line)
    return list(tables)


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
        help=f"emission scheme override (spectrum/compare: {','.join(SCHEMES)}; "
        f"detection: {'/'.join(DETECTION_SCHEMES)})",
    )
    parser.add_argument("--out", help="output path (or prefix for compare)")
    parser.add_argument(
        "--threads", type=int, default=1, help="worker count; results are identical for any value"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


# The (param, value) pairs `main` passes to glibc's mallopt (malloc.h).
# Arrays below 32 MiB (glibc's own ceiling for its dynamic threshold)
# come from the heap, which is not trimmed until 64 MiB (twice the
# threshold, as glibc keeps it) are free at its top; and with one arena,
# what the sweep's workers free, the writer reuses.
_ALLOCATOR_POLICY = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD
    (-1, 64 << 20),  # M_TRIM_THRESHOLD
    (-8, 1),  # M_ARENA_MAX
)


def _pin_allocator_policy():
    """Keep freed sweep memory for reuse instead of returning it to the OS.

    Each chunk of a sweep frees temporaries that the next chunk needs
    again; by default glibc unmaps or trims them, and the next chunk
    faults every page back in.  `main` applies it on glibc only
    (elsewhere this does nothing); library callers keep their own
    allocator settings.  No arithmetic changes, so no output byte does.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _ALLOCATOR_POLICY:
        mallopt(param, value)


def main(argv=None):
    _pin_allocator_policy()
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        reads = _FLAGS[args.command]
        given = {flag: getattr(args, flag[2:]) for names in _FLAGS.values() for flag in names}
        for flag, value in given.items():
            if value is not None and flag not in reads:
                raise ConfigError(f"{flag}: {args.command} does not read this flag")
        config = parse_config(text)
        # The flags override the config before the run, so the header
        # records what ran; each is parsed and checked as the key it sets.
        for flag, name in reads.items():
            if given[flag] is not None:
                try:
                    value = _parse_field(name, given[flag])
                    config = config._replace_keeping_stack(**{name: value})
                except ConfigError as exc:
                    raise ConfigError(f"{flag}: {exc}") from None
        if args.threads < 1:
            raise ConfigError("--threads: must be >= 1")
    except ConfigError as exc:
        message = str(exc)
        if message.startswith("malformed config: "):  # configparser names the text '<string>'
            message = message.replace(repr("<string>"), repr(args.config), 1)
        print(f"config error: {message}", file=sys.stderr)
        return 2

    out_path = _out_path(config, args, f"{args.command.replace('-', '_')}.csv")
    try:
        written = run(args.command, config, out_path, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpdcEtalonError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
