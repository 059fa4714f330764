"""Command-line front end.

Subcommands: ``report`` (single-point criteria as JSON), ``sweep``
(gain x resource grid to CSV), ``mc`` (Monte Carlo verification table),
``bell`` and ``squeeze`` (prediction rows over a v_cvf grid).

Configuration comes from an optional JSON file (``--config``); command-line
flags always override file values.  All output is deterministic: floats are
serialized with their shortest round-trip representation and the mc command
is fully determined by config plus seed.  Exit codes: 0 success / all
checks passed, 1 usage or configuration error, 2 verification failure.

Only ``sweep`` and ``mc`` build arrays, and they import numpy on first use;
``report``, ``bell`` and ``squeeze`` run without loading it.  The Monte Carlo
sampler is loaded by ``mc`` alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable
from dataclasses import asdict
from typing import Any

from .criteria import CRITERIA, _REGIONS, _columns, _quads, classical_bound_check, classify
from .predictions import BellParams, bell_s, symmetric_output_variance
from .quadrature import InputState
from .teleporter import RESOURCE_NOISE, Family, Teleporter, _added_noise, _make

MAX_CLI_GAIN = 2.0
_FAMILIES = [family.value for family in Family if family is not Family.CUSTOM]


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the top-level parser's: each command's own parser

    # Route argparse usage errors through the exit-code-1 path.
    def error(self, message: str):  # noqa: D102
        raise ConfigError(message)


# Each flag that overrides a config field: (flag, dotted field, argparse options).
# The field is the flag's dest, so --help names it and _merge reads it back.
_FLAGS = (
    ("--family", "family", {"choices": _FAMILIES}),
    ("--lambda", "lambda", {"type": float, "help": "teleporter gain, in [-2, 2]"}),
    ("--resource", "resource", {"type": float, "help": "V_ent or V_s, in (0, 1]"}),
    ("--vin-plus", "input.v_plus", {"type": float, "help": "input amplitude-quadrature variance"}),
    ("--vin-minus", "input.v_minus", {"type": float, "help": "input phase-quadrature variance"}),
    ("--shots", "mc.shots", {"type": int, "help": "Monte Carlo shots"}),
    ("--seed", "mc.seed", {"type": int, "help": "Monte Carlo seed"}),
    ("--out", "out", {"help": "output file path"}),
)


@functools.cache  # argparse builds a fresh namespace per parse, so one parser serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="cvteleport", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for flag, field, options in _FLAGS:
        common.add_argument(flag, dest=field, **options)

    sub.add_parser("report", parents=[common], help="criteria report for one teleporter")
    sub.add_parser("sweep", parents=[common], help="criteria over a gain x resource grid")
    mc = sub.add_parser("mc", parents=[common], help="Monte Carlo verification table")
    mc.add_argument("--workers", type=int, default=1, help="sampling threads; output is unchanged")
    sub.add_parser("bell", parents=[common], help="Bell correlation over a v_cvf grid")
    sub.add_parser("squeeze", parents=[common], help="output squeezing over a v_cvf grid")
    parser.commands = sub.choices
    return parser


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must contain a JSON object")
    return config


def _merge(config: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    """Overlay command-line flags on the config file contents."""
    merged = dict(config)
    for _, field, _ in _FLAGS:
        value = getattr(args, field)
        if value is None:
            continue
        _lookup(merged, field)  # a section that is not an object raises
        section, _, key = field.rpartition(".")
        if section:
            merged[section] = {**(merged.get(section) or {}), key: value}
        else:
            merged[key] = value
    return merged


_REQUIRED = object()


def _lookup(config: dict[str, Any], field: str) -> Any:
    """Raw value at dotted ``field``, None if missing or null; a non-object section raises."""
    node: Any = config
    path: list[str] = []
    for part in field.split("."):
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(path)} must be an object, got {node!r}")
        path.append(part)
        node = node.get(part)
        if node is None:
            return None
    return node


def _value(config: dict[str, Any], field: str, kind: type = float, default: Any = _REQUIRED) -> Any:
    """The value at dotted ``field`` as ``kind``, or ``default``.

    A missing or null value without a default raises ConfigError, and so
    does a value of the wrong JSON type: ``float`` and ``int`` fields take
    numbers other than booleans (integral ones for ``int``, finite ones for
    ``float``), ``str`` fields take strings.
    """
    node = _lookup(config, field)
    if node is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field: {field}")
        return default
    if kind is str:
        valid = isinstance(node, str)
    else:
        valid = isinstance(node, (int, float)) and not isinstance(node, bool)
        if kind is int and isinstance(node, float):
            valid = node.is_integer()
    if not valid:
        raise ConfigError(f"{field} must be of type {kind.__name__}, got {node!r}")
    try:
        value = kind(node)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ConfigError(f"{field} must be finite, got {node!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {node!r}")
    return value


def _check_gain(gain: float) -> float:
    if not -MAX_CLI_GAIN <= gain <= MAX_CLI_GAIN:
        raise ConfigError(f"lambda must lie in [-2, 2], got {gain}")
    return float(gain)


def _input_state(config: dict[str, Any]) -> InputState:
    return InputState(
        v_plus=_value(config, "input.v_plus", float, 1.0),
        v_minus=_value(config, "input.v_minus", float, 1.0),
    )


def _family(name: str) -> Family:
    """The built-in family called ``name``."""
    if name not in _FAMILIES:
        raise ConfigError(f"unknown family: {name}")
    return Family(name)


def _teleporter(name: str, gain: float, resource: float | None) -> Teleporter:
    """Built-in teleporter; a family outside ``RESOURCE_NOISE`` ignores ``resource``."""
    family = _family(name)
    if resource is None and family in RESOURCE_NOISE:
        raise ConfigError("missing required field: resource")
    return _make(family, gain, resource)


def _grid(config: dict[str, Any], field: str, default: tuple | None = None) -> list[float]:
    """The (min, max, steps) grid at dotted ``field``; ``default`` if it is missing."""
    if default is not None and _lookup(config, field) is None:
        lo, hi, steps = default
    else:
        lo = _value(config, f"{field}.min")
        hi = _value(config, f"{field}.max")
        steps = _value(config, f"{field}.steps", int)
    if steps < 1:
        raise ConfigError(f"{field}.steps must be >= 1, got {steps}")
    if lo > hi:
        raise ConfigError(f"{field}: min must not exceed max")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{field}: max - min must be finite")
    if steps == 1:
        return [lo]
    # Endpoints land exactly on min and max.
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]


_V_CVF_GRID = (0.1, 2.0, 20)


def _fmt(value: float) -> str:
    return repr(float(value))


def _emit(pieces: str | Iterable[bytes], out_path: str | None) -> None:
    """Write ``pieces`` to ``out_path``, or a str to standard output where there is none.

    The file is overwritten in place and cut at what reached it, also when a
    write raises; a non-regular file (``/dev/null``, a FIFO) is not cut.
    Unlike a truncating open, this starts no write-out on ext4 at close, so
    a power loss soon after can leave the new length over old bytes.
    """
    if out_path is None:
        sys.stdout.write(pieces)
        return
    if isinstance(pieces, str):
        pieces = (pieces.encode(),)
    try:
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            try:
                handle.writelines(pieces)
                handle.flush()
            finally:  # what is still buffered after a raise goes after the cut, at close
                info = os.fstat(handle.fileno())
                if stat.S_ISREG(info.st_mode) and info.st_size > handle.raw.tell():
                    os.ftruncate(handle.fileno(), handle.raw.tell())
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _cmd_report(config: dict[str, Any], args: argparse.Namespace) -> int:
    family = _value(config, "family", str)
    gain = _check_gain(_value(config, "lambda"))
    resource = _value(config, "resource", float, None)
    teleporter = _teleporter(family, gain, resource)
    state = _input_state(config)
    try:
        bound_payload: dict[str, Any] | None = asdict(classical_bound_check(teleporter))
    except ValueError:
        bound_payload = None  # zero gain or non-finite product: bound undefined
    payload = {
        "family": family,
        "lambda": gain,
        "resource": resource,
        "input": {"v_plus": state.v_plus, "v_minus": state.v_minus},
        "criteria": asdict(classify(teleporter, state)),
        "classical_bound": bound_payload,
    }
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", _value(config, "out", str, None))
    return 0


SWEEP_HEADER = ",".join(("lambda", "resource", *CRITERIA, "region"))

_SWEEP_CHUNK = 2048  # grid points evaluated, and rows written, at a time


def _sweep(family: Family, lambda_grid: list[float], resource_grid: list[float], state: InputState):
    """The CRITERIA of the row-major grid, one column per point, and its indices into _REGIONS.

    Each point's values are those of ``classify(_make(family, gain, resource),
    state)``.  A family teleporter that builds has criteria, and it builds
    exactly where ``_added_noise`` is finite, so each chunk first builds its
    points with a noise that is not finite: the constructor's error for the
    first, in row-major order, is raised before anything is returned.
    """
    import numpy as np

    grid = np.empty((2, len(lambda_grid), len(resource_grid)))
    grid[0], grid[1] = np.array(lambda_grid)[:, None], resource_grid
    gains, resources = grid.reshape(2, -1)
    table = np.empty((len(CRITERIA), gains.size))
    regions = np.empty(gains.size, np.intp)
    for start in range(0, gains.size, _SWEEP_CHUNK):
        chunk = slice(start, start + _SWEEP_CHUNK)
        gain, resource = gains[chunk], resources[chunk]
        with np.errstate(all="ignore"):
            noise = _added_noise(family, gain, resource)
        for point in (~np.isfinite(noise)).nonzero()[0].tolist():
            row, column = divmod(start + point, len(resource_grid))
            _make(family, lambda_grid[row], resource_grid[column])  # raises
        quads = (
            (gain, np.full_like(gain, state.v_plus), noise),
            (gain, np.full_like(gain, state.v_minus), noise),
        )
        table[:, chunk], regions[chunk] = _columns(quads)
    return table, regions


def _text_rows(texts: Iterable[str]):
    """The ASCII ``texts`` as the NUL-padded rows of a uint8 matrix."""
    import numpy as np

    column = np.array(list(texts), dtype=bytes)
    return column.view(np.uint8).reshape(len(column), column.itemsize)


def _sweep_text(table, regions, lambda_grid: list[float], resource_grid: list[float]):
    """The sweep CSV as ASCII bytes: the header, then one piece per chunk of rows.

    A chunk's lines are joined column by column as one NUL-padded byte matrix,
    whose NULs are then deleted.  A criterion is a comma and the ``repr`` bytes
    from ``_shortest.reprs``, formatted once per distinct column of the chunk
    (distinct float64 bits, not ==, so that -0.0 and 0.0 keep their own text).
    """
    import numpy as np

    from ._shortest import reprs

    gain_text = _text_rows(map(repr, lambda_grid))  # the grids hold floats
    resource_text = _text_rows(f",{resource!r}" for resource in resource_grid)
    region_text = _text_rows(f",{region.value}\n" for region in _REGIONS)
    yield f"{SWEEP_HEADER}\n".encode()
    for start in range(0, len(regions), _SWEEP_CHUNK):
        values = table[:, start : start + _SWEEP_CHUNK]
        gain, resource = np.divmod(np.arange(start, start + values.shape[1]), len(resource_grid))
        columns = [column.tobytes() for column in values.view(np.uint64)]
        first = {bits: columns.index(bits) for bits in columns}  # the first with each one's bits
        texts = dict(zip(first, reprs(values[list(first.values())])))
        comma = np.full((gain.size, 1), ord(","), np.uint8)
        pieces = [gain_text.take(gain, axis=0), resource_text.take(resource, axis=0)]
        for bits in columns:
            pieces += (comma, texts[bits])
        pieces.append(region_text.take(regions[start : start + _SWEEP_CHUNK], axis=0))
        yield np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")
        del texts, pieces  # so that one chunk's matrices are alive at a time


def _cmd_sweep(config: dict[str, Any], args: argparse.Namespace) -> int:
    name = _value(config, "family", str)
    out_path = _value(config, "out", str)
    lambda_grid = [_check_gain(g) for g in _grid(config, "sweep.lambda")]
    family = _family(name)
    # A family without a resource records the equivalent no-entanglement level.
    no_resource = None if family in RESOURCE_NOISE else (1.0, 1.0, 1)
    resource_grid = _grid(config, "sweep.resource", no_resource)
    state = _input_state(config)
    # Every point is evaluated and checked before the output file is opened.
    table, regions = _sweep(family, lambda_grid, resource_grid, state)
    _emit(_sweep_text(table, regions, lambda_grid, resource_grid), out_path)
    return 0


MC_HEADER = "quantity,analytic,estimate,std_error,z_score,status"


def _cmd_mc(config: dict[str, Any], args: argparse.Namespace) -> int:
    family = _value(config, "family", str)
    gain = _check_gain(_value(config, "lambda"))
    teleporter = _teleporter(family, gain, _value(config, "resource", float, None))
    state = _input_state(config)
    shots = _value(config, "mc.shots", int, 100_000)
    seed = _value(config, "mc.seed", int, 0)
    out_path = _value(config, "out", str, None)

    sampler = sys.modules[__name__]  # whose sample_criteria and _estimates load on first use
    stats = sampler.sample_criteria(teleporter, state, shots, seed, workers=args.workers)
    analytic = sampler._estimates(_quads(teleporter, state), shots)

    lines = [MC_HEADER]
    n_pass = 0
    for (name, estimate), expected in zip(stats.as_dict().items(), analytic):
        # The gate's error, printed as std_error: the larger of the errors at the
        # analytic and the sampled (g, V_in, N), as either can vanish alone.
        error = max(expected.std_error, estimate.std_error)
        diff = abs(expected.value - estimate.value)
        z = diff / error if error else (math.inf if diff else 0.0)
        ok = diff <= 5.0 * error
        n_pass += ok
        row = map(_fmt, (expected.value, estimate.value, error, z))
        lines.append(",".join([name, *row, "PASS" if ok else "FAIL"]))
    text = "\n".join(lines) + "\n"
    if out_path is not None:  # first, so that a failed write leaves standard output empty
        _emit(text, out_path)
    sys.stdout.write(text)
    print(f"mc verification: {n_pass}/{len(analytic)} PASS", file=sys.stderr)
    return 0 if n_pass == len(analytic) else 2


BELL_HEADER = "v_cvf,lambda,s_i,s"


def _cmd_bell(config: dict[str, Any], args: argparse.Namespace) -> int:
    gain = _check_gain(_value(config, "lambda"))
    s_i = _value(config, "bell.s_i", float, 1.5)
    grid = _grid(config, "bell.v_cvf", _V_CVF_GRID)
    lines = [BELL_HEADER]
    for v_cvf in grid:
        params = BellParams(s_i=s_i, gain=gain, v_cvf=v_cvf)  # a bad setting raises, exit 1
        try:
            s_value = _fmt(bell_s(params))
        except ValueError:
            s_value = "error"  # degenerate denominator marker
        lines.append(",".join([_fmt(v_cvf), _fmt(gain), _fmt(s_i), s_value]))
    _emit("\n".join(lines) + "\n", _value(config, "out", str, None))
    return 0


SQUEEZE_HEADER = "v_cvf,lambda,v_in_plus,v_out_plus,squeezed"


def _cmd_squeeze(config: dict[str, Any], args: argparse.Namespace) -> int:
    gain = _check_gain(_value(config, "lambda"))
    state = _input_state(config)
    grid = _grid(config, "squeeze.v_cvf", _V_CVF_GRID)
    lines = [SQUEEZE_HEADER]
    for v_cvf in grid:
        v_out = symmetric_output_variance(v_cvf, gain, state.v_plus)
        row = map(_fmt, (v_cvf, gain, state.v_plus, v_out))
        lines.append(",".join([*row, "true" if v_out < 1.0 else "false"]))
    _emit("\n".join(lines) + "\n", _value(config, "out", str, None))
    return 0


_COMMANDS = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
    "bell": _cmd_bell,
    "squeeze": _cmd_squeeze,
}


def __getattr__(name: str) -> Any:
    # The sampler's entry points, imported on first use: only mc samples.
    if name in ("sample_criteria", "_estimates"):
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        # A command's own parser takes the arguments after its name, as the top-level
        # parser would hand them on; that one parses the rest: -h, none or an unknown name.
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        config = _merge(_load_config(args.config), args)
        return _COMMANDS[args.command](config, args)
    except (ConfigError, ValueError) as exc:
        # ValueError: a library entry point rejected the configured values.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid too large; each command computes before it opens --out
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
