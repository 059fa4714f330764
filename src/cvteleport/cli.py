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
``report``, ``bell`` and ``squeeze`` run without loading it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import asdict
from typing import Any

from .criteria import CRITERIA, Region, _columns, _quads, classical_bound_check, classify
from .montecarlo import Estimate, _estimates, sample_criteria
from .predictions import BellParams, bell_s, symmetric_output_variance
from .quadrature import InputState
from .teleporter import (
    Family,
    Teleporter,
    _added_noise,
    make_classical_measure_resend,
    make_epr,
    make_single_mode,
)

MAX_CLI_GAIN = 2.0


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Route argparse usage errors through the exit-code-1 path.
    def error(self, message: str):  # noqa: D102
        raise ConfigError(message)


@functools.cache  # argparse builds a fresh namespace per parse, so one parser serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="cvteleport", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--family", choices=[f.value for f in Family if f is not Family.CUSTOM])
    common.add_argument("--lambda", dest="lam", type=float, help="teleporter gain, in [-2, 2]")
    common.add_argument("--resource", type=float, help="V_ent or V_s, in (0, 1]")
    common.add_argument("--vin-plus", type=float, help="input amplitude-quadrature variance")
    common.add_argument("--vin-minus", type=float, help="input phase-quadrature variance")
    common.add_argument("--shots", type=int, help="Monte Carlo shots")
    common.add_argument("--seed", type=int, help="Monte Carlo seed")
    common.add_argument("--out", help="output file path")

    sub.add_parser("report", parents=[common], help="criteria report for one teleporter")
    sub.add_parser("sweep", parents=[common], help="criteria over a gain x resource grid")
    mc = sub.add_parser("mc", parents=[common], help="Monte Carlo verification table")
    mc.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    mc.add_argument("--corrupt-analytic", action="store_true", help=argparse.SUPPRESS)
    sub.add_parser("bell", parents=[common], help="Bell correlation over a v_cvf grid")
    sub.add_parser("squeeze", parents=[common], help="output squeezing over a v_cvf grid")
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


# (flag attribute, dotted config field) for every flag that overrides the config.
_FLAG_FIELDS = (
    ("family", "family"),
    ("lam", "lambda"),
    ("resource", "resource"),
    ("vin_plus", "input.v_plus"),
    ("vin_minus", "input.v_minus"),
    ("shots", "mc.shots"),
    ("seed", "mc.seed"),
    ("out", "out"),
)


def _merge(config: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    """Overlay command-line flags on the config file contents."""
    merged = dict(config)
    for attr, field in _FLAG_FIELDS:
        value = getattr(args, attr, None)
        if value is None:
            continue
        section, _, key = field.rpartition(".")
        if section:
            base = merged.get(section)
            if base is not None and not isinstance(base, dict):
                raise ConfigError(f"{section} must be an object, got {base!r}")
            merged[section] = {**(base or {}), key: value}
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
        s_plus=_value(config, "input.s_plus", float, 0.0),
        s_minus=_value(config, "input.s_minus", float, 0.0),
    )


_MAKERS = {
    Family.EPR: make_epr,
    Family.SINGLE_MODE: make_single_mode,
    Family.CLASSICAL: lambda gain, resource: make_classical_measure_resend(gain),
}


def _family(name: str) -> Family:
    """The built-in family called ``name``."""
    if name not in _MAKERS:
        raise ConfigError(f"unknown family: {name}")
    return Family(name)


def _teleporter(family: str, gain: float, resource: float | None) -> Teleporter:
    """Built-in teleporter; the classical family ignores ``resource``."""
    make = _MAKERS[_family(family)]
    if resource is None and family != Family.CLASSICAL:
        raise ConfigError("missing required field: resource")
    return make(gain, resource)


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
    if steps == 1:
        return [lo]
    # Endpoints land exactly on min and max.
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]


_V_CVF_GRID = (0.1, 2.0, 20)


def _fmt(value: float) -> str:
    return repr(float(value))


def _emit(pieces: str | Iterable[str], out_path: str | None) -> None:
    if isinstance(pieces, str):
        pieces = (pieces,)
    if out_path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
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


def _first_rejected(family: Family, gain: float, resource_grid: list[float]):
    """(index, error) of the first resource the family's constructor rejects, or None.

    A constructor rejects only resources outside (0, 1] or with an added
    noise that is not finite, so only those are built.
    """
    import numpy as np

    if family == Family.CLASSICAL:
        return None  # no resource parameter
    resources = np.array(resource_grid)
    with np.errstate(all="ignore"):
        noise = _added_noise(family, gain, resources)
    suspects = ~((resources > 0.0) & (resources <= 1.0) & np.isfinite(noise))
    for j in np.flatnonzero(suspects).tolist():
        try:
            _teleporter(family, gain, resource_grid[j])
        except ValueError as exc:
            return j, exc
    return None


def _sweep(family: Family, lambda_grid: list[float], resource_grid: list[float], state: InputState):
    """The CRITERIA of the row-major grid, one column per point, and its regions.

    Each point's values are those of ``classify(_teleporter(family, gain,
    resource), state)``; the error of the first point, in row-major order,
    that this rejects is raised before anything is returned.
    """
    import numpy as np

    rejected = _first_rejected(family, lambda_grid[0], resource_grid)
    if rejected is not None:
        # Only the first row's points before the rejected one can fail earlier.
        lambda_grid, resource_grid = lambda_grid[:1], resource_grid[: rejected[0]]
    gains = np.repeat(lambda_grid, len(resource_grid))
    resources = np.tile(resource_grid, len(lambda_grid))
    table = np.empty((len(CRITERIA), gains.size))
    regions = np.empty(gains.size, dtype=object)
    for start in range(0, gains.size, _SWEEP_CHUNK):
        chunk = slice(start, start + _SWEEP_CHUNK)
        gain = gains[chunk]
        with np.errstate(all="ignore"):
            noise = _added_noise(family, gain, resources[chunk])
        quads = (
            (gain, np.full_like(gain, state.v_plus), noise),
            (gain, np.full_like(gain, state.v_minus), noise),
        )
        table[:, chunk], regions[chunk] = _columns(quads)
    if rejected is not None:
        raise rejected[1]
    return table, regions


def _sweep_text(table, regions, lambda_grid: list[float], resource_grid: list[float]):
    """The sweep CSV, one string per chunk of rows.

    Within a row, each criterion whose float64 bits equal those of an
    earlier one reuses its text, so each distinct value is formatted once;
    bits, not ==, so that -0.0 and 0.0 keep their own text.
    """
    import numpy as np

    gain_text = np.array([_fmt(g) for g in lambda_grid], dtype=object)
    resource_text = np.array([_fmt(r) for r in resource_grid], dtype=object)
    region_text = {region: region.value for region in Region}
    width = len(CRITERIA)
    # One row of cells: lambda, resource, the CRITERIA and the region, each
    # followed by its separator.
    cells = np.empty((min(_SWEEP_CHUNK, len(regions)), 2 * (width + 3)), dtype=object)
    cells[:, 1::2] = ","
    cells[:, -1] = "\n"
    yield SWEEP_HEADER + "\n"
    for start in range(0, len(regions), _SWEEP_CHUNK):
        values = np.ascontiguousarray(table[:, start : start + _SWEEP_CHUNK].T)
        rows = len(values)
        bits = values.view(np.uint64)
        # first[r, k]: the first criterion of row r with the bits of criterion k
        first = (bits[:, :, None] == bits[:, None, :]).argmax(axis=1)
        own = first == np.arange(width)
        texts = np.array(list(map(repr, values[own].tolist())), dtype=object)
        # Index in texts of each value: of a row's own values first, then of all.
        slots = (np.cumsum(own) - 1).reshape(rows, width)
        chunk = cells[:rows]
        i, j = np.divmod(np.arange(start, start + rows), len(resource_grid))
        chunk[:, 0] = gain_text[i]
        chunk[:, 2] = resource_text[j]
        chunk[:, 4:-2:2] = texts[np.take_along_axis(slots, first, axis=1)]
        chunk[:, -2] = list(map(region_text.__getitem__, regions[start : start + rows].tolist()))
        yield "".join(chunk.ravel().tolist())


def _cmd_sweep(config: dict[str, Any], args: argparse.Namespace) -> int:
    family = _value(config, "family", str)
    out_path = _value(config, "out", str)
    lambda_grid = [_check_gain(g) for g in _grid(config, "sweep.lambda")]
    if family == Family.CLASSICAL.value:
        # No resource parameter; record the equivalent no-entanglement level.
        resource_grid = _grid(config, "sweep.resource", (1.0, 1.0, 1))
    else:
        resource_grid = _grid(config, "sweep.resource")
    state = _input_state(config)
    # Every point is evaluated and checked before the output file is opened.
    table, regions = _sweep(_family(family), lambda_grid, resource_grid, state)
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

    stats = sample_criteria(teleporter, state, shots, seed, workers=args.workers)
    analytic = _estimates(_quads(teleporter, state), shots)
    if args.corrupt_analytic:
        # self-check hook: must trip the 5-sigma gate
        analytic[0] = Estimate(analytic[0].value + 0.1, analytic[0].std_error)

    lines = [MC_HEADER]
    all_pass = True
    for (name, estimate), expected in zip(stats.as_dict().items(), analytic):
        # The gate's error, printed as std_error: the larger of the errors at the
        # analytic and the sampled (g, V_in, N), as either can vanish alone.
        error = max(expected.std_error, estimate.std_error)
        diff = abs(expected.value - estimate.value)
        z = diff / error if error else (math.inf if diff else 0.0)
        ok = diff <= 5.0 * error
        all_pass = all_pass and ok
        row = map(_fmt, (expected.value, estimate.value, error, z))
        lines.append(",".join([name, *row, "PASS" if ok else "FAIL"]))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_path = _value(config, "out", str, None)
    if out_path:
        _emit(text, out_path)
    n_pass = sum(1 for line in lines[1:] if line.endswith(",PASS"))
    print(f"mc verification: {n_pass}/{len(lines) - 1} PASS", file=sys.stderr)
    return 0 if all_pass else 2


BELL_HEADER = "v_cvf,lambda,s_i,s"


def _cmd_bell(config: dict[str, Any], args: argparse.Namespace) -> int:
    gain = _check_gain(_value(config, "lambda"))
    s_i = _value(config, "bell.s_i", float, 1.5)
    grid = _grid(config, "bell.v_cvf", _V_CVF_GRID)
    lines = [BELL_HEADER]
    for v_cvf in grid:
        try:
            s_value = _fmt(bell_s(BellParams(s_i=s_i, gain=gain, v_cvf=v_cvf)))
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
        squeezed = "true" if v_out < 1.0 else "false"
        lines.append(
            ",".join([_fmt(v_cvf), _fmt(gain), _fmt(state.v_plus), _fmt(v_out), squeezed])
        )
    _emit("\n".join(lines) + "\n", _value(config, "out", str, None))
    return 0


_COMMANDS = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
    "bell": _cmd_bell,
    "squeeze": _cmd_squeeze,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _merge(_load_config(args.config), args)
        return _COMMANDS[args.command](config, args)
    except (ConfigError, ValueError) as exc:
        # ValueError: a library entry point rejected the configured values.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
