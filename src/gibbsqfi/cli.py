"""Batch command line: metric tables, sweeps, moments and the verify suite.

Jobs are described by a JSON config; outputs are CSV (tables) or JSON
(reports) and are a pure function of (config, seed), so reruns are
byte-identical.  Sweep points run in chunks, in grid order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import operator
import sys
import warnings
from dataclasses import asdict, dataclass

from . import families as fam
from .dsf import _Frame, _pair_tables, build_dsf, sum_rule_report
from .hilbert import _scaled_state, eigendecompose, read_operator_json, write_operator_json
from .inequalities import run_verification_suite
from .metrics import METHODS, _evaluate, _moment_order
from .models import BosonModel, SpinModel

__all__ = ["main", "JobConfig", "run_metric_job"]

_CHUNK = 2**16  # bound on a chunk's entries per array, 512 KiB of floats: a spin or boson sweep is one chunk


class UsageError(Exception):
    """Invalid configuration or arguments; maps to exit code 2."""


def _is_finite_number(value) -> bool:
    """A finite int or float (not bool); json reads 1e400 as inf and NaN as nan."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


@dataclass
class JobConfig:
    """Validated batch job description."""

    model: dict
    beta: float
    families: list[fam.MonotoneFamily]
    methods: list[str]
    sweep: dict | None
    output: dict | None

    @classmethod
    def from_dict(cls, raw: dict) -> "JobConfig":
        problems = []
        model = raw.get("model")
        if not isinstance(model, dict):
            problems.append("model: required object (model spec or matrix paths)")
            model = {}
        beta = raw.get("beta", 1.0)
        if not (_is_finite_number(beta) and beta > 0):
            problems.append(f"beta: must be a finite positive number, got {beta!r}")
            beta = 1.0
        family_ids = raw.get("families", [])
        if not isinstance(family_ids, list):
            problems.append("families: must be a list of identifiers")
            family_ids = []
        families = []
        for text in family_ids:
            try:
                parsed = parse_family_expanding(str(text))
            except ValueError as exc:
                problems.append(f"families: {exc}")
                continue
            families.extend(parsed)
        if not families:
            problems.append("families: at least one family identifier required")
        methods = raw.get("methods", ["spectral"])
        if not isinstance(methods, list):
            problems.append("methods: must be a list")
            methods = []
        methods = [str(m) for m in methods]
        for m in methods:
            try:
                _parse_method(m)
            except ValueError as exc:
                problems.append(f"methods: {exc}")
        if not methods:
            problems.append("methods: at least one method required")
        sweep = raw.get("sweep")
        if sweep is not None:
            if (
                not isinstance(sweep, dict)
                or "parameter" not in sweep
                or not isinstance(sweep.get("grid"), list)
                or not sweep["grid"]
            ):
                problems.append("sweep: needs {'parameter': name, 'grid': [values...]}")
                sweep = None
            else:
                positive = sweep["parameter"] == "beta"
                kind = "finite positive number" if positive else "finite number"
                for value in sweep["grid"]:
                    if not _is_finite_number(value) or (positive and value <= 0):
                        problems.append(f"sweep: grid value {value!r} is not a {kind}")
        output = raw.get("output")
        if output is not None:
            if not isinstance(output, dict):
                problems.append(f"output: must be an object {{'path': ..., 'format': ...}}, got {output!r}")
            else:
                if output.get("format", "csv") not in ("csv", "json"):
                    problems.append(f"output: format must be csv or json, got {output['format']!r}")
                if not isinstance(output.get("path", ""), str):
                    problems.append(f"output: path must be a string, got {output['path']!r}")
        if problems:
            raise UsageError("invalid config:\n  " + "\n  ".join(problems))
        return cls(model, float(beta), families, methods, sweep, output)


def parse_family_expanding(text: str) -> list[fam.MonotoneFamily]:
    """Parse a family identifier, expanding pair:d into its two members."""
    family = fam.parse_family(text)
    if family.kind == "pair":
        return list(family.members)
    return [family]


def _parse_method(spec: str):
    """(one of metrics.METHODS, L) for a spec such as "spectral" or "seriesA:6"."""
    method, colon, arg = spec.partition(":")
    if method not in METHODS:
        raise ValueError(f"unknown method {spec!r}")
    if not method.startswith("series"):
        if colon:
            raise ValueError(f"method {method!r} takes no argument")
        return method, None
    try:
        L = int(arg)
    except ValueError:
        raise ValueError(f"method {spec!r}: truncation L must be an integer") from None
    if L < 1:
        raise ValueError(f"method {spec!r}: truncation L must be >= 1")
    return method, L


_MODEL_FIELDS = {"spin": (SpinModel, ("S", float), ("omega0", float)), "boson": (BosonModel, ("k", int), ("omega", float), ("cutoff", int))}


def _point_model(model: dict, point=(None, None)):
    """The validated SpinModel or BosonModel of a spec at one sweep point; None for matrix files."""
    spec = dict(model)
    name, value = point
    if name is not None:
        spec[name] = value
    kind = spec.get("model")
    if kind in _MODEL_FIELDS:
        model_class, *fields = _MODEL_FIELDS[kind]
        for field, number in fields:
            value = spec.get(field)
            if type(value) not in (int, float) or (number is int and type(value) is float and not value.is_integer()):
                raise UsageError(f"{kind} model: {field} must be {'an integer' if number is int else 'a number'}, got {value!r}")
        try:
            return model_class(*(number(spec[field]) for field, number in fields))
        except (ValueError, OverflowError) as exc:
            raise UsageError(f"{kind} model: {exc}") from None
    if kind is None and "T" in spec and "S" in spec:
        return None
    raise UsageError("model must be {'model': 'spin'|'boson', ...} or {'T': path, 'S': path}")


def _resolve_model(model: dict, m):
    """(T, S, frequency) of the model m built by _point_model, or of the spec's matrix files.

    T is the unit-frequency generator: the model's generator is
    frequency * T, and frequency is 1 for matrix files (m is None).
    """
    if m is not None:
        try:
            return (*m.unit_matrices(), m.frequency)
        except (ValueError, MemoryError) as exc:  # numpy refuses a dimension past its size limit, or one it cannot allocate
            raise UsageError(f"{model['model']} model: {exc}") from None
    try:
        T, _ = read_operator_json(model["T"])
        S, _ = read_operator_json(model["S"])
    except FileNotFoundError as exc:
        raise UsageError(f"matrix file not found: {exc.filename}") from None
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad matrix file: {exc}") from None
    return T, S, 1.0


def _sweep_points(config: JobConfig):
    if config.sweep is None:
        return [(None, None)]
    name = config.sweep["parameter"]
    kind = config.model.get("model")
    allowed = ["beta"] + [own for model, own in (("spin", "omega0"), ("boson", "omega")) if kind == model]
    if name not in allowed:
        model = "matrix files" if kind is None else f"the {kind} model"
        raise UsageError(f"sweep: {model} cannot sweep {name!r}; sweep {' or '.join(allowed)}")
    return [(name, float(v)) for v in config.sweep["grid"]]


def _decompose(T):
    """T's checked eigendecomposition; a failed check is a usage error."""
    try:
        return eigendecompose(T)
    except ArithmeticError as exc:
        raise UsageError(f"T: {exc}") from None


def _gibbs(basis, T, c, where: str):
    """Gibbs state of c * T from T's decomposition (a stack for an array c); a c * T past double range is a usage error."""
    try:
        return _scaled_state(basis, T, c)
    except ArithmeticError as exc:
        raise UsageError(f"beta * T at {where}: {exc}") from None


def _single_point(config: JobConfig):
    """(state, T, S, frequency) of a job's model at its beta: the state of beta * frequency * T."""
    T, S, frequency = _resolve_model(config.model, _point_model(config.model))
    state = _gibbs(_decompose(T), T, config.beta * frequency, _label(("beta", config.beta)))
    return state, T, S, frequency


def _label(point) -> str:
    """name=value, the value as :g prints it when that reads back as the value, else as repr."""
    name, value = point
    if name is None:
        return ""
    text = f"{value:g}"
    return f"{name}={text if float(text) == value else repr(value)}"


def _stack_rows(config: JobConfig, routes, labels, state, S, table):
    """Rows of the points of a (stacked) state, point by point, from one frame and one call per (family, method); an error names the first point."""
    chain_order = max((_moment_order(route, L) for _, route, L in routes if L), default=0)
    frame = _Frame(state, S, chain_order, table)
    results = []
    for family in config.families:
        for method_spec, route, L in routes:
            where = f"{family.label} {method_spec} {labels[0]}".rstrip()
            try:
                found = _evaluate(frame, family, route, L)
            except ArithmeticError as exc:  # a negative metric, or a series moment past double range
                raise UsageError(f"{where}: {exc}") from None
            if any(math.isnan(result.value) for result in found):
                raise UsageError(f"{where}: the metric is nan")
            results.append((family.label, method_spec, found))
    rows = []
    for i, parameter in enumerate(labels):
        for family, method_spec, found in results:
            value, L, radius_ok = found[i].value, found[i].diagnostics.truncation, found[i].diagnostics.convergence_radius_ok
            rows.append({"family": family, "parameter": parameter, "method": method_spec, "value": value, "L": "" if L is None else L, "radius_ok": radius_ok})
    return rows


def _chunk_rows(config: JobConfig, routes, labels, cs, basis, T, S, table):
    """Rows of a chunk of points from one stacked state; a chunk of several that raises, gives a nan or warns is re-run point by point."""
    if len(cs) > 1:
        rows = None
        with warnings.catch_warnings(record=True) as caught, contextlib.suppress(Exception):
            warnings.simplefilter("always")
            rows = _stack_rows(config, routes, labels, _gibbs(basis, T, cs, labels[0]), S, table)
        if rows is not None and not caught:
            return rows
    rows = []
    for label, c in zip(labels, cs):  # a job without a sweep has one point, at the config's beta
        rows += _stack_rows(config, routes, [label], _gibbs(basis, T, c, label or _label(("beta", config.beta))), S, table)
    return rows


def run_metric_job(config: JobConfig) -> tuple[list[dict], list[str]]:
    """All output rows for a job, in canonical order, plus warnings (README: "Cost of a sweep job")."""
    points = _sweep_points(config)
    models = [_point_model(config.model, p) for p in points]
    T, S, _ = _resolve_model(config.model, models[0])
    basis = _decompose(T)
    table = _pair_tables(basis, S)[0]
    routes = [(spec, *_parse_method(spec)) for spec in config.methods]
    dense_chain = basis.order is None and any(L for *_, L in routes)
    size = max(1, _CHUNK // (basis.dim**2 if dense_chain else max(table.rows.size, basis.dim)))
    betas = [point[1] if point[0] == "beta" else config.beta for point in points]
    cs = [beta * (1.0 if model is None else model.frequency) for beta, model in zip(betas, models)]

    rows = []
    for start in range(0, len(points), size):
        chunk = slice(start, start + size)
        rows += _chunk_rows(config, routes, [_label(point) for point in points[chunk]], cs[chunk], basis, T, S, table)
    return rows, [
        f"series truncation outside convergence radius: {row['family']} {row['method']} {row['parameter']}"
        for row in rows
        if row["radius_ok"] is False
    ]


def _format_rows_csv(rows, header) -> str:
    """One csv line per row, of the header's fields taken as one tuple; csv writes a float as its repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(operator.itemgetter(*header), rows))
    return buffer.getvalue()


@contextlib.contextmanager
def _writing(path):
    """Report a failure to write path as a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out_path):
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_output(args, config: JobConfig | None, default_format: str):
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", None)
    if config is not None and config.output:
        out = out or config.output.get("path")
        fmt = fmt or config.output.get("format")
    return out, (fmt or default_format)


def _load_config(args) -> JobConfig:
    if not args.config:
        raise UsageError("--config is required for this subcommand")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config must be a JSON object, got {type(raw).__name__}")
    return JobConfig.from_dict(raw)


def _cmd_metric(args) -> int:
    config = _load_config(args)
    if args.require_sweep and config.sweep is None:
        raise UsageError("sweep subcommand needs a 'sweep' section in the config")
    rows, warnings = run_metric_job(config)
    out, fmt = _resolve_output(args, config, "csv")
    if fmt == "csv":
        text = _format_rows_csv(rows, ["family", "parameter", "method", "value", "L", "radius_ok"])
        if warnings:
            text = "".join(f"# warning: {w}\n" for w in warnings) + text
    else:
        text = json.dumps({"rows": rows, "warnings": warnings}, indent=2, sort_keys=True) + "\n"
    _emit(text, out)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    out, fmt = _resolve_output(args, None, "json")
    if fmt != "json":
        raise UsageError("verify reports are JSON only")
    summary = run_verification_suite(args.seed, args.trials)
    _emit(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", out)
    return 0 if summary.passed else 1


def _cmd_moments(args) -> int:
    if args.pmax < 0:
        raise UsageError("--pmax must be >= 0")
    config = _load_config(args)
    state, _, S, _ = _single_point(config)
    try:
        rows = [asdict(row) for row in sum_rule_report(state, S, p_max=args.pmax)]
    except ZeroDivisionError as exc:
        problem = f"p = 0 sum rule: S couples a degenerate pair of beta * T ({exc})"
        raise UsageError(problem) from None
    except OverflowError as exc:
        raise UsageError(f"--pmax {args.pmax}: {exc}") from None
    out, fmt = _resolve_output(args, config, "csv")
    if fmt == "csv":
        text = _format_rows_csv(rows, ["p", "functional", "moment_doubled", "rel_error"])
    else:
        text = json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"
    _emit(text, out)
    return 0


def _cmd_model(args) -> int:
    config = _load_config(args)
    output = config.output or {}
    if (args.format or output.get("format", "json")) != "json":
        raise UsageError("model summaries are JSON only")
    state, T, S, frequency = _single_point(config)
    spectrum = build_dsf(state, S)
    summary = {
        "dim": state.dim,
        "beta": config.beta,
        "spectral_range": float(state.decomposition.eigenvalues[-1] - state.decomposition.eigenvalues[0]),
        "dsf_lines": int(spectrum.omegas.size),
        "mean_S": spectrum.mean_s,
    }
    if args.out:
        summary["written"] = [f"{args.out}_T.json", f"{args.out}_S.json"]
        for path, matrix in zip(summary["written"], (frequency * T.matrix, S)):
            with _writing(path):
                write_operator_json(matrix, path)
    _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", output.get("path"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsqfi",
        description="Monotone Riemannian metrics on Gibbs states: batch tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="path to the JSON job config")
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    p_metric = sub.add_parser("metric", help="metric table for one job")
    add_common(p_metric)
    p_metric.set_defaults(func=_cmd_metric, require_sweep=False)

    p_sweep = sub.add_parser("sweep", help="metric table over a parameter grid")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_metric, require_sweep=True)

    p_verify = sub.add_parser("verify", help="randomized inequality and sum-rule suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    add_common(p_verify, config=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_moments = sub.add_parser("moments", help="moment sum-rule table")
    add_common(p_moments)
    p_moments.add_argument("--pmax", type=int, default=6)
    p_moments.set_defaults(func=_cmd_moments)

    p_model = sub.add_parser("model", help="build a model and export its matrices")
    add_common(p_model)
    p_model.set_defaults(func=_cmd_model)

    return parser


_parser = functools.cache(lambda: build_parser())  # built on a process's first main; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
