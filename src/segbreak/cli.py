"""Command line interface.

Three subcommands: ``fit`` estimates breakpoints and coefficients from a
delimited text file (first column is the response), ``select`` additionally
chooses the breakpoint count, and ``simulate`` runs Monte Carlo studies of
the preset or user-supplied scenarios.  Reports are JSON documents carrying
a schema version and the full effective configuration; floats are written
with round-trip precision.

Exit codes: 0 success, 2 input or configuration error, 3 infeasible
request, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DimensionMismatchError,
    EmptySegmentError,
    InfeasiblePartitionError,
    NoConvergenceError,
    NonFiniteValueError,
    SegbreakError,
    SingularActiveGramError,
    SingularGramError,
    SingularSystemError,
    TooManyFailuresError,
    TruthUnavailableError,
    UnderdeterminedError,
)
from .model import (
    COMPLEXITY_K_ONLY,
    FAMILY_ADAPTIVE,
    FAMILY_LASSO_TYPE,
    CriterionConfig,
    Dataset,
    PenaltyConfig,
    center_columns,
    effective_min_seg_len,
    segment_ranges,
    validate_dataset,
)
from .segmentation import (
    lambda_for_segment,
    optimal_breakpoints,
    refit_breakpoints_two_stage,
)
from .selection import active_set_standard_errors, select_k
from .simulation import TABLE_LAYOUTS, ScenarioSpec, run_monte_carlo, table_preset

SCHEMA_VERSION = 1

_EXIT_INPUT = 2
_EXIT_INFEASIBLE = 3
_EXIT_NUMERICAL = 4

_INPUT_ERRORS = (
    ValueError,
    DimensionMismatchError,
    NonFiniteValueError,
    DegenerateInputError,
    EmptySegmentError,
    TruthUnavailableError,
    UnderdeterminedError,
    OSError,
)
_NUMERICAL_ERRORS = (
    ConsistencyError,
    NoConvergenceError,
    SingularGramError,
    SingularSystemError,
    SingularActiveGramError,
    TooManyFailuresError,
)


class CliInputError(SegbreakError):
    """Malformed input file or inconsistent flags."""


# Line boundaries that str.splitlines honours besides "\n" (open() already
# turns "\r" and "\r\n" into "\n"); np.loadtxt splits lines on "\n" only.
_OTHER_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _read_matrix(path: str, header: bool, delimiter: str | None) -> np.ndarray:
    """Parse a delimited numeric file; cite row and column on failure.

    Rows and columns are reported 1-based, counting physical lines of the
    file (a skipped header line keeps its line number).

    With the delimiter sniffed, one ``np.loadtxt`` call reads the text first
    (split on commas if the text holds one, else on whitespace).  Its array
    is kept only if the call raised and warned nothing, the array has a row
    and two columns and holds only finite values, and the text has no line
    boundary but the newline (``_OTHER_LINE_BREAKS``).  Every other file
    goes through the per-line reader below.  That reader gives every kept
    array too, so the fast path changes no result and no error message.
    """
    with open(path) as fh:
        text = fh.read()
    if delimiter is None:
        matrix = _load_text(text, header)
        if matrix is not None:
            return matrix
    lines = text.splitlines()
    rows = []
    width = None
    skip_first = header
    for lineno, line in enumerate(lines, start=1):
        if skip_first:
            skip_first = False
            continue
        if not line.strip():
            continue
        if delimiter is not None:
            parts = line.split(delimiter)
        elif "," in line:
            parts = line.split(",")
        else:
            parts = line.split()
        # one conversion per line; the tokens are walked one by one only to
        # cite a bad one, or to strip what float() keeps (\x1f)
        try:
            values = list(map(float, parts))
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            values = _fields(path, lineno, parts)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise CliInputError(
                f"{path}: row {lineno} has {len(values)} fields, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise CliInputError(f"{path}: no data rows")
    if width < 2:
        raise CliInputError(
            f"{path}: need a response column plus at least one covariate"
        )
    return np.array(rows, dtype=np.float64)


def _load_text(text: str, header: bool) -> np.ndarray | None:
    """``np.loadtxt``'s array of ``text``, or None where ``_read_matrix``
    must read it line by line."""
    if any(mark in text for mark in _OTHER_LINE_BREAKS):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(
                io.StringIO(text),
                dtype=np.float64,
                comments=None,
                delimiter="," if "," in text else None,
                skiprows=1 if header else 0,
                ndmin=2,
            )
    except (ValueError, Warning):
        return None
    if matrix.shape[0] < 1 or matrix.shape[1] < 2 or not np.isfinite(matrix).all():
        return None
    return matrix


def _fields(path: str, lineno: int, parts) -> list:
    """The values of the tokens ``parts`` of line ``lineno``, each stripped
    and converted in turn, citing the first that is not a finite number."""
    values = []
    for colno, token in enumerate(parts, start=1):
        token = token.strip()
        try:
            value = float(token)
        except ValueError:
            raise CliInputError(
                f"{path}: could not parse {token!r} at row {lineno}, "
                f"column {colno}"
            ) from None
        if not math.isfinite(value):
            raise CliInputError(
                f"{path}: non-finite value at row {lineno}, column {colno}"
            )
        values.append(value)
    return values


def _input_doc(args) -> dict:
    return {
        "path": args.input,
        "header": args.header,
        "delimiter": args.delimiter,
        "center": args.center,
    }


def _load_dataset(args) -> Dataset:
    matrix = _read_matrix(args.input, args.header, args.delimiter)
    dataset = Dataset(y=matrix[:, 0], X=matrix[:, 1:])
    validate_dataset(dataset)
    if args.center:
        dataset = center_columns(dataset)
    return dataset


def _add_input_args(sp) -> None:
    sp.add_argument("input", help="delimited text file; first column is the response")
    sp.add_argument("--header", action="store_true", help="skip the first line")
    sp.add_argument("--delimiter", default=None, help="field delimiter (default: sniff)")
    sp.add_argument("--center", action="store_true", help="center design columns first")


def _add_penalty_args(sp) -> None:
    sp.add_argument(
        "--family",
        choices=("adaptive", "lasso", "ridge", "bridge"),
        default="adaptive",
        help="per-segment penalty (default adaptive)",
    )
    sp.add_argument("--gamma", type=float, default=None, help="bridge exponent")
    sp.add_argument("--rho", type=float, default=0.45, help="tuning exponent in (0, 1/2]")
    sp.add_argument("--g", type=float, default=0.2, help="adaptive weight exponent in (0, 1/4)")
    sp.add_argument("--min-seg", type=int, default=None, help="minimum segment length")
    sp.add_argument("--cd-tol", type=float, default=1e-8, help="coordinate descent tolerance")
    sp.add_argument("--cd-max-iter", type=int, default=10000, help="coordinate descent sweep budget")
    sp.add_argument(
        "--grid-step",
        type=int,
        default=None,
        help="use the approximate two-stage search with this grid spacing",
    )


def _penalty_from_args(args) -> PenaltyConfig:
    common = dict(
        rho=args.rho,
        cd_tolerance=args.cd_tol,
        cd_max_iterations=args.cd_max_iter,
    )
    if args.family == "adaptive":
        if args.gamma is not None:
            raise CliInputError("--gamma only applies to --family bridge")
        return PenaltyConfig(family=FAMILY_ADAPTIVE, g=args.g, **common)
    if args.family == "lasso":
        if args.gamma not in (None, 1.0):
            raise CliInputError("--family lasso fixes gamma at 1")
        return PenaltyConfig(family=FAMILY_LASSO_TYPE, gamma=1.0, **common)
    if args.family == "ridge":
        if args.gamma not in (None, 2.0):
            raise CliInputError("--family ridge fixes gamma at 2")
        return PenaltyConfig(family=FAMILY_LASSO_TYPE, gamma=2.0, **common)
    if args.gamma is None:
        raise CliInputError("--family bridge requires --gamma")
    return PenaltyConfig(family=FAMILY_LASSO_TYPE, gamma=args.gamma, **common)


def _add_criterion_args(sp) -> None:
    sp.add_argument("--k-max", type=int, default=3, help="largest K to consider")
    sp.add_argument(
        "--bn-exponent",
        type=float,
        default=0.625,
        help="complexity scale exponent, in (1/2, 3/4)",
    )


def _criterion_from_args(args) -> CriterionConfig:
    return CriterionConfig(
        bn_exponent=args.bn_exponent,
        complexity=COMPLEXITY_K_ONLY,
        k_max=args.k_max,
        min_seg_len=args.min_seg,
    )


def _search_doc(args) -> dict:
    if args.grid_step is None:
        return {"mode": "exact", "grid_step": None}
    return {"mode": "two_stage", "grid_step": args.grid_step}


def _penalty_doc(penalty: PenaltyConfig) -> dict:
    return {
        "family": penalty.family,
        "gamma": penalty.gamma,
        "rho": penalty.rho,
        "g": penalty.g,
        "cd_tolerance": penalty.cd_tolerance,
        "cd_max_iterations": penalty.cd_max_iterations,
        "zero_clamp": penalty.zero_clamp,
        "adaptive_fallback": True,
        "lambda_scale": penalty.lambda_scale,
    }


def _criterion_doc(criterion: CriterionConfig, min_seg_len: int) -> dict:
    return {
        "bn_exponent": criterion.bn_exponent,
        "complexity": criterion.complexity,
        "k_max": criterion.k_max,
        "min_seg_len": min_seg_len,
        "use_estimated_pk": criterion.use_estimated_pk,
    }


def _fit_doc(dataset: Dataset, fit, penalty: PenaltyConfig):
    segments = []
    se_report = None
    se_note = None
    if penalty.family == FAMILY_ADAPTIVE:
        try:
            se_report = active_set_standard_errors(dataset, fit)
        except (SingularActiveGramError, DegenerateInputError) as exc:
            se_note = f"standard errors unavailable: {exc}"
            print(f"warning: {se_note}", file=sys.stderr)
    for i, (rng, seg) in enumerate(
        zip(segment_ranges(fit.breakpoints, dataset.n), fit.segment_fits)
    ):
        doc = {
            "first_sample": rng.start + 1,
            "last_sample": rng.end,
            "length": rng.length,
            "lambda": penalty.lambda_scale * lambda_for_segment(rng, penalty.rho),
            "coefficients": [float(v) for v in seg.coefficients],
            "active_covariates": sorted(k + 1 for k in seg.active_set),
            "rss": seg.rss,
            "penalty_value": seg.penalty_value,
            "penalized_cost": seg.penalized_cost,
        }
        if se_report is not None:
            doc["standard_errors"] = {
                str(k + 1): se for k, se in sorted(se_report.per_segment[i].items())
            }
        segments.append(doc)
    out = {
        "k": fit.k,
        "breakpoints": list(fit.breakpoints),
        "total_score": fit.total_score,
        "segments": segments,
    }
    if se_report is not None:
        out["sigma2"] = se_report.sigma2
        out["residual_dof"] = se_report.dof
    elif se_note is not None:
        out["sigma2"] = None
        out["standard_error_note"] = se_note
    return out


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cmd_fit(args) -> int:
    dataset = _load_dataset(args)
    penalty = _penalty_from_args(args)
    criterion = CriterionConfig(min_seg_len=args.min_seg)
    min_len = effective_min_seg_len(penalty, criterion, dataset.p)
    if args.grid_step is None:
        fit = optimal_breakpoints(dataset, args.k, penalty, criterion)
    else:
        fit = refit_breakpoints_two_stage(
            dataset, args.k, penalty, criterion, grid_step=args.grid_step
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "config": {
            "input": _input_doc(args),
            "k": args.k,
            "penalty": _penalty_doc(penalty),
            "min_seg_len": min_len,
            "search": _search_doc(args),
        },
        "n": dataset.n,
        "p": dataset.p,
        "results": _fit_doc(dataset, fit, penalty),
    }
    _emit(doc, args.out)
    return 0


def _cmd_select(args) -> int:
    dataset = _load_dataset(args)
    penalty = _penalty_from_args(args)
    criterion = _criterion_from_args(args)
    min_len = effective_min_seg_len(penalty, criterion, dataset.p)
    result = select_k(dataset, penalty, criterion, grid_step=args.grid_step)
    rows = []
    for row in result.rows:
        rows.append(
            {
                "k": row.k,
                "feasible": row.feasible,
                "breakpoints": None if row.breakpoints is None else list(row.breakpoints),
                "s_k": row.s_k,
                "criterion": row.value,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "select",
        "config": {
            "input": _input_doc(args),
            "penalty": _penalty_doc(penalty),
            "criterion": _criterion_doc(criterion, min_len),
            "search": _search_doc(args),
        },
        "n": dataset.n,
        "p": dataset.p,
        "results": {
            "k_hat": result.k_hat,
            "table": rows,
            "best": _fit_doc(dataset, result.best_fit, penalty),
        },
    }
    _emit(doc, args.out)
    return 0


_SCENARIO_KEYS = {
    "n",
    "breakpoints",
    "coefficients",
    "covariate_means",
    "error_std",
    "error_family",
    "error_df",
    "seed",
}


def _load_scenario_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise CliInputError(f"{path}: scenario file must hold a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise CliInputError(
            f"{path}: unknown scenario keys {sorted(unknown)}; "
            f"allowed keys are {sorted(_SCENARIO_KEYS)}"
        )
    for key in ("n", "breakpoints", "coefficients"):
        if key not in data:
            raise CliInputError(f"{path}: scenario file is missing {key!r}")
    return data


def _resolve_seed(flag_seed: int | None, file_seed) -> int:
    if flag_seed is not None:
        return flag_seed
    if file_seed is not None:
        return file_seed  # ScenarioSpec checks it
    env = os.environ.get("SEGBREAK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliInputError(
                f"SEGBREAK_SEED must be an integer, got {env!r}"
            ) from None
    return 0


def _scenario_doc(spec: ScenarioSpec) -> dict:
    return {
        "n": spec.n,
        "breakpoints": list(spec.breakpoints),
        "coefficients": [[float(v) for v in row] for row in spec.coefficient_vectors],
        "covariate_means": [float(v) for v in spec.covariate_means],
        "error_std": spec.error_std,
        "error_family": spec.error_family,
        "error_df": spec.error_df,
        "seed": spec.seed,
    }


def _report_doc(report) -> dict:
    histogram: dict[str, dict[str, int]] = {}
    for (r, off), count in sorted(report.breakpoint_error_histogram.items()):
        histogram.setdefault(str(r), {})[str(off)] = count
    doc = {
        "replications": report.replications,
        "completed": report.completed,
        "metric_replications": report.metric_replications,
        "failures": report.failures,
        "median_breakpoints": list(report.median_breakpoints),
        "pct_true_zero": report.pct_true_zero,
        "pct_false_zero": report.pct_false_zero,
        "true_zero_count": report.true_zero_count,
        "true_nonzero_count": report.true_nonzero_count,
        "breakpoint_error_histogram": histogram,
        "ls_baseline": {
            "pct_true_zero": report.ls_baseline.pct_true_zero,
            "pct_false_zero": report.ls_baseline.pct_false_zero,
        },
        "truth_dominated": report.truth_dominated,
        "selected_k_counts": None
        if report.selected_k_counts is None
        else {str(k): v for k, v in sorted(report.selected_k_counts.items())},
        "coverage_hits": report.coverage_hits,
        "coverage_total": report.coverage_total,
    }
    return doc


def _cmd_simulate(args) -> int:
    if args.table is not None:
        spec, _ = table_preset(args.table, seed=_resolve_seed(args.seed, None))
        source = {"table": args.table}
    else:
        data = _load_scenario_file(args.scenario)
        try:
            spec = ScenarioSpec(
                n=data["n"],
                breakpoints=data["breakpoints"],
                coefficient_vectors=data["coefficients"],
                covariate_means=data.get("covariate_means"),
                error_std=data.get("error_std", 1.0),
                seed=_resolve_seed(args.seed, data.get("seed")),
                error_family=data.get("error_family", "gaussian"),
                error_df=data.get("error_df"),
            )
        except ValueError as exc:
            raise CliInputError(f"{args.scenario}: {exc}") from None
        source = {"scenario_file": args.scenario}

    penalty = _penalty_from_args(args)
    criterion = _criterion_from_args(args)
    fixed_k = None if args.select else (
        args.fixed_k if args.fixed_k is not None else len(spec.breakpoints)
    )
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    report = run_monte_carlo(
        spec,
        args.reps,
        penalty,
        criterion,
        fixed_k=fixed_k,
        workers=workers,
        grid_step=args.grid_step,
    )
    min_len = effective_min_seg_len(penalty, criterion, spec.p)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": {
            "source": source,
            "scenario": _scenario_doc(spec),
            "replications": args.reps,
            "selection_mode": "criterion" if args.select else "fixed_k",
            "fixed_k": fixed_k,
            "penalty": _penalty_doc(penalty),
            "criterion": _criterion_doc(criterion, min_len),
            "search": _search_doc(args),
        },
        "results": _report_doc(report),
    }
    _emit(doc, args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse starts from its defaults."""
    parser = argparse.ArgumentParser(
        prog="segbreak",
        description="Breakpoint and sparse coefficient estimation for "
        "multi-phase linear regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a fixed number of breakpoints")
    _add_input_args(fit)
    fit.add_argument("--k", type=int, default=0, help="number of breakpoints")
    _add_penalty_args(fit)
    fit.add_argument("--out", default=None, help="write the JSON report here")
    fit.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", help="choose the breakpoint count")
    _add_input_args(sel)
    _add_penalty_args(sel)
    _add_criterion_args(sel)
    sel.add_argument("--out", default=None)
    sel.set_defaults(func=_cmd_select)

    sim = sub.add_parser("simulate", help="Monte Carlo study")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--table", type=int, choices=sorted(TABLE_LAYOUTS))
    src.add_argument("--scenario", help="JSON scenario file")
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (falls back to SEGBREAK_SEED, then 0)",
    )
    sim.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: available parallelism)",
    )
    mode = sim.add_mutually_exclusive_group()
    mode.add_argument("--fixed-k", type=int, default=None,
                      help="breakpoint count to fit (default: the true count)")
    mode.add_argument("--select", action="store_true",
                      help="select K per replication instead of fixing it")
    _add_criterion_args(sim)
    _add_penalty_args(sim)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else _EXIT_INPUT
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except InfeasiblePartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
