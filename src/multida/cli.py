"""Command-line front-end: train, predict, cv, simulate, consistency,
partitions, filter.

Every command logs its parsed parameters, keyed by parameter name (the
seed included, drawn randomly when not given), as one ``config:`` JSON
line, the first line on stderr, before its body runs; so any run can be
reproduced bit-exactly from its log, except the wall-clock
``fit_seconds`` column of ``consistency``.  A command reads the options
it takes, with these exceptions: the scenario settings of ``simulate``
that ``SimSpec`` lists as read by some scenarios only, the ``--seed`` of
``train`` and ``predict``, and ``train --threads``, which is checked but
not used.  ``train`` checks every option before it opens its CSV, then
streams the CSV into class statistics (``data_io.load_class_stats``) and
fits them with ``estimator.fit``, the one fit entry.  A ``--scheme
user:<csv>`` file is read by ``data_io.load_matrix`` like every other CSV
(UTF-8 with or without a byte order mark, a bad cell named by row and
column), and its entries must be integers (a bad one is refused naming
the file, before any data are read); row k of S is the k-th class label
in order of first appearance in the training data.  ``cv`` and
``simulate`` cross-validate with ``estimator.cross_validate``, and check
the penalty and ``--threads`` before they read or draw their data;
``simulate`` draws its data with ``simlab.generate`` and ``consistency``
runs ``simlab.consistency_sweep``.  ``predict`` refuses a query header
that does not name the model's features in order (its label column
dropped), and takes a headerless query by position.
The library refuses a seed that is not a non-negative integer, and a
sweep size below K, before it draws, so those exit 2 too.  Every output
file is checked before the command's work, so one that cannot be
written leaves no output at all.  Exit codes: 0
success, 2 usage or validation problems and I/O errors, 3 internal
numeric failure.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import sys
import time

import click
import numpy as np

from . import __version__
from .data_io import (
    CsvSchema,
    filter_features,
    load_class_stats,
    load_dataset,
    load_matrix,
    load_model,
    save_dataset,
    save_model,
)
from .errors import FormatError, NumericError, ValidationError
from .estimator import (
    check_fit_options,
    check_threshold,
    cross_validate,
    fit,
    predict,
    selected_features,
)
from .partitions import build_partition_set, check_scheme
from .simlab import (
    SCENARIOS,
    SimSpec,
    consistency_sweep,
    generate,
)


#: the parameters that name a file a command writes
_OUTPUTS = ("out", "features_out", "indices_out")


def _check_writable(path: str) -> None:
    """Refuse an output file that could not be opened for writing: its
    directory is missing, is no directory, or refuses writes."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValidationError(f"cannot write {path}: no directory {directory}")
    if not os.access(directory, os.W_OK | os.X_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ValidationError(f"cannot write {path}: permission denied")


def _guarded(fn):
    """Log the command's ``config:`` line, check that every output file
    can be written, then run the command, mapping library errors to one
    stderr line and exit code 2 or 3.  So a command whose output cannot
    be written writes none of its outputs, and an I/O failure later on
    still ends in one line and exit code 2."""
    @functools.wraps(fn)
    def wrapper(**params):
        config = {"command": click.get_current_context().info_name, **params}
        click.echo("config: " + json.dumps(config, sort_keys=True), err=True)
        try:
            for name in _OUTPUTS:
                if params.get(name) is not None:
                    _check_writable(params[name])
            return fn(**params)
        except (ValidationError, FormatError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _resolve_seed(ctx, param, seed: int | None) -> int:
    """--seed callback: draw a seed when none is given, so it is logged."""
    return int.from_bytes(os.urandom(4), "little") if seed is None else seed


def _parse_scheme(scheme: str) -> str | np.ndarray:
    """The hypothesis set a --scheme value names: a scheme name, or the
    matrix S read from the file of ``user:<path>`` by ``load_matrix``, as
    every CSV is read, headerless with no label column.  Either is checked
    by ``check_scheme`` before any data are read, and a fault of S is
    refused naming its file; only S's row count waits for the class count
    of the data (``build_partition_set``)."""
    if not scheme.startswith("user:"):
        check_scheme(scheme)
        return scheme
    path = scheme.split(":", 1)[1]
    if not path:
        raise ValidationError("--scheme user:<path> needs a file path")
    matrix = load_matrix(path, CsvSchema(has_header=False, label_column=None))[0]
    try:
        check_scheme(matrix)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return matrix


def _schema(label_col: str, no_header: bool, delimiter: str, *,
            labeled: bool = True) -> CsvSchema:
    """The CSV layout given by --label-col, --no-header and --delimiter.  A
    headerless file names its label column by index; a headerless query
    file (``labeled=False``) has none."""
    if no_header and not labeled:
        label_col = None
    elif no_header:
        with contextlib.suppress(ValueError):
            label_col = int(label_col)
    return CsvSchema(has_header=not no_header, label_column=label_col,
                     delimiter=delimiter)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


# shared option stacks

#: an output file: click refuses an existing directory before the command runs
_out_path = click.Path(dir_okay=False)


def _options(*decorators):
    """One decorator applying ``decorators`` so they list in the given order."""
    def apply(fn):
        for deco in reversed(decorators):
            fn = deco(fn)
        return fn

    return apply


_fit_options = _options(
    click.option("--penalty", default="ebic", show_default=True,
                 help="Penalty: ebic, bic, aic or custom:<C>."),
    click.option("--variance", type=click.Choice(["equal", "unequal"]), default="equal",
                 show_default=True, help="equal fits multiLDA, unequal fits multiQDA."),
    click.option("--prior-term", type=click.Choice(["log", "plogp"]), default="log",
                 show_default=True, help="Class-prior term in the discriminant score."),
)

#: the fit options of a command that fits any hypothesis set
_scheme_fit_options = _options(_fit_options, click.option(
    "--scheme", default="exhaustive", show_default=True,
    help="Hypothesis scheme: exhaustive, onevsrest, ordinal or user:<csv>."))

_io_options = _options(
    click.option("--label-col", default="label", show_default=True,
                 help="Label column name (or index for headerless files)."),
    click.option("--no-header", is_flag=True, help="Input CSV has no header row."),
    click.option("--delimiter", default=",", show_default=True),
)

_seed_option = click.option("--seed", type=int, default=None, callback=_resolve_seed,
                            help="Random seed; drawn and logged when omitted.")

_run_options = _options(
    _seed_option,
    click.option("--threads", type=int, default=1, show_default=True,
                 help="Worker threads for prediction rows (0 = every usable CPU, the "
                      "cap for any count); fitting is single-threaded and output is "
                      "thread-count independent."),
)


def _design_options(mean_shift: float):
    """The simulated design: features, classes, the planted fraction and
    the group mean shift, whose default each command sets."""
    return _options(
        click.option("--p", type=int, default=2000, show_default=True),
        click.option("--k", type=int, default=4, show_default=True),
        click.option("--frac", type=float, default=0.10, show_default=True,
                     help="Fraction of discriminative features."),
        click.option("--mean-shift", type=float, default=mean_shift, show_default=True,
                     help="Group mean shift."),
    )


@click.group()
@click.version_option(version=__version__, prog_name="multida")
def main():
    """multiDA: diagonal discriminant analysis with per-feature
    class-partition hypothesis weighting (multiLDA / multiQDA)."""


@main.command()
@click.argument("input", metavar="TRAINING_CSV", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=_out_path, default="model.json", show_default=True,
              help="Model file to write.")
@click.option("--features-out", type=_out_path, default="selected_features.csv",
              show_default=True, help="Selected-features CSV to write.")
@click.option("--threshold", type=float, default=0.5, show_default=True,
              help="Minimum top-hypothesis weight for the selected-features table.")
@_scheme_fit_options
@_io_options
@_run_options
@_guarded
def train(input, out, features_out, threshold, penalty, variance, scheme,
          prior_term, label_col, no_header, delimiter, seed, threads):
    """Fit a model on a labeled CSV and write it to disk.  Every option is
    checked before the CSV is read.

    \f
    The checks (the scheme and S's entries, the penalty, --threads and
    --threshold) are those the fit and the selection make, so a bad option
    costs no read of a large file; only S's row count waits for the
    classes.  The CSV then streams into the class statistics
    (``load_class_stats``), so no n x p matrix is held, and ``fit`` derives
    the model from them in a one-off workspace of half of
    ``estimator._BLOCK_BYTES``."""
    scheme = _parse_scheme(scheme)
    check_fit_options(penalty, threads)
    check_threshold(threshold)
    model = fit(load_class_stats(input, _schema(label_col, no_header, delimiter)),
                scheme=scheme, penalty=penalty, variance_mode=variance,
                prior_term_mode=prior_term, threads=threads)
    rows = selected_features(model, threshold)
    save_model(model, out)
    _write_csv(
        features_out,
        ["feature", "hypothesis", "partition", "weight"],
        [
            (name, m, model.parts.column_label(m), _fmt(w))
            for name, m, w in rows
        ],
    )
    non_null = int(np.count_nonzero(model.top))
    click.echo(f"n={model.n} p={model.p} K={model.K} M={model.M}")
    click.echo(f"penalty={model.penalty.kind} C={model.penalty.C:.6g} "
               f"variance={model.variance_mode} scheme={model.parts.scheme}")
    click.echo(f"features with non-null argmax: {non_null}")
    click.echo(f"selected (weight >= {threshold:g}): {len(rows)} -> {features_out}")
    click.echo(f"model -> {out}")


@main.command(name="predict")
@click.argument("input", metavar="QUERY_CSV", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Fitted model file.")
@click.option("--out", type=_out_path, default="predictions.csv", show_default=True)
@_io_options
@_run_options
@_guarded
def predict_cmd(input, model, out, label_col, no_header, delimiter, seed, threads):
    """Predict labels and class probabilities for query rows.  A header
    must name the model's features in order (a label column is dropped
    first); without one, columns are taken by position."""
    fitted = load_model(model)
    X, names = load_matrix(input, _schema(label_col, no_header, delimiter, labeled=False))
    if not no_header and len(names) == fitted.p and tuple(names) != fitted.feature_names:
        j = next(j for j, (a, b) in enumerate(zip(names, fitted.feature_names)) if a != b)
        raise ValidationError(f"{input}: feature column {j + 1} is {names[j]!r} where the model "
                              f"has {fitted.feature_names[j]!r}; the header must name the "
                              f"model's features in order")
    pred = predict(fitted, X, threads=threads)
    header = ["label"] + [f"prob_{c}" for c in fitted.class_labels]
    _write_csv(
        out,
        header,
        [
            [pred.labels[i]] + [_fmt(v) for v in pred.probabilities[i]]
            for i in range(len(pred.labels))
        ],
    )
    click.echo(f"{len(pred.labels)} predictions -> {out}")


@main.command()
@click.argument("input", metavar="TRAINING_CSV", type=click.Path(exists=True, dir_okay=False))
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--trials", type=int, default=50, show_default=True)
@click.option("--out", type=_out_path, default="cv_results.csv", show_default=True)
@_scheme_fit_options
@_io_options
@_run_options
@_guarded
def cv(input, folds, trials, out, penalty, variance, scheme, prior_term,
       label_col, no_header, delimiter, seed, threads):
    """Repeated stratified k-fold cross-validation on a labeled CSV."""
    scheme = _parse_scheme(scheme)
    check_fit_options(penalty, threads)
    data = load_dataset(input, _schema(label_col, no_header, delimiter))
    result = cross_validate(
        data, folds, trials, seed=seed, scheme=scheme,
        penalty=penalty, variance_mode=variance,
        prior_term_mode=prior_term, threads=threads,
    )
    _write_csv(
        out,
        ["trial", "fold", "n_test", "n_wrong", "error"],
        [(r.trial, r.fold, r.n_test, r.n_wrong, _fmt(r.error)) for r in result.rows],
    )
    click.echo(f"{trials} x {folds}-fold CV on n={data.n} p={data.p} K={data.K}")
    click.echo(f"mean error {result.mean:.6f} (sd {result.sd:.6f}) -> {out}")


@main.command()
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True,
              help="Data scenario; the selection sweep is `multida consistency`.")
@click.option("--n", type=int, default=100, show_default=True)
@_design_options(SimSpec.mean_shift)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--trials", type=int, default=50, show_default=True)
@click.option("--variance-scale", type=float, default=1.0, show_default=True)
@click.option("--block-size", type=int, default=None,
              help="Covariance block size (default p/10).")
@click.option("--block-density", type=float, default=0.25, show_default=True)
@click.option("--out", type=_out_path, default="simulation.csv", show_default=True)
@_scheme_fit_options
@_run_options
@_guarded
def simulate(scenario, n, p, k, folds, trials, frac, mean_shift, variance_scale,
             block_size, block_density, out, penalty, variance, scheme, prior_term,
             seed, threads):
    """Cross-validate a fit on a synthetic scenario, written as tidy CSV.
    The scale and block settings reach only the scenarios that draw with
    them (see ``SimSpec``)."""
    scheme = _parse_scheme(scheme)
    check_fit_options(penalty, threads)
    spec = SimSpec(
        scenario=scenario,
        n=n,
        p=p,
        K=k,
        discriminative_fraction=frac,
        mean_shift=mean_shift,
        variance_scale=variance_scale,
        block_size=block_size,
        block_density=block_density,
        seed=seed,
    )
    data, _ = generate(spec)
    t0 = time.perf_counter()
    result = cross_validate(
        data, folds, trials, seed=seed, scheme=scheme,
        penalty=penalty, variance_mode=variance,
        prior_term_mode=prior_term, threads=threads,
    )
    elapsed = time.perf_counter() - t0
    _write_csv(
        out,
        ["scenario", "variance_mode", "trial", "fold", "n_test", "n_wrong", "error"],
        [
            (scenario, variance, r.trial, r.fold, r.n_test, r.n_wrong, _fmt(r.error))
            for r in result.rows
        ],
    )
    click.echo(f"{scenario} n={n} p={p} K={k} variance={variance}")
    click.echo(
        f"mean CV error {result.mean:.6f} (sd {result.sd:.6f}), "
        f"{elapsed:.1f}s -> {out}"
    )


@main.command()
@click.option("--n-grid", default="50,100,200,500", show_default=True,
              help="Sample sizes, comma-separated.")
@click.option("--replicates", type=int, default=20, show_default=True,
              help="Replicates per sample size.")
@_design_options(2.0)
@click.option("--out", type=_out_path, default="consistency.csv", show_default=True)
@_fit_options
@_seed_option
@_guarded
def consistency(n_grid, replicates, p, k, frac, mean_shift, out, penalty, variance,
                prior_term, seed):
    """Feature-selection consistency as n grows: fit ``ind-equal-var``
    replicates over every exhaustive partition and score their selection
    error against the planted truth, written as tidy CSV."""
    try:
        n_values = [int(v) for v in n_grid.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --n-grid {n_grid!r}") from None
    rows = consistency_sweep(
        n_values, p=p, k=k, replicates=replicates,
        penalty=penalty, variance_mode=variance, prior_term_mode=prior_term,
        mean_shift=mean_shift, discriminative_fraction=frac, seed=seed,
    )
    _write_csv(out, list(rows[0]), [[_fmt(v) for v in r.values()] for r in rows])
    click.echo(f"{len(rows)} rows ({replicates} replicates per grid point) -> {out}")


@main.command()
@click.option("--k", type=int, required=True, help="Class count.")
@click.option("--scheme", default="exhaustive", show_default=True,
              help="exhaustive, onevsrest, ordinal or user:<csv>.")
@click.option("--variance", type=click.Choice(["equal", "unequal"]),
              default="equal", show_default=True)
@click.option("--out", type=_out_path, default=None,
              help="Write the listing to a file instead of stdout.")
@_guarded
def partitions(k, scheme, variance, out):
    """Print the hypothesis matrix S with G, nu, z and the allocation
    matrix A for a class count and scheme."""
    ps = build_partition_set(k, _parse_scheme(scheme), variance_mode=variance)
    lines = [f"scheme={ps.scheme} K={ps.K} M={ps.M} variance={ps.variance_mode}", "S:"]
    for row in range(ps.K):
        lines.append(",".join(str(col[row]) for col in ps.columns))
    lines.append("G: " + ",".join(str(v) for v in ps.G))
    lines.append("nu: " + ",".join(str(v) for v in ps.nu))
    lines.append("z: " + ",".join(str(v) for v in ps.z))
    lines.append("A:")
    lines.extend(",".join(str(v) for v in row) for row in ps.A)
    text = "\n".join(lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        click.echo(f"partition listing -> {out}")
    else:
        click.echo(text)


@main.command(name="filter")
@click.argument("input", metavar="TRAINING_CSV", type=click.Path(exists=True, dir_okay=False))
@click.option("--rule", required=True,
              help="zero-mad or class-median-below:<threshold>.")
@click.option("--out", type=_out_path, default="filtered.csv", show_default=True)
@click.option("--indices-out", type=_out_path, default=None,
              help="Optional CSV mapping kept features to original columns.")
@_io_options
@_guarded
def filter_cmd(input, rule, out, indices_out, label_col, no_header, delimiter):
    """Apply a feature-screening rule to a labeled CSV."""
    data = load_dataset(input, _schema(label_col, no_header, delimiter))
    reduced, kept = filter_features(data, rule)
    save_dataset(reduced, out,
                 label_name=label_col if not no_header else "label",
                 delimiter=delimiter)
    if indices_out:
        _write_csv(
            indices_out,
            ["kept_index", "original_column", "feature"],
            [(i + 1, j + 1, data.feature_names[j]) for i, j in enumerate(kept)],
        )
        click.echo(f"index map -> {indices_out}")
    click.echo(
        f"kept {reduced.p} of {data.p} features (rule {rule}) -> {out}"
    )


if __name__ == "__main__":
    main()
