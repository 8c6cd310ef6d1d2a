"""CSV and JSON emission with reproducibility headers.

Every artifact begins with the tool version, the exact command that produced
it, and the resolved configuration, so re-running the header's command
regenerates the data rows byte for byte.  Floats are rendered with ``repr``
(shortest round-trip form), which keeps rows bit-identical across re-runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import GroupScanResult, ScanRecord, fit_log2_slope

SCAN_COLUMNS = tuple(field.name for field in dataclasses.fields(ScanRecord))

GROUP_COLUMNS = (
    "dims",
    "mode",
    "depth",
    "d_max",
    "L",
    "probe",
    "samples",
    "seed",
    "mean",
    "variance",
    "stderr",
)


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def build_command(subcommand: str, config: dict) -> str:
    """Reconstruct the invocation that reproduces an output's data rows."""
    parts = ["lcqnn", subcommand]
    for key, value in config.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            parts.append(flag)
        elif isinstance(value, (list, tuple)):
            if value and isinstance(value[0], str):
                for item in value:  # repeatable flags (e.g. --dims)
                    parts += [flag, str(item)]
            else:
                parts += [flag, ",".join(str(x) for x in value)]
        else:
            parts += [flag, str(value)]
    return " ".join(shlex.quote(part) for part in parts)


def header_lines(command: str, config: dict) -> list[str]:
    return [
        f"# lcqnn {__version__}",
        f"# command: {command}",
        f"# config: {json.dumps(config, sort_keys=True)}",
    ]


def render_csv(command: str, config: dict, columns, rows) -> str:
    lines = header_lines(command, config)
    lines.append(",".join(columns))
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, (float, np.floating)):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def render_json(command: str, config: dict, records, summary=None) -> str:
    """Strict JSON: a NaN or infinite value is written as null."""
    payload = {
        "version": __version__,
        "command": command,
        "config": config,
        "records": records,
    }
    if summary is not None:
        payload["summary"] = summary
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def write_output(text: str, path=None) -> None:
    """Write to the path, or to standard output when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# variance scans


def scan_row(record: ScanRecord) -> list:
    return [getattr(record, column) for column in SCAN_COLUMNS]


def scan_dict(record: ScanRecord) -> dict:
    return {column: getattr(record, column) for column in SCAN_COLUMNS}


def layers_summary(records) -> dict:
    """Least-squares slope of log2 variance against log2 branch count, or
    None if a variance is not positive (a probe outside the light cone)."""
    xs = [float(np.log2(r.L)) for r in records]
    variances = [r.variance for r in records]
    return {
        "L_values": [r.L for r in records],
        "variances": variances,
        "log2_slope_vs_log2_L": (
            fit_log2_slope(xs, variances) if all(v > 0 for v in variances) else None
        ),
    }


# ---------------------------------------------------------------------------
# group-spectrum scans


def spectrum_label(spectrum) -> str:
    return ";".join(f"{d}:{mult}" for d, mult in spectrum.blocks)


def group_dicts(result: GroupScanResult) -> list[dict]:
    """One record per probe: theta always, alpha when the tree has a node."""
    base = {
        "dims": spectrum_label(result.spectrum),
        "mode": result.mode,
        "depth": result.depth,
        "d_max": result.spectrum.d_max,
        "L": result.spectrum.num_blocks,
        "samples": result.samples,
        "seed": result.seed,
    }
    records = [
        dict(
            base,
            probe="theta",
            mean=result.theta_stats.mean,
            variance=result.theta_stats.variance,
            stderr=result.theta_stats.stderr,
        )
    ]
    if result.alpha_stats is not None:
        records.append(
            dict(
                base,
                probe="alpha",
                mean=result.alpha_stats.mean,
                variance=result.alpha_stats.variance,
                stderr=result.alpha_stats.stderr,
            )
        )
    return records


def group_rows(result: GroupScanResult) -> list[list]:
    return [[rec[c] for c in GROUP_COLUMNS] for rec in group_dicts(result)]


def _variance_ratio(num, den) -> float | None:
    """``num.variance / den.variance``; None when the denominator is zero
    (a dimension-1 block has exactly zero gradient variance)."""
    return None if den.variance == 0.0 else num.variance / den.variance


def group_summary(results) -> dict:
    """Per-spectrum variances plus consecutive-pair scaling ratios."""
    spectra = []
    for res in results:
        spectra.append(
            {
                "dims": spectrum_label(res.spectrum),
                "d_max": res.spectrum.d_max,
                "L": res.spectrum.num_blocks,
                "theta_variance": res.theta_stats.variance,
                "alpha_variance": (
                    None if res.alpha_stats is None else res.alpha_stats.variance
                ),
            }
        )
    ratios = []
    for i in range(len(results) - 1):
        a, b = results[i], results[i + 1]
        entry = {
            "pair": [i, i + 1],
            "theta": _variance_ratio(b.theta_stats, a.theta_stats),
        }
        if a.alpha_stats is not None and b.alpha_stats is not None:
            entry["alpha"] = _variance_ratio(b.alpha_stats, a.alpha_stats)
        ratios.append(entry)
    return {"spectra": spectra, "ratios": ratios}


# ---------------------------------------------------------------------------
# digit-classification grids


def mnist_columns(epochs: int) -> tuple[str, ...]:
    return (
        "L",
        "D",
        "run",
        "seed",
        *(f"epoch_loss_{e + 1}" for e in range(epochs)),
        "test_accuracy",
    )


def mnist_rows(cells) -> list[list]:
    """``mnist_dicts`` records with the epoch-loss list spread over columns."""
    return [
        [x for value in record.values() for x in (value if isinstance(value, list) else [value])]
        for record in mnist_dicts(cells)
    ]


def mnist_dicts(cells) -> list[dict]:
    records = []
    for cell in cells:
        for metrics in cell.metrics:
            records.append(
                {
                    "L": cell.L,
                    "D": cell.D,
                    "run": metrics.run_index,
                    "seed": metrics.run_seed,
                    "epoch_losses": list(metrics.epoch_losses),
                    "test_accuracy": metrics.test_accuracy,
                }
            )
    return records


def mnist_summary(cells) -> dict:
    """Mean/std accuracy per cell plus cross-cell trend comparisons."""
    table = [
        {
            "L": cell.L,
            "D": cell.D,
            "mean_accuracy": cell.mean_accuracy,
            "std_accuracy": cell.std_accuracy,
        }
        for cell in cells
    ]
    by_key = {(cell.L, cell.D): cell.mean_accuracy for cell in cells}
    L_values = sorted({cell.L for cell in cells})
    D_values = sorted({cell.D for cell in cells})
    comparisons = {}
    if len(L_values) > 1:
        lo, hi = L_values[0], L_values[-1]
        for D in D_values:
            comparisons[f"acc(L={hi},D={D}) > acc(L={lo},D={D})"] = bool(
                by_key[(hi, D)] > by_key[(lo, D)]
            )
    if len(D_values) > 1:
        lo, hi = D_values[0], D_values[-1]
        for L in L_values:
            comparisons[f"acc(L={L},D={hi}) > acc(L={L},D={lo})"] = bool(
                by_key[(L, hi)] > by_key[(L, lo)]
            )
    return {"cells": table, "comparisons": comparisons}
