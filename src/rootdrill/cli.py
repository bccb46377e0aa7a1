"""Command-line entry points.

Four subcommands: ``localize`` analyzes one snapshot, ``simulate`` writes a
benchmark dataset of injected faults, ``evaluate`` scores localization over
such a dataset, and ``exrc-threshold`` derives an external-root-cause flag
threshold from history.  Exit codes: 0 on success, 1 for bad input, 2 for
internal failures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path

from .cluster import N_BINS, bin_center
from .data import MeasureSpec, parse_snapshot
from .evaluate import run_benchmark
from .forecast import DEFAULT_WINDOW, snapshot_with_forecast
from .localize import LocalizationReport, LocalizeConfig, localize, select_exrc_threshold
from .simulate import SimulationParams, generate_dataset, synthetic_base, write_fault

SCHEMA_VERSION = "1"


class _InputError(Exception):
    """Bad arguments or unreadable input (exit 1)."""


@contextmanager
def _reading_input():
    """Report an error raised while reading or validating input as bad input."""
    try:
        yield
    except (OSError, ValueError, KeyError) as e:
        raise _InputError(e) from e


def parse_measure(text: str) -> MeasureSpec:
    """Parse ``kind:op1[,op2][:family]``, e.g. ``quotient:succ,total``."""
    parts = text.split(":")
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"bad measure spec {text!r}")
    kind = parts[0]
    operands = tuple(parts[1].split(",")) if len(parts) > 1 and parts[1] else ("value",)
    family = parts[2] if len(parts) > 2 else "none"
    return MeasureSpec(kind, operands, family)


def _parse_range(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        if hi < lo:
            raise ValueError(f"range {text!r} ends below its start")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_grid(text: str) -> list[tuple[int, int]]:
    """Parse ``<n_element spec>x<layer spec>``, e.g. ``1-3x1-3`` or ``2x1``."""
    try:
        n_part, l_part = text.lower().split("x", 1)
        return [(n, layer) for n in _parse_range(n_part) for layer in _parse_range(l_part)]
    except ValueError:
        raise ValueError(f"bad grid spec {text!r}; expected forms like 1-3x1-3") from None


# -- localize --------------------------------------------------------------


def _combo_json(combo) -> list[dict[str, str]]:
    return [{"attr": a, "value": v} for a, v in combo.items]


def report_json(report: LocalizationReport) -> dict:
    combos = sorted({c for group in report.root_causes for c in group})
    payload = {
        "version": SCHEMA_VERSION,
        "root_causes": [_combo_json(c) for c in combos],
        "per_cluster": [
            {
                "bounds": [round(float(r.bounds[0]), 6), round(float(r.bounds[1]), 6)],
                "gps": None if r.candidate is None else r.candidate.gps,
                "root_cause": []
                if r.candidate is None
                else [_combo_json(c) for c in r.candidate.combinations],
            }
            for r in report.per_cluster
        ],
        "min_gps": report.min_gps,
        "external_root_cause": report.external_root_cause,
        "elapsed_s": report.elapsed,
    }
    if report.note:
        payload["note"] = report.note
    return payload


def _cmd_localize(args) -> int:
    with _reading_input():
        measure = parse_measure(args.measure)
        snapshot_path = Path(args.snapshot)
        text = snapshot_path.read_text()
        if args.history:
            hist_dir = Path(args.history)
            files = sorted(p for p in hist_dir.iterdir() if p.suffix == ".csv")
            # when the snapshot sits inside the history directory, use only
            # what precedes it
            names = [p.name for p in files]
            if snapshot_path.resolve().parent == hist_dir.resolve() and snapshot_path.name in names:
                files = files[: names.index(snapshot_path.name)]
            if not files:
                raise ValueError(f"no history CSVs usable in {hist_dir}")
            snapshot = snapshot_with_forecast(
                text, [p.read_text() for p in files], measure, window=DEFAULT_WINDOW
            )
        else:
            snapshot = parse_snapshot(text, measure)
        cfg = LocalizeConfig(delta=args.delta, delta_exrc=args.delta_exrc)
    report = localize(snapshot, cfg)

    if args.hist_out:
        density = report.score_density
        lines = ["bin_center,density"]
        lines += [f"{float(bin_center(i)):.2f},{float(density[i]):.10g}" for i in range(N_BINS)]
        Path(args.hist_out).write_text("\n".join(lines) + "\n")

    Path(args.out).write_text(json.dumps(report_json(report), indent=1) + "\n")
    n = len({c for g in report.root_causes for c in g})
    flag = "external" if report.external_root_cause else "internal"
    gps = "n/a" if report.min_gps is None else f"{report.min_gps:.4f}"
    print(f"{n} root cause combination(s), min_gps={gps}, {flag}")
    return 0


# -- simulate --------------------------------------------------------------


def _load_base(spec: str, measure_text: str, seed: int):
    if spec.startswith("synthetic:"):
        shape = spec.split(":", 1)[1]
        mean = 50.0
        if "@" in shape:
            shape, mean_s = shape.split("@", 1)
            mean = float(mean_s)
        try:
            n_attrs, n_values = (int(x) for x in shape.lower().split("x", 1))
        except ValueError:
            raise ValueError(
                f"bad synthetic base spec {spec!r}; expected synthetic:<attrs>x<values>[@mean]"
            ) from None
        return synthetic_base(n_attrs, n_values, mean_rate=mean, seed=seed)
    return parse_snapshot(Path(spec).read_text(), parse_measure(measure_text))


def _cmd_simulate(args) -> int:
    # a ValueError while simulating means an argument does not fit the base
    # (a layer deeper than its attributes, more causes than it can hold
    # apart, --per-cell 0)
    with _reading_input():
        base = _load_base(args.base, args.measure, args.seed)
        cells = parse_grid(args.grid)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # cells are written beside --out and moved in once the last one is done,
    # so a failed run leaves no partial dataset for evaluate to score
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        with _reading_input():
            for n, layer in cells:
                params = SimulationParams(
                    n_element=n,
                    cuboid_layer=layer,
                    base_noise_sigma=args.noise,
                    leaf_noise_sigma=args.leaf_noise,
                    seed=args.seed * 1000003 + n * 1009 + layer,
                )
                faults = generate_dataset(base, [params], args.per_cell)
                for i, fault in enumerate(faults):
                    write_fault(fault, staging / f"n{n}_l{layer}" / f"{i:04d}")
                print(f"cell ({n},{layer}): wrote {len(faults)} faults")
        manifest = {
            "version": SCHEMA_VERSION,
            "base": args.base,
            "grid": args.grid,
            "per_cell": args.per_cell,
            "seed": args.seed,
            "noise": args.noise,
            "leaf_noise": args.leaf_noise,
        }
        (staging / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )
        out.mkdir(exist_ok=True)
        for entry in sorted(staging.iterdir()):
            # a cell written again replaces the old one whole
            if (out / entry.name).is_dir():
                shutil.rmtree(out / entry.name)
            entry.replace(out / entry.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return 0


# -- evaluate --------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    with _reading_input():
        cfg = LocalizeConfig(delta=args.delta, delta_exrc=args.delta_exrc)
    report = run_benchmark(
        args.dataset, cfg, workers=args.workers, family_override=args.family
    )
    payload = {
        "version": SCHEMA_VERSION,
        "per_setting": {f"{n},{l}": f1 for (n, l), f1 in report.per_setting.items()},
        "overall_f1": report.overall_f1,
        "macro_f1": report.macro_f1,
        "exrc_f1": report.exrc_f1,
        "mean_elapsed_s": report.mean_elapsed,
        "n_cases": report.n_cases,
        "skipped": report.skipped,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    shown = "n/a" if report.overall_f1 is None else f"{report.overall_f1:.4f}"
    print(f"{report.n_cases} cases, overall F1 {shown}, {report.skipped} skipped")
    return 0


def _cmd_exrc_threshold(args) -> int:
    with _reading_input():
        values = json.loads(Path(args.history).read_text())
        if not isinstance(values, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in values
        ):
            raise ValueError("history file must hold a JSON array of numbers")
        threshold = select_exrc_threshold(values)
    print(f"{threshold:.4f}")
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rootdrill", description="Multidimensional root cause localization."
    )
    sub = p.add_subparsers(dest="command", required=True)
    cfg = LocalizeConfig()  # the defaults of --delta and --delta-exrc

    lo = sub.add_parser("localize", help="localize root causes in one snapshot")
    lo.add_argument("--snapshot", required=True, help="snapshot CSV")
    lo.add_argument("--history", help="directory of historical CSVs for forecasting")
    lo.add_argument("--measure", default="fundamental:value", help="kind:op1[,op2][:family]")
    lo.add_argument("--delta", type=float, default=cfg.delta, help="early-stop score threshold")
    lo.add_argument("--delta-exrc", type=float, default=cfg.delta_exrc, help="external flag threshold")
    lo.add_argument("--hist-out", help="write the score histogram CSV here")
    lo.add_argument("--out", required=True, help="report JSON path")
    lo.set_defaults(func=_cmd_localize)

    si = sub.add_parser("simulate", help="generate a fault benchmark dataset")
    si.add_argument("--base", required=True, help="base CSV or synthetic:<attrs>x<values>[@mean]")
    si.add_argument("--measure", default="fundamental:value:poisson", help="measure of a CSV base")
    si.add_argument("--grid", required=True, help="cells, e.g. 1-3x1-3")
    si.add_argument("--per-cell", type=int, required=True, help="faults per cell")
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--noise", type=float, default=0.0, help="relative base noise sigma")
    si.add_argument("--leaf-noise", type=float, default=0.05, help="relative noise on faulty leaves")
    si.add_argument("--out", required=True, help="dataset directory")
    si.set_defaults(func=_cmd_simulate)

    ev = sub.add_parser("evaluate", help="score localization over a dataset")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--workers", type=int, default=1)
    ev.add_argument("--family", choices=["none", "poisson"], help="override distribution family")
    ev.add_argument("--delta", type=float, default=cfg.delta)
    ev.add_argument("--delta-exrc", type=float, default=cfg.delta_exrc)
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.set_defaults(func=_cmd_evaluate)

    ex = sub.add_parser("exrc-threshold", help="derive the external flag threshold")
    ex.add_argument("--history", required=True, help="JSON array of historical min_gps values")
    ex.set_defaults(func=_cmd_exrc_threshold)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which is bad input
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (_InputError, OSError) as e:
        # an unwritable output path is bad input as well
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
