"""Batch command-line interface.

Four subcommands: `filter` (band-pass a panel), `sync` (full pipeline to
gamma2/ratio CSVs), `sweep` (repeat sync across windows or bands and
report stability), and `gen` (synthetic panels). Every command writes into
--out and exits 0 only if all outputs were written; on failure, files
already written are removed so a partial run never looks complete.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from .errors import ContractError, PhaseSyncError
from .panel import (
    FilterBand,
    Month,
    Panel,
    TimeSeries,
    band_from_periods,
    csv_line,
    load_panel_csv,
    load_recession_csv,
    periods_of_band,
    round_half_up,
    write_panel_csv,
)
from .pipeline import PipelineConfig, annotate_recessions, run_pipeline, write_metadata
from .spectral import bandpass, detrend_linear
from .synthetic import RegimeSpec, gen_regime_panel, gen_sine

DEFAULT_THRESHOLDS = (0.7, 0.8)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _add_band_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kl", type=int, help="lower cutoff (cycles per record)")
    parser.add_argument("--ku", type=int, help="upper cutoff (cycles per record)")
    parser.add_argument("--longest", type=float, help="longest period kept, months")
    parser.add_argument("--shortest", type=float, help="shortest period kept, months")


def _resolve_band(args, n: int) -> FilterBand:
    has_k = args.kl is not None or args.ku is not None
    has_p = args.longest is not None or args.shortest is not None
    if has_k and has_p:
        raise ContractError("give either --kl/--ku or --longest/--shortest, not both")
    if has_k:
        if args.kl is None or args.ku is None:
            raise ContractError("--kl and --ku must be given together")
        band = FilterBand(args.kl, args.ku)
        band.validate_for(n)
        return band
    if has_p:
        if args.longest is None or args.shortest is None:
            raise ContractError("--longest and --shortest must be given together")
        return band_from_periods(n, args.longest, args.shortest)
    raise ContractError("a band is required: --kl/--ku or --longest/--shortest")


def _thresholds(args) -> tuple[float, ...]:
    if not args.r:
        return DEFAULT_THRESHOLDS
    return tuple(sorted(set(args.r)))


def _period_items(n: int, band: FilterBand) -> list[tuple[str, str]]:
    shortest, longest = periods_of_band(n, band)
    return [
        ("band_lower", str(band.lower)),
        ("band_upper", str(band.upper)),
        ("shortest_period_months", format(shortest, ".12g")),
        ("longest_period_months", format(longest, ".12g")),
        ("shortest_period_rounded", str(round_half_up(shortest))),
        ("longest_period_rounded", str(round_half_up(longest))),
    ]


class _OutputTracker:
    """Records files as they are created so failures can clean them up."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def target(self, name: str) -> Path:
        path = self.out_dir / name
        self.written.append(path)
        return path

    def discard_all(self) -> None:
        for path in self.written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def cmd_filter(args, out: _OutputTracker) -> None:
    panel = load_panel_csv(args.input)
    band = _resolve_band(args, panel.n)
    filtered = []
    for member in panel:
        x = detrend_linear(member.values) if args.detrend else member.values
        filtered.append(TimeSeries(member.id, member.start, bandpass(x, band)))
    write_panel_csv(Panel(tuple(filtered)), out.target("filtered.csv"))
    items = [
        ("command", "filter"),
        ("input", str(args.input)),
        ("input_sha256", _sha256(args.input)),
        ("n_series", str(len(panel))),
        ("n_months", str(panel.n)),
        ("detrend", str(args.detrend).lower()),
    ] + _period_items(panel.n, band)
    write_metadata(out.target("metadata.txt"), items)


def cmd_sync(args, out: _OutputTracker) -> None:
    panel = load_panel_csv(args.input)
    band = _resolve_band(args, panel.n)
    config = PipelineConfig(
        band=band,
        window=args.window,
        thresholds=_thresholds(args),
        detrend=args.detrend,
        trim=args.trim,
    )
    result = run_pipeline(panel, config)

    labels = None
    regime_items: list[tuple[str, str]] = []
    if args.calendar is not None:
        calendar = load_recession_csv(args.calendar)
        annotation = annotate_recessions(result, calendar)
        labels = annotation.labels
        for r in config.thresholds:
            for regime, mean in annotation.regime_means[r].items():
                regime_items.append(
                    (f"mean_R_{format(r, 'g')}_{regime}", format(mean, ".12g"))
                )

    result.write_gamma_csv(out.target("gamma2.csv"))
    result.write_ratio_wide_csv(out.target("ratios.csv"), labels)
    result.write_ratio_long_csv(out.target("ratios_long.csv"))
    items = [
        ("command", "sync"),
        ("input", str(args.input)),
        ("input_sha256", _sha256(args.input)),
    ] + result.meta_items() + _period_items(panel.n, band)[2:] + regime_items
    write_metadata(out.target("metadata.txt"), items)


def _parse_windows(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ContractError(f"--windows expects comma-separated integers, got {text!r}") from None
    if len(values) < 2:
        raise ContractError("--windows needs at least two values to compare")
    return values


def _parse_bands(text: str) -> tuple[FilterBand, ...]:
    bands = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ContractError(
                f"--bands expects comma-separated lower:upper pairs, got {part!r}"
            )
        try:
            bands.append(FilterBand(int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise ContractError(f"bad band {part!r}: cutoffs must be integers") from None
    if len(bands) < 2:
        raise ContractError("--bands needs at least two values to compare")
    return tuple(bands)


def cmd_sweep(args, out: _OutputTracker) -> None:
    if (args.windows is None) == (args.bands is None):
        raise ContractError("give exactly one of --windows or --bands")
    panel = load_panel_csv(args.input)
    thresholds = _thresholds(args)

    settings: list[tuple[str, PipelineConfig]] = []
    if args.windows is not None:
        band = _resolve_band(args, panel.n)
        for w in _parse_windows(args.windows):
            settings.append((f"W{w}", PipelineConfig(
                band=band, window=w, thresholds=thresholds,
                detrend=args.detrend, trim=args.trim,
            )))
    else:
        if args.window is None:
            raise ContractError("--bands sweep needs --window")
        for band in _parse_bands(args.bands):
            band.validate_for(panel.n)
            settings.append((f"kl{band.lower}_ku{band.upper}", PipelineConfig(
                band=band, window=args.window, thresholds=thresholds,
                detrend=args.detrend, trim=args.trim,
            )))

    results = []
    for label, config in settings:
        result = run_pipeline(panel, config)
        result.write_ratio_wide_csv(out.target(f"ratios_{label}.csv"))
        results.append((label, result))

    # common support: months covered by every setting (trim and window vary)
    month_maps = [
        {result.month_of(i): i for i in range(result.n_samples)}
        for _, result in results
    ]
    common = sorted(set(month_maps[0]).intersection(*month_maps[1:]))
    if not common:
        raise ContractError("sweep settings share no common months")

    with open(out.target("stability.csv"), "w", newline="") as fh:
        fh.write(csv_line(["setting_a", "setting_b", "r", "pearson"]))
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                label_a, res_a = results[i]
                label_b, res_b = results[j]
                idx_a = [month_maps[i][m] for m in common]
                idx_b = [month_maps[j][m] for m in common]
                for r in thresholds:
                    series_a = res_a.ratios[r][idx_a]
                    series_b = res_b.ratios[r][idx_b]
                    if np.ptp(series_a) == 0.0 or np.ptp(series_b) == 0.0:
                        pearson = float("nan")  # undefined: an R series is constant
                    else:
                        pearson = float(np.corrcoef(series_a, series_b)[0, 1])
                    fh.write(csv_line([label_a, label_b, format(r, "g"),
                                       format(pearson, ".12g")]))

    items = [
        ("command", "sweep"),
        ("input", str(args.input)),
        ("input_sha256", _sha256(args.input)),
        ("n_series", str(len(panel))),
        ("n_months", str(panel.n)),
        ("settings", ",".join(label for label, _ in settings)),
        ("thresholds", ",".join(format(r, "g") for r in thresholds)),
        ("detrend", str(args.detrend).lower()),
        ("trim", str(args.trim).lower()),
        ("common_months", str(len(common))),
        ("common_first", str(common[0])),
        ("common_last", str(common[-1])),
    ]
    write_metadata(out.target("metadata.txt"), items)


def _parse_float_list(text: str, flag: str, count: int) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ContractError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if len(values) == 1:
        return values * count
    if len(values) != count:
        raise ContractError(
            f"{flag} got {len(values)} values for {count} members"
        )
    return values


def _parse_segments(text: str) -> tuple[tuple[int, str], ...]:
    segments = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ContractError(
                f"--regime expects comma-separated regime:length parts, got {part!r}"
            )
        regime, length = pieces
        try:
            segments.append((int(length), regime))
        except ValueError:
            raise ContractError(f"bad segment length in {part!r}") from None
    return tuple(segments)


def cmd_gen(args, parser: argparse.ArgumentParser, out: _OutputTracker) -> None:
    if args.sine and args.regime is not None:
        parser.error("give only one of --sine or --regime")
    if not args.sine and args.regime is None:
        parser.error("one of --sine or --regime is required")
    start = Month.parse(args.start)
    if args.sine:
        if args.n is None:
            parser.error("--sine requires --n")
        members = args.members
        amplitudes = _parse_float_list(args.amp, "--amp", members)
        offsets = _parse_float_list(args.phase, "--phase", members)
        width = max(1, len(str(members)))
        panel = Panel(tuple(
            gen_sine(args.n, args.period, amplitudes[i], offsets[i],
                     series_id=f"s{i + 1:0{width}d}", start=start)
            for i in range(members)
        ))
    else:
        spec = RegimeSpec(
            segments=_parse_segments(args.regime),
            base_period=args.base_period,
            jitter=args.jitter,
            noise_sd=args.noise_sd,
            seed=args.seed,
        )
        panel = gen_regime_panel(args.members, spec, start=start)
        print(f"seed = {args.seed}")
    write_panel_csv(panel, out.target("panel.csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasesync",
        description="Phase synchronization analysis of monthly panel CSVs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="band-pass every series of a panel")
    p_filter.add_argument("input", help="panel CSV (date,<id>,... header)")
    _add_band_flags(p_filter)
    p_filter.add_argument("--detrend", action=argparse.BooleanOptionalAction,
                          default=True, help="subtract least-squares line first")
    p_filter.add_argument("--out", default=".", help="output directory")

    p_sync = sub.add_parser("sync", help="all-pairs synchronization pipeline")
    p_sync.add_argument("input", help="panel CSV")
    _add_band_flags(p_sync)
    p_sync.add_argument("--window", type=int, required=True,
                        help="odd moving-window length, months")
    p_sync.add_argument("--r", type=float, action="append",
                        help="ratio threshold in [0,1], repeatable "
                             "(default 0.7 and 0.8)")
    p_sync.add_argument("--detrend", action=argparse.BooleanOptionalAction, default=True)
    p_sync.add_argument("--trim", action=argparse.BooleanOptionalAction, default=True,
                        help="drop filter edge effects before pairing")
    p_sync.add_argument("--calendar", help="recession calendar CSV (peak,trough)")
    p_sync.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="repeat sync across windows or bands")
    p_sweep.add_argument("input", help="panel CSV")
    _add_band_flags(p_sweep)
    p_sweep.add_argument("--window", type=int, help="window for a --bands sweep")
    p_sweep.add_argument("--windows", help="comma list, e.g. 11,13,15")
    p_sweep.add_argument("--bands", help="comma list of lower:upper, e.g. 5:17,4:18")
    p_sweep.add_argument("--r", type=float, action="append")
    p_sweep.add_argument("--detrend", action=argparse.BooleanOptionalAction, default=True)
    p_sweep.add_argument("--trim", action=argparse.BooleanOptionalAction, default=True)
    p_sweep.add_argument("--out", default=".", help="output directory")

    p_gen = sub.add_parser("gen", help="generate a synthetic panel CSV")
    p_gen.add_argument("--sine", action="store_true",
                       help="pure sinusoids (needs --n and --period)")
    p_gen.add_argument("--regime",
                       help="segment layout, e.g. coupled:120,uncoupled:120")
    p_gen.add_argument("--n", type=int, help="length in months (--sine)")
    p_gen.add_argument("--period", type=float, default=24.0,
                       help="sinusoid period in months (--sine)")
    p_gen.add_argument("--members", type=int, default=2, help="panel size")
    p_gen.add_argument("--amp", default="1",
                       help="comma list of amplitudes, one per member or one shared")
    p_gen.add_argument("--phase", default="0",
                       help="comma list of phase offsets in radians")
    p_gen.add_argument("--base-period", type=float, default=33.0,
                       help="oscillator period in months (--regime)")
    p_gen.add_argument("--jitter", type=float, default=0.65,
                       help="relative frequency perturbation scale (--regime)")
    p_gen.add_argument("--noise-sd", type=float, default=0.15,
                       help="observation noise standard deviation (--regime)")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed (--regime)")
    p_gen.add_argument("--start", default="1980-01", help="first month, YYYY-MM")
    p_gen.add_argument("--out", default=".", help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _OutputTracker(Path(args.out))
    try:
        out.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "filter":
            cmd_filter(args, out)
        elif args.command == "sync":
            cmd_sync(args, out)
        elif args.command == "sweep":
            cmd_sweep(args, out)
        elif args.command == "gen":
            cmd_gen(args, parser, out)
        return 0
    except (PhaseSyncError, OSError) as exc:
        out.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        out.discard_all()
        raise


if __name__ == "__main__":
    sys.exit(main())
