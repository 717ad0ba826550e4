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
from itertools import combinations
from pathlib import Path

import numpy as np

from .csvtext import csv_fields, csv_line, csv_rows, format_g12
from .errors import ContractError, PhaseSyncError
from .panel import (
    FilterBand,
    Month,
    Panel,
    band_from_periods,
    first_repeated,
    load_panel_csv,
    load_recession_csv,
    read_panel_csv,
    write_panel_csv,
)
from .pipeline import (
    DEFAULT_THRESHOLDS,
    PipelineConfig,
    ResultMeta,
    SyncResult,
    band_items,
    check_thresholds,
    filter_column,
    gamma_csv_sink,
    panel_phases,
    r_label,
    run_pipeline,
    write_metadata,
)
from .sync import score_pairs
from .synthetic import RegimeSpec, gen_regime_panel, gen_sine


def _header_items(args) -> list[tuple[str, str]]:
    """The items that open every metadata.txt: command, input path and its SHA-256."""
    digest = hashlib.sha256()
    with open(args.input, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return [("command", args.command), ("input", str(args.input)),
            ("input_sha256", digest.hexdigest())]


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
    return check_thresholds(sorted(set(args.r))) if args.r else DEFAULT_THRESHOLDS


def _config(args, band: FilterBand, window: int) -> PipelineConfig:
    return PipelineConfig(band=band, window=window, thresholds=_thresholds(args),
                          detrend=args.detrend, trim=args.trim)


class _OutputTracker:
    """Records files as they are created so failures can clean them up."""

    def __init__(self, out_dir: Path, inputs):
        self.out_dir = out_dir
        self.inputs = [Path(p) for p in inputs]  # files no output may replace
        self.written: list[Path] = []

    def target(self, name: str) -> Path:
        """The path of output `name`. Raises ContractError, before the file
        is opened or recorded, if it is the same file as an input."""
        path = self.out_dir / name
        for source in self.inputs:
            if path.exists() and source.exists() and path.samefile(source):
                raise ContractError(
                    f"output {path} is the input {source}: choose another --out"
                )
        self.written.append(path)
        return path

    def discard_all(self) -> None:
        for path in self.written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def cmd_filter(args, out: _OutputTracker) -> None:
    """Band-pass every member of the input panel into filtered.csv.

    The panel is read as one writable array and each member's column is
    replaced by its filter_column, so only one copy of the panel is held;
    the metadata items, which hash the input file, are taken first.
    """
    ids, first, values = read_panel_csv(args.input)
    n = len(values)
    band = _resolve_band(args, n)
    items = _header_items(args) + [
        ("n_series", str(len(ids))),
        ("n_months", str(n)),
        ("detrend", str(args.detrend).lower()),
    ] + band_items(n, band)
    for k in range(len(ids)):
        values[:, k] = filter_column(values[:, k], band, args.detrend)
    write_panel_csv(Panel(ids, first, values), out.target("filtered.csv"))
    write_metadata(out.target("metadata.txt"), items)


def cmd_sync(args, out: _OutputTracker) -> None:
    panel = load_panel_csv(args.input)
    config = _config(args, _resolve_band(args, panel.n), args.window)
    meta = ResultMeta.of(panel, config)
    mask = None
    if args.calendar is not None:
        # a bad calendar fails before any series is filtered or gamma2.csv opened
        mask = meta.contraction_mask(load_recession_csv(args.calendar))

    with open(out.target("gamma2.csv"), "wb") as fh:
        result = run_pipeline(panel, config, gamma_csv_sink(fh, meta))

    labels = None
    regime_items: list[tuple[str, str]] = []
    if mask is not None:
        labels = tuple("contraction" if c else "expansion" for c in mask)
        regimes = [(regime, m) for regime, m in (("contraction", mask), ("expansion", ~mask))
                   if m.any()]
        regime_items = [(f"mean_R_{r_label(r)}_{regime}",
                         format(result.ratios[r][m].mean(), ".12g"))
                        for r in config.thresholds for regime, m in regimes]

    result.write_ratio_wide_csv(out.target("ratios.csv"), labels)
    result.write_ratio_long_csv(out.target("ratios_long.csv"))
    write_metadata(out.target("metadata.txt"),
                   _header_items(args) + result.meta_items() + regime_items)


def _parse_windows(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ContractError(f"--windows expects comma-separated integers, got {text!r}") from None
    if len(values) < 2:
        raise ContractError("--windows needs at least two values to compare")
    repeated = first_repeated(values)
    if repeated is not None:
        raise ContractError(f"--windows repeats the window {repeated}")
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
    repeated = first_repeated(bands)
    if repeated is not None:
        raise ContractError(f"--bands repeats the band {repeated.lower}:{repeated.upper}")
    return tuple(bands)


def cmd_sweep(args, out: _OutputTracker) -> None:
    if (args.windows is None) == (args.bands is None):
        raise ContractError("give exactly one of --windows or --bands")
    if args.windows is not None and args.window is not None:
        raise ContractError("--window does not apply to a --windows sweep")
    for flag in ("kl", "ku", "longest", "shortest"):
        if args.bands is not None and getattr(args, flag) is not None:
            raise ContractError(f"--{flag} does not apply to a --bands sweep")
    if args.bands is not None and args.window is None:
        raise ContractError("--bands sweep needs --window")
    windows = _parse_windows(args.windows) if args.windows is not None else None
    bands = _parse_bands(args.bands) if args.bands is not None else None
    panel = load_panel_csv(args.input)
    thresholds = _thresholds(args)

    # the axis held fixed is recorded in the metadata
    if windows is not None:
        band = _resolve_band(args, panel.n)
        configs = {f"W{w}": _config(args, band, w) for w in windows}
        fixed_items = band_items(panel.n, band)
    else:
        configs = {f"kl{band.lower}_ku{band.upper}": _config(args, band, args.window)
                   for band in bands}
        fixed_items = [("window", str(args.window))]
    metas = {label: ResultMeta.of(panel, config) for label, config in configs.items()}

    phased = {}  # band -> phases: a --windows sweep filters once
    kept = []  # (label, first month, thresholds x samples R)
    for label, meta in metas.items():
        config = meta.config
        if config.band not in phased:
            phased[config.band] = panel_phases(panel, config)
        ratios = score_pairs(phased[config.band], config.window, thresholds)
        SyncResult(gamma2=None, ratios=dict(zip(thresholds, ratios)),
                   meta=meta).write_ratio_wide_csv(out.target(f"ratios_{label}.csv"))
        kept.append((label, meta.anchor, ratios))

    # common support: months covered by every setting (trim and window vary);
    # each setting's samples are consecutive months from its first month
    first = max(month for _, month, _ in kept)
    last = min(month + (ratios.shape[1] - 1) for _, month, ratios in kept)
    if last < first:
        raise ContractError("sweep settings share no common months")
    common = [(label, ratios[:, first - month:last - month + 1])
              for label, month, ratios in kept]

    fields, pearsons = [], []
    for (label_a, ratios_a), (label_b, ratios_b) in combinations(common, 2):
        for r, a, b in zip(thresholds, ratios_a, ratios_b):
            fields.append((label_a, label_b, r_label(r)))
            if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
                pearsons.append(float("nan"))  # undefined: an R series is constant
            else:
                pearsons.append(np.corrcoef(a, b)[0, 1])
    with open(out.target("stability.csv"), "wb") as fh:
        fh.write(csv_line(["setting_a", "setting_b", "r", "pearson"]).encode())
        fh.write(csv_rows(csv_fields(fields), format_g12(pearsons)[:, None]))

    items = _header_items(args) + [
        ("n_series", str(len(panel))),
        ("n_months", str(panel.n)),
        ("settings", ",".join(metas)),
        *fixed_items,
        ("thresholds", ",".join(map(r_label, thresholds))),
        ("detrend", str(args.detrend).lower()),
        ("trim", str(args.trim).lower()),
        ("common_months", str(last - first + 1)),
        ("common_first", str(first)),
        ("common_last", str(last)),
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
        ids = [f"s{i + 1:0{width}d}" for i in range(members)]
        columns = [gen_sine(args.n, args.period, amp, offset)
                   for amp, offset in zip(amplitudes, offsets)]
        # a panel with no member is refused before its values are looked at
        panel = Panel(ids, start, np.transpose(columns))
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

    # flags shared by filter, sync and sweep, then by sync and sweep
    panel_flags = argparse.ArgumentParser(add_help=False)
    panel_flags.add_argument("input", help="panel CSV (date,<id>,... header)")
    panel_flags.add_argument("--kl", type=int, help="lower cutoff (cycles per record)")
    panel_flags.add_argument("--ku", type=int, help="upper cutoff (cycles per record)")
    panel_flags.add_argument("--longest", type=float, help="longest period kept, months")
    panel_flags.add_argument("--shortest", type=float, help="shortest period kept, months")
    panel_flags.add_argument("--detrend", action=argparse.BooleanOptionalAction,
                             default=True, help="subtract least-squares line first")
    panel_flags.add_argument("--out", default=".", help="output directory")
    pair_flags = argparse.ArgumentParser(add_help=False)
    pair_flags.add_argument("--r", type=float, action="append",
                            help="ratio threshold in [0,1], repeatable "
                                 "(default 0.7 and 0.8)")
    pair_flags.add_argument("--trim", action=argparse.BooleanOptionalAction, default=True,
                            help="drop filter edge effects before pairing")

    sub.add_parser("filter", parents=[panel_flags],
                   help="band-pass every series of a panel")

    p_sync = sub.add_parser("sync", parents=[panel_flags, pair_flags],
                            help="all-pairs synchronization pipeline")
    p_sync.add_argument("--window", type=int, required=True,
                        help="odd moving-window length, months")
    p_sync.add_argument("--calendar", help="recession calendar CSV (peak,trough)")

    p_sweep = sub.add_parser("sweep", parents=[panel_flags, pair_flags],
                             help="repeat sync across windows or bands")
    p_sweep.add_argument("--window", type=int, help="window for a --bands sweep")
    p_sweep.add_argument("--windows", help="comma list, e.g. 11,13,15")
    p_sweep.add_argument("--bands", help="comma list of lower:upper, e.g. 5:17,4:18")

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
    inputs = [getattr(args, flag, None) for flag in ("input", "calendar")]
    out = _OutputTracker(Path(args.out), [p for p in inputs if p is not None])
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
