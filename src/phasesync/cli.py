"""Batch command-line interface.

Four subcommands: `filter` (band-pass a panel), `sync` (full pipeline to
gamma2/ratio CSVs), `sweep` (repeat sync across windows or bands and
report stability), and `gen` (synthetic panels). Every command writes its
outputs into a stage directory inside --out (pipeline.StagedOutputs), and
--out changes only once the command and its metadata.txt have been written:
a failed run leaves --out as it was.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .csvtext import csv_fields, csv_rows, format_g12
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
    StagedOutputs,
    band_items,
    filter_column,
    gamma_csv_sink,
    metadata_lines,
    panel_phases,
    r_label,
    run_pipeline,
    write_metadata,
    write_ratio_csv,
    write_ratio_long_csv,
)
from .sync import check_window, score_pairs


# each input's metadata key, and its name on the command line
_INPUT_FLAGS = {"input": "input", "calendar": "--calendar"}


def _header_items(command: str, inputs) -> list[tuple[str, str]]:
    """The items that open every metadata.txt: command, then each of the
    {metadata key: path} inputs, its path followed by its SHA-256."""
    # OpenSSL adds about 2.4 MiB resident. Loaded after the arrays are freed, it stays off
    # the peak only of a run whose arrays outgrew it: filter_long's, not sync_wide's
    import hashlib

    items = [("command", command)]
    for key, path in inputs.items():
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                digest.update(chunk)
        items += [(key, str(path)), (f"{key}_sha256", digest.hexdigest())]
    return items


def _resolve_band(args, n: int) -> FilterBand:
    has_k = args.kl is not None or args.ku is not None
    has_p = args.longest is not None or args.shortest is not None
    if has_k and has_p:
        raise ContractError("give either --kl/--ku or --longest/--shortest, not both")
    if has_k:
        if args.kl is None or args.ku is None:
            raise ContractError("--kl and --ku must be given together")
        return FilterBand(args.kl, args.ku)
    if has_p:
        if args.longest is None or args.shortest is None:
            raise ContractError("--longest and --shortest must be given together")
        return band_from_periods(n, args.longest, args.shortest)
    raise ContractError("a band is required: --kl/--ku or --longest/--shortest")


def _config(args, band: FilterBand, window: int) -> PipelineConfig:
    """The run's config; PipelineConfig checks the window and the thresholds."""
    thresholds = sorted(set(args.r)) if args.r else DEFAULT_THRESHOLDS
    return PipelineConfig(band=band, window=window, thresholds=thresholds,
                          detrend=args.detrend, trim=args.trim)


def cmd_filter(args, out: StagedOutputs) -> list[tuple[str, str]]:
    """Band-pass every member of the input panel into filtered.csv and
    return the run's metadata items.

    The panel is read as one writable array and each member's column is
    replaced by its filter_column, so only one copy of the panel is held.
    """
    ids, first, values = read_panel_csv(args.input)
    n = len(values)
    band = _resolve_band(args, n)
    for k in range(len(ids)):
        values[:, k] = filter_column(values[:, k], band, args.detrend)
    write_panel_csv(Panel(ids, first, values), out.target("filtered.csv"))
    return [
        ("n_series", str(len(ids))),
        ("n_months", str(n)),
        ("detrend", str(args.detrend).lower()),
    ] + band_items(n, band)


def cmd_sync(args, out: StagedOutputs) -> list[tuple[str, str]]:
    panel = load_panel_csv(args.input)
    config = _config(args, _resolve_band(args, panel.n), args.window)
    meta = ResultMeta.of(panel, config)
    regimes = []
    if args.calendar is not None:
        # a bad calendar fails before any series is filtered or gamma2.csv opened
        regimes = meta.regimes(load_recession_csv(args.calendar))

    with open(out.target("gamma2.csv"), "wb") as fh:
        ratios = run_pipeline(panel, config, gamma_csv_sink(fh, meta)).ratios
    write_ratio_csv(out.target("ratios.csv"), meta, ratios, regimes)
    write_ratio_long_csv(out.target("ratios_long.csv"), meta, ratios)
    return meta.items() + [(f"mean_R_{r_label(r)}_{name}", format(row[mask].mean(), ".12g"))
                           for r, row in zip(config.thresholds, ratios) for name, mask in regimes]


def _list_flag(flag: str, text: str, convert, form: str) -> list:
    """Each comma-separated part of a list flag's text, converted. A part
    convert refuses is a ContractError naming the flag and the part: with
    convert's own ContractError, or, for any other ValueError, the form
    the flag expects."""
    values = []
    for part in text.split(","):
        try:
            values.append(convert(part))
        except ContractError as exc:
            raise ContractError(f"{flag} part {part!r}: {exc}") from None
        except ValueError:
            raise ContractError(f"{flag} expects comma-separated {form}, got {part!r}") from None
    return values


def _band(part: str) -> FilterBand:
    lower, upper = part.split(":")
    return FilterBand(int(lower), int(upper))


def _segment(part: str) -> tuple[int, str]:
    regime, length = part.split(":")
    return int(length), regime


def cmd_sweep(args, out: StagedOutputs) -> list[tuple[str, str]]:
    if (args.windows is None) == (args.bands is None):
        raise ContractError("give exactly one of --windows or --bands")
    flag = "--windows" if args.windows is not None else "--bands"
    for name in ("window",) if args.windows is not None else ("kl", "ku", "longest", "shortest"):
        if getattr(args, name) is not None:
            raise ContractError(f"--{name} does not apply to a {flag} sweep")
    if args.bands is not None and args.window is None:
        raise ContractError("--bands sweep needs --window")
    if args.windows is not None:
        settings = _list_flag(flag, args.windows, lambda part: check_window(int(part)), "integers")
        names = [f"window {w}" for w in settings]
    else:
        settings = _list_flag(flag, args.bands, _band, "lower:upper pairs")
        names = [f"band {band.lower}:{band.upper}" for band in settings]
    if len(settings) < 2:
        raise ContractError(f"{flag} needs at least two values to compare")
    repeated = first_repeated(names)
    if repeated is not None:
        raise ContractError(f"{flag} repeats the {repeated}")
    panel = load_panel_csv(args.input)

    # the axis held fixed is recorded in the metadata, as the settings' meta items give it
    if args.windows is not None:
        band = _resolve_band(args, panel.n)
        metas = {f"W{w}": ResultMeta.of(panel, _config(args, band, w)) for w in settings}
        fixed = [key for key, _ in band_items(panel.n, band)]
    else:
        metas = {f"kl{b.lower}_ku{b.upper}": ResultMeta.of(panel, _config(args, b, args.window))
                 for b in settings}
        fixed = ["window"]
    head = next(iter(metas.values()))
    shared, thresholds = dict(head.items()), head.config.thresholds  # checked, -0 read as 0

    # common support: the months every setting has a sample in. A setting's samples
    # are centred on the panel, past its first and last trim + (W - 1)/2 months, so the
    # settings' sample months nest, and the widest setting, whose anchor is the latest,
    # has exactly the common ones, whichever axes vary: >= 1, as ResultMeta.of checked
    widest = max(metas.values(), key=lambda meta: meta.anchor)
    band = phases = None  # a --windows sweep filters its one band once
    common = []  # each setting's label and R over the common months
    for label, meta in metas.items():
        if meta.config.band != band:
            band, phases = meta.config.band, panel_phases(panel, meta)
        ratios = score_pairs(phases, meta.config.window, thresholds)
        write_ratio_csv(out.target(f"ratios_{label}.csv"), meta, ratios)
        start = widest.anchor - meta.anchor
        common.append((label, ratios[:, start:start + widest.n_samples]))

    fields, pearsons = [], []
    for (label_a, ratios_a), (label_b, ratios_b) in combinations(common, 2):
        for r, a, b in zip(thresholds, ratios_a, ratios_b):
            fields.append((label_a, label_b, r_label(r)))
            if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
                pearsons.append(float("nan"))  # undefined: an R series is constant
            else:
                pearsons.append(np.corrcoef(a, b)[0, 1])
    with open(out.target("stability.csv"), "wb") as fh:
        fh.write(csv_rows(csv_fields([["setting_a", "setting_b", "r", "pearson"]])))
        fh.write(csv_rows(csv_fields(fields), format_g12(pearsons)[:, None]))

    return [
        *((key, shared[key]) for key in ("n_series", "n_months")),
        ("settings", ",".join(metas)),
        *((key, shared[key]) for key in (*fixed, "thresholds", "detrend", "trim")),
        ("common_months", str(widest.n_samples)),
        ("common_first", str(widest.anchor)),
        ("common_last", str(widest.month_of(widest.n_samples - 1))),
    ]


def cmd_gen(args, parser: argparse.ArgumentParser, out: StagedOutputs) -> None:
    # only gen generates; loaded here, sync, sweep and filter never compile or run synthetic.py
    from .synthetic import RegimeSpec, gen_regime_panel, gen_sine

    start = Month.parse(args.start)
    if args.sine:
        if args.n is None:
            parser.error("--sine requires --n")
        members = args.members
        per_member = []  # amplitudes, then offsets: one value per member, or one shared
        for flag, text in (("--amp", args.amp), ("--phase", args.phase)):
            values = _list_flag(flag, text, float, "numbers")
            if len(values) not in (1, members):
                raise ContractError(f"{flag} got {len(values)} values for {members} members")
            per_member.append(values * members if len(values) == 1 else values)
        amplitudes, offsets = per_member
        width = max(1, len(str(members)))
        ids = [f"s{i + 1:0{width}d}" for i in range(members)]
        columns = [gen_sine(args.n, args.period, amp, offset)
                   for amp, offset in zip(amplitudes, offsets)]
        # a panel with no member is refused before its values are looked at
        panel = Panel(ids, start, np.transpose(columns))
    else:
        spec = RegimeSpec(
            segments=_list_flag("--regime", args.regime, _segment, "regime:length parts"),
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
                            help="ratio threshold in [0,1], repeatable (default "
                                 f"{' and '.join(map(r_label, DEFAULT_THRESHOLDS))})")
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
    mode = p_gen.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sine", action="store_true",
                      help="pure sinusoids (needs --n and --period)")
    mode.add_argument("--regime", help="segment layout, e.g. coupled:120,uncoupled:120")
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
    inputs = {key: getattr(args, key) for key in _INPUT_FLAGS
              if getattr(args, key, None) is not None}
    try:
        for key, path in inputs.items():
            # a pipe would be drained by the load and then hash as no bytes;
            # a missing file is left for the load to report
            if Path(path).exists() and not Path(path).is_file():
                raise ContractError(f"{_INPUT_FLAGS[key]} {path} is not a regular file: "
                                    "it is read twice")
        # a path metadata.txt cannot hold fails before any work, not after it
        metadata_lines((key, str(path)) for key, path in inputs.items())
        with StagedOutputs(args.out, inputs.values()) as out:
            if args.command == "gen":
                cmd_gen(args, parser, out)
            else:
                commands = {"filter": cmd_filter, "sync": cmd_sync, "sweep": cmd_sweep}
                items = commands[args.command](args, out)
                # the inputs are hashed once the command has returned and its arrays are freed
                items = _header_items(args.command, inputs) + items + [out.outputs_item()]
                write_metadata(out.target("metadata.txt"), items)
            out.publish()
        return 0
    except (PhaseSyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
