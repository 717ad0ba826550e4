"""Independent numpy reference for the outputs of each workload.

The reference starts from the input CSV, as the program does, and follows
the method rather than the program's code: linear detrend, FFT band-pass,
analytic signal from the one-sided full FFT, edge trim, then the windowed
mean of exp(i*psi) by cumulative sums. Checks return a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from inputs import Workload, month_index, month_label

THRESHOLDS = (0.7, 0.8)  # the CLI's default --r values
VALUE_TOL = 1e-9  # outputs carry 12 significant digits
PEARSON_TOL = 1e-8


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def read_panel(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(dates, ids, values[member, month]) of a panel CSV."""
    lines = path.read_text().splitlines()
    ids = lines[0].split(",")[1:]
    rows = [line.split(",") for line in lines[1:]]
    dates = [row[0] for row in rows]
    values = np.array([row[1:] for row in rows], dtype=float).T
    return dates, ids, values


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def analytic(values: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Analytic signal of each detrended, band-passed row."""
    n = values.shape[1]
    if not 1 <= lower <= upper < n / 2:
        raise ValueError(f"band ({lower}, {upper}) must lie strictly inside 1..{n // 2}")
    t = np.arange(n) - (n - 1) / 2.0
    centred = values - values.mean(axis=1, keepdims=True)
    slope = centred @ t / (t @ t)
    detrended = centred - slope[:, None] * t
    k = np.arange(n)
    one_sided = np.where((k >= lower) & (k <= upper), 2.0, 0.0)
    return np.fft.ifft(np.fft.fft(detrended, axis=1) * one_sided, axis=1)


def pair_gamma2(unit: np.ndarray, window: int) -> np.ndarray:
    """(pairs, samples) windowed |mean exp(i*(phi_i - phi_j))|**2, pairs i < j."""
    i, j = np.triu_indices(unit.shape[0], 1)
    csum = np.cumsum(unit[i] * unit[j].conj(), axis=1)
    csum = np.concatenate([np.zeros((csum.shape[0], 1)), csum], axis=1)
    mean = (csum[:, window:] - csum[:, :-window]) / window
    return np.minimum(mean.real ** 2 + mean.imag ** 2, 1.0)


class Reference:
    """Expected outputs of one workload on one input panel."""

    def __init__(self, workload: Workload, panel_path: Path, calendar_path: Path | None):
        self.workload = workload
        self.dates, self.ids, self.values = read_panel(panel_path)
        self.start = month_index(self.dates[0])
        self.episodes = []
        if calendar_path is not None:
            _, rows = _read_csv(calendar_path)
            self.episodes = [(month_index(p), month_index(t)) for p, t in rows]

    def band(self) -> tuple[int, int]:
        argv, n = self.workload.argv, self.values.shape[1]
        if "--kl" in argv:
            return int(_flag(argv, "--kl")), int(_flag(argv, "--ku"))
        longest, shortest = float(_flag(argv, "--longest")), float(_flag(argv, "--shortest"))
        return _round_half_up(n / longest), _round_half_up(n / shortest)

    def sync_setting(self, window: int) -> dict:
        """gamma2, R per threshold, and calendar bookkeeping for one window."""
        lower, upper = self.band()
        n = self.values.shape[1]
        margin = _round_half_up(n / upper)
        z = analytic(self.values, lower, upper)[:, margin:n - margin]
        gamma2 = pair_gamma2(z / np.abs(z), window)
        half = (window - 1) // 2
        return {
            "gamma2": gamma2,
            "ratios": {r: (gamma2 >= r).mean(axis=0) for r in THRESHOLDS},
            # pairs whose gamma2 sits within rounding of r may count either way
            "slack": {r: (np.abs(gamma2 - r) <= VALUE_TOL).mean(axis=0) for r in THRESHOLDS},
            "t": [half + 1 + idx for idx in range(gamma2.shape[1])],
            "month": [self.start + margin + half + idx for idx in range(gamma2.shape[1])],
        }

    # -- checks -------------------------------------------------------------

    def check(self, out_dir: Path) -> list[str]:
        command = self.workload.argv[0]
        try:
            if command == "sync":
                return self._check_sync(out_dir)
            if command == "sweep":
                return self._check_sweep(out_dir)
            if command == "filter":
                return self._check_filter(out_dir)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
        return [f"no check for command {command!r}"]

    def _check_filter(self, out_dir: Path) -> list[str]:
        lower, upper = self.band()
        expected = analytic(self.values, lower, upper).real
        dates, ids, got = read_panel(out_dir / "filtered.csv")
        problems = []
        if dates != self.dates or ids != self.ids:
            problems.append("filtered.csv: dates or ids differ from the input")
        elif not _close(got, expected):
            problems.append(f"filtered.csv: max error {_max_error(got, expected):.3g}")
        return problems

    def _check_sync(self, out_dir: Path) -> list[str]:
        setting = self.sync_setting(int(_flag(self.workload.argv, "--window")))
        problems = self._check_gamma_csv(out_dir / "gamma2.csv", setting)
        labels = None
        if self.episodes:
            labels = ["contraction" if any(p < m <= t for p, t in self.episodes) else "expansion"
                      for m in setting["month"]]
        problems += self._check_ratio_wide(out_dir / "ratios.csv", setting, labels)[0]
        problems += self._check_ratio_long(out_dir / "ratios_long.csv", setting)
        return problems

    def _check_sweep(self, out_dir: Path) -> list[str]:
        windows = [int(w) for w in _flag(self.workload.argv, "--windows").split(",")]
        problems, got = [], {}
        for w in windows:
            found, ratios = self._check_ratio_wide(out_dir / f"ratios_W{w}.csv",
                                                   self.sync_setting(w), None)
            problems += found
            got[w] = ratios
        if problems:
            return problems
        common = sorted(set.intersection(*(set(got[w]) for w in windows)))
        _, rows = _read_csv(out_dir / "stability.csv")
        expected_keys = [(f"W{a}", f"W{b}", format(r, "g"))
                         for ia, a in enumerate(windows) for b in windows[ia + 1:]
                         for r in THRESHOLDS]
        if [tuple(row[:3]) for row in rows] != expected_keys:
            return ["stability.csv: rows differ from the expected setting pairs"]
        for (a, b, r), row in zip(expected_keys, rows):
            ri = THRESHOLDS.index(float(r))
            x = [got[int(a[1:])][m][ri] for m in common]
            y = [got[int(b[1:])][m][ri] for m in common]
            pearson = float(np.corrcoef(x, y)[0, 1])
            if abs(float(row[3]) - pearson) > PEARSON_TOL:
                problems.append(f"stability.csv: {a} vs {b} at r={r}: "
                                f"{row[3]} against {pearson!r}")
        return problems

    def _check_gamma_csv(self, path: Path, setting: dict) -> list[str]:
        header, rows = _read_csv(path)
        if header != ["t", "date", "pair_i", "pair_j", "gamma2"]:
            return [f"{path.name}: header {header}"]
        ids = self.ids
        keys = [[str(t), month_label(m)] for t, m in zip(setting["t"], setting["month"])]
        expected = [key + [ids[i], ids[j]]
                    for i in range(len(ids)) for j in range(i + 1, len(ids)) for key in keys]
        if [row[:4] for row in rows] != expected:
            return [f"{path.name}: row keys differ from (pair, month) order"]
        got = np.array([row[4] for row in rows], dtype=float)
        want = setting["gamma2"].ravel()
        if not _close(got, want):
            return [f"{path.name}: max error {_max_error(got, want):.3g}"]
        return []

    def _check_ratio_wide(self, path: Path, setting: dict, labels) -> tuple[list[str], dict]:
        """Problems, plus R per threshold by month index for stability checks."""
        header, rows = _read_csv(path)
        want_header = ["t", "date"] + [f"R_{format(r, 'g')}" for r in THRESHOLDS]
        if labels is not None:
            want_header.append("regime")
        if header != want_header:
            return [f"{path.name}: header {header}"], {}
        keys = [[str(t), month_label(m)] for t, m in zip(setting["t"], setting["month"])]
        if [row[:2] for row in rows] != keys:
            return [f"{path.name}: t/date column differs"], {}
        if labels is not None and [row[-1] for row in rows] != labels:
            return [f"{path.name}: regime labels differ"], {}
        width = len(THRESHOLDS)
        got = np.array([row[2:2 + width] for row in rows], dtype=float)
        problems = []
        for ri, r in enumerate(THRESHOLDS):
            problems += _ratio_problems(path.name, r, got[:, ri], setting)
        return problems, {m: got[idx] for idx, m in enumerate(setting["month"])}

    def _check_ratio_long(self, path: Path, setting: dict) -> list[str]:
        header, rows = _read_csv(path)
        if header != ["t", "date", "r", "R"]:
            return [f"{path.name}: header {header}"]
        keys = [[str(t), month_label(m), format(r, "g")]
                for r in THRESHOLDS for t, m in zip(setting["t"], setting["month"])]
        if [row[:3] for row in rows] != keys:
            return [f"{path.name}: t/date/r columns differ"]
        got = np.array([row[3] for row in rows], dtype=float).reshape(len(THRESHOLDS), -1)
        problems = []
        for ri, r in enumerate(THRESHOLDS):
            problems += _ratio_problems(path.name, r, got[ri], setting)
        return problems


def _ratio_problems(name: str, r: float, got: np.ndarray, setting: dict) -> list[str]:
    error = np.abs(got - setting["ratios"][r]) - setting["slack"][r]
    if np.all(error <= VALUE_TOL):
        return []
    return [f"{name}: R at r={r} off by up to {float(error.max()):.3g}"]


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= VALUE_TOL * max(1.0, float(np.abs(want).max()))))


def _max_error(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max())


def digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, by relative path."""
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def output_bytes(out_dir: Path) -> int:
    return sum(path.stat().st_size for path in out_dir.rglob("*") if path.is_file())
