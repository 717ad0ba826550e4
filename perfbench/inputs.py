"""Seeded inputs and the workload table of the phasesync benchmark.

The panels come from this file's own regime-switching generator, not from
phasesync.synthetic, so the inputs stay fixed when the library's generator
changes; the program only ever receives the CSV files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

START_YEAR = 1980  # every panel starts in January of this year

# US reference recession dates (peak, trough), written as the sync
# workload's calendar so that it does not depend on files outside the
# benchmark.
US_RECESSIONS = (
    ("1980-01", "1980-07"),
    ("1981-07", "1982-11"),
    ("1990-07", "1991-03"),
    ("2001-03", "2001-11"),
    ("2007-12", "2009-06"),
    ("2020-02", "2020-04"),
)

BASE_PERIOD = 33.0  # months; inside every workload's band
JITTER = 0.5  # relative frequency perturbation scale
WALK_STEP = 0.1  # detune random-walk step per month, in units of [-1, 1]
NOISE_SD = 0.2
# Slow per-member phase jitter (AR(1) with this coefficient and stationary
# standard deviation, radians). Without it most coupled months have every
# pair locked, R is exactly 1 and prints as "1", so output sizes would swing
# with the seed by the share of such months.
PHASE_JITTER_AR = 0.95
PHASE_JITTER_SD = 1.5


@dataclass(frozen=True)
class Workload:
    """One CLI call on one generated panel."""

    name: str
    members: int
    months: int
    argv: tuple[str, ...]  # "{input}", "{calendar}" and "{out}" are filled in

    @property
    def uses_calendar(self) -> bool:
        return "{calendar}" in self.argv

    def cli_args(self, input_path: str, calendar_path: str, out_dir: str) -> list[str]:
        fill = {"{input}": input_path, "{calendar}": calendar_path, "{out}": out_dir}
        return [fill.get(arg, arg) for arg in self.argv]


# Why each workload exists is recorded in BENCHMARK.json. sweep_windows is
# left out of it to keep the benchmark's runs within their time budget; run
# it by name when pair scoring or per-setting filtering changes, because
# there they do nearly all of the work (4,950 pairs x 4 windows, no gamma2.csv).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sync_wide", 50, 505,
            ("sync", "{input}", "--kl", "4", "--ku", "18", "--window", "13",
             "--calendar", "{calendar}", "--out", "{out}"),
        ),
        Workload(
            "sweep_windows", 100, 505,
            ("sweep", "{input}", "--kl", "4", "--ku", "18",
             "--windows", "11,13,15,17", "--out", "{out}"),
        ),
        Workload(
            "filter_long", 150, 3000,
            ("filter", "{input}", "--longest", "96", "--shortest", "18",
             "--out", "{out}"),
        ),
    )
}


def month_label(index: int) -> str:
    """YYYY-MM of month `index`, counted from January of START_YEAR."""
    return f"{START_YEAR + index // 12:04d}-{index % 12 + 1:02d}"


def month_index(label: str) -> int:
    return (int(label[:4]) - START_YEAR) * 12 + int(label[5:7]) - 1


def _reflect(z: np.ndarray) -> np.ndarray:
    z = np.where(z > 1.0, 2.0 - z, z)
    return np.where(z < -1.0, -2.0 - z, z)


def generate_panel(members: int, months: int, seed: int) -> np.ndarray:
    """(members, months) values with coupled, uncoupled, coupled thirds.

    Each member is a noisy oscillator of random amplitude on a random
    linear trend. Its phase advances by 2*pi*(1 + JITTER*d)/BASE_PERIOD per
    month, where the detune d follows a reflected random walk in [-1, 1]:
    one shared walk in the coupled thirds, so pairwise phase differences
    drift only by each member's phase jitter, and one walk per member in
    the uncoupled third.
    """
    rng = np.random.default_rng(seed)
    third = months // 3
    coupled = np.ones(months, dtype=bool)
    coupled[third:2 * third] = False

    shared = np.empty(months)
    own = np.empty((members, months))
    shared[0] = rng.uniform(-1.0, 1.0)
    own[:, 0] = rng.uniform(-1.0, 1.0, size=members)
    for t in range(1, months):
        shared[t] = _reflect(shared[t - 1] + WALK_STEP * rng.uniform(-1.0, 1.0))
        own[:, t] = _reflect(own[:, t - 1] + WALK_STEP * rng.uniform(-1.0, 1.0, size=members))
    detune = np.where(coupled, shared, own)

    step = 2.0 * np.pi / BASE_PERIOD * (1.0 + JITTER * detune)
    theta = rng.uniform(-np.pi, np.pi, size=(members, 1)) + np.cumsum(step, axis=1) - step[:, :1]
    shocks = rng.standard_normal(size=(members, months))
    jitter = np.empty((members, months))
    jitter[:, 0] = PHASE_JITTER_SD * shocks[:, 0]
    innovation_sd = PHASE_JITTER_SD * np.sqrt(1.0 - PHASE_JITTER_AR ** 2)
    for t in range(1, months):
        jitter[:, t] = PHASE_JITTER_AR * jitter[:, t - 1] + innovation_sd * shocks[:, t]
    amplitude = rng.uniform(0.5, 2.0, size=(members, 1))
    level = rng.normal(0.0, 1.0, size=(members, 1))
    slope = rng.normal(0.0, 0.002, size=(members, 1))
    t = np.arange(months)
    noise = NOISE_SD * rng.standard_normal(size=(members, months))
    return amplitude * np.sin(theta + jitter) + level + slope * t + noise


def member_ids(members: int) -> list[str]:
    width = len(str(members))
    return [f"m{i + 1:0{width}d}" for i in range(members)]


def write_panel(path: Path, values: np.ndarray) -> None:
    """Panel CSV (date,<id>,...) with 12 significant digits per cell."""
    members, months = values.shape
    lines = ["date," + ",".join(member_ids(members))]
    for t in range(months):
        lines.append(month_label(t) + "," + ",".join(format(v, ".12g") for v in values[:, t]))
    path.write_text("\n".join(lines) + "\n")


def write_calendar(path: Path) -> None:
    path.write_text("peak,trough\n" + "".join(f"{p},{t}\n" for p, t in US_RECESSIONS))
