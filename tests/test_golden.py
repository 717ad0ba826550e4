"""Golden digests: the exact bytes the CLI writes on the seed-7 demo panel.

Each run pins its exit code, its stdout and stderr (the test's temporary
directory written as {tmp}, an input's path in stderr as its key in RUNS)
and the SHA-256 of every file it leaves in --out; a directory left there is
listed as "dir". metadata.txt is hashed without its `input` and `calendar`
lines, which hold the temporary path; their SHA-256 lines stay in. A change
that keeps the bytes keeps every digest here. The digests were taken on
numpy 2.4.6.
"""

import hashlib
from pathlib import Path

import pytest

from phasesync.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
DEMO = ("gen", "--regime", "coupled:120,uncoupled:120,coupled:120", "--members", "10",
        "--seed", "7")
BAND = ("--kl", "4", "--ku", "18")

# argv of each run; {panel} is the demo panel, {flat} the same panel with a
# zero second member, {data} the bundled data directory, and each key of
# CALENDARS a calendar holding its text
RUNS = {
    "gen": DEMO,
    "sync": ("sync", "{panel}", *BAND, "--window", "13"),
    "sync-r-set": ("sync", "{panel}", *BAND, "--window", "13",
                   "--r", "0.8", "--r", "0.7", "--r", "0.8"),
    "sync-us": ("sync", "{panel}", *BAND, "--window", "13",
                "--calendar", "{data}/us_recessions.csv"),
    "sync-japan": ("sync", "{panel}", *BAND, "--window", "13",
                   "--calendar", "{data}/japan_recessions.csv"),
    # with W = 13 these cover each branch of sync._window_sums' summation order
    "sync-w7": ("sync", "{panel}", *BAND, "--window", "7"),
    "sync-w131": ("sync", "{panel}", *BAND, "--window", "131"),
    "sync-raw": ("sync", "{panel}", *BAND, "--window", "13", "--no-trim", "--no-detrend",
                 "--r", "0.5"),
    "sweep-windows": ("sweep", "{panel}", *BAND, "--windows", "11,13,15"),
    "sweep-bands": ("sweep", "{panel}", "--bands", "5:17,4:18,3:19", "--window", "13"),
    "filter": ("filter", "{panel}", "--longest", "126", "--shortest", "28"),
    "refused-one-label": ("sync", "{panel}", *BAND, "--window", "13",
                          "--r", "0.7", "--r", "0.70000000000001"),
    "refused-repeat": ("sweep", "{panel}", *BAND, "--windows", "11,11"),
    "refused-band-part": ("sweep", "{panel}", "--bands", "0:18,4:18", "--window", "13"),
    "refused-unused-flag": ("sweep", "{panel}", *BAND, "--windows", "11,13", "--window", "13"),
    "refused-disjoint": ("sync", "{panel}", *BAND, "--window", "13",
                         "--calendar", "{disjoint}"),
    "refused-calendar-header": ("sync", "{panel}", *BAND, "--window", "13",
                                "--calendar", "{header}"),
    "refused-calendar-peak": ("sync", "{panel}", *BAND, "--window", "13",
                              "--calendar", "{peak}"),
    "refused-calendar-overlap": ("sync", "{panel}", *BAND, "--window", "13",
                                 "--calendar", "{overlap}"),
    "refused-zero-amplitude": ("sync", "{flat}", *BAND, "--window", "13"),
    "refused-nyquist": ("sync", "{panel}", "--kl", "180", "--ku", "180", "--window", "13"),
    "refused-directory": ("sync", "{panel}", *BAND, "--window", "13"),
}


def written(files, stdout=""):
    """A run that exits 0 and leaves files, {name: digest}, in --out."""
    return {"code": 0, "stdout": stdout, "stderr": "", "files": files}


def refused(stderr, files=None):
    """A run that exits 1 with stderr and leaves only files in --out."""
    return {"code": 1, "stdout": "", "stderr": stderr, "files": files or {}}


GOLDEN = {
    "gen": written({
        "panel.csv":
            "d24a6180e91a31e33546161a4f06d385b5d4e7cf76e8dbc5912ad71150754521",
    }, stdout="seed = 7\n"),
    "sync": written({
        "gamma2.csv":
            "c29c5f7d4f101afad4e0c22f0dd226c5b455aeda2aeb0e378fe4f46abd749c43",
        "metadata.txt":
            "1b112518b3207f68cb8e92b36d9e20e3beb87f3a468c4115cde8b6846724fcaa",
        "ratios.csv":
            "6b6e6a1665d26fbaee5837ff29ef6f541a3a36c52506f163a0733c93d3d94bae",
        "ratios_long.csv":
            "c7dbe9c466fc9c68d5e4339c9b8b5ea46f9b996d5ed231fab9137aceb78202c0",
    }),
    "sync-us": written({
        "gamma2.csv":
            "c29c5f7d4f101afad4e0c22f0dd226c5b455aeda2aeb0e378fe4f46abd749c43",
        "metadata.txt":
            "e4d50b88c421661204a88fb45a984edf03a42ab443b702301fa5c654295fa488",
        "ratios.csv":
            "d5c1cf3976bcc785448fb6510fc84a2e77f6e5209bbdc253722b62fe7664c9d3",
        "ratios_long.csv":
            "c7dbe9c466fc9c68d5e4339c9b8b5ea46f9b996d5ed231fab9137aceb78202c0",
    }),
    "sync-japan": written({
        "gamma2.csv":
            "c29c5f7d4f101afad4e0c22f0dd226c5b455aeda2aeb0e378fe4f46abd749c43",
        "metadata.txt":
            "42bf0f7d7606813093cbec369be8cd17a52ba3fa65536a246b920f92e6fcd9d9",
        "ratios.csv":
            "71e147ed57d869e7f2fc5756987507fc77231eb32528b833cb8fce579bed23bc",
        "ratios_long.csv":
            "c7dbe9c466fc9c68d5e4339c9b8b5ea46f9b996d5ed231fab9137aceb78202c0",
    }),
    "sync-w7": written({
        "gamma2.csv":
            "6a9804021205ef4c4eaa8b3d4fb54649d1a2ae379db34b80e856799d940254d4",
        "metadata.txt":
            "aa1d9d988953b7890c46448ef60a6d1ab3e45d1675a6378334017ce0dee62313",
        "ratios.csv":
            "59ee8cedd3c7c22fc11e502c6b45c00a96daa8beb780cb9f0a766f2105628df2",
        "ratios_long.csv":
            "bb6d5c1a63a9564506839926852729c6a510c2542aa7b5a7cc696b9ccd98c303",
    }),
    "sync-w131": written({
        "gamma2.csv":
            "fe5f134b07ff1f55eba6f3354f9ec4273b18d941bcca2611ec7f286c2f925b49",
        "metadata.txt":
            "9823f26a36bd53aefade21da6867540d3ac7cc4f5b61f4317f251700747e93af",
        "ratios.csv":
            "8585d6998db8ce17af578ccacc13e0771ee8632262a7db24ff036ae868eb317f",
        "ratios_long.csv":
            "72bd1a42d78efbb9696b7f3696787588441efdbadb83a14596d5849f91b2e72c",
    }),
    "sync-raw": written({
        "gamma2.csv":
            "6a04fc249f68726351537cd1c29375dc8f6b80be2073a26a29f99a437601da2b",
        "metadata.txt":
            "64ac22d0b8f13aa066cbf613035c6d5287e549b68821f4c361102156422f0d96",
        "ratios.csv":
            "47281021616a0537a99ea0a5c6f0bc6ce2ff55a14a502aa2d9a7c3eeae04f378",
        "ratios_long.csv":
            "8ae95b7860183481619c99488a711f7e342e2d5278a237a12f66eb19c56c9557",
    }),
    "sweep-windows": written({
        "metadata.txt":
            "2e1ed38e8beda2724b54e2236254ff51ca0ada394a2616540c34c35081fd9ca1",
        "ratios_W11.csv":
            "a3dd85ce068f7bb59ec284154728f5f95e381af7bf667fb81c35ac26ba4d57fe",
        "ratios_W13.csv":
            "6b6e6a1665d26fbaee5837ff29ef6f541a3a36c52506f163a0733c93d3d94bae",
        "ratios_W15.csv":
            "7d08cd2e81a825f601deddba030af417e7461ca705cc37a3b11eeb31ba80f947",
        "stability.csv":
            "688ad51a8c280f64da4a88e15dd93e639e7ebd77158b8b0b1d72c3c42a18fa0d",
    }),
    "sweep-bands": written({
        "metadata.txt":
            "cdcf2f8a3fe3dbd089c3f25983c035847433ad6bc4df098a4de39fb7718b68e8",
        "ratios_kl3_ku19.csv":
            "357091c0b6d7e9825d83310c6328930529e8365e74065710c6c6a85a9aeea98d",
        "ratios_kl4_ku18.csv":
            "6b6e6a1665d26fbaee5837ff29ef6f541a3a36c52506f163a0733c93d3d94bae",
        "ratios_kl5_ku17.csv":
            "3ca4c494634f4cab593c60df6bc5605d40c90bc2e7f5c69f63fe291c42256331",
        "stability.csv":
            "383db83af7011e990a580a9262c8b83b3363746e51697633eb51664ce65f1f6c",
    }),
    "filter": written({
        "filtered.csv":
            "595cd587fdbd350d2e6a26b9e1cb085969fd36a429dc32eff43dcc9cf1751594",
        "metadata.txt":
            "425d382ee1aca6a74015953b772fe720d1280005ee103f3ef871f308b1a75961",
    }),
    "refused-one-label": refused(
        "error: thresholds 0.7 and 0.70000000000001 both print as 0.7: "
        "thresholds must differ in their first 6 significant digits\n"),
    "refused-repeat": refused("error: --windows repeats the window 11\n"),
    "refused-band-part": refused(
        "error: --bands part '0:18': need 1 <= lower <= upper, got (0, 18)\n"),
    "refused-unused-flag": refused("error: --window does not apply to a --windows sweep\n"),
    "refused-disjoint": refused(
        "error: calendar episodes are disjoint from the result range 1982-03..2007-10\n"),
    "refused-calendar-header": refused(
        "error: {header}: row 1: header must be exactly 'peak,trough'\n"),
    "refused-calendar-peak": refused(
        "error: {peak}: row 3: episode peak 2001-11 must precede trough 2001-03\n"),
    "refused-calendar-overlap": refused(
        "error: {overlap}: row 3: episode starting 1991-01 overlaps previous trough 1991-03\n"),
    "refused-zero-amplitude": refused(
        "error: series 'm02': zero amplitude everywhere; phase undefined\n"),
    "refused-nyquist": refused(
        "error: band (180, 180) holds only the Nyquist mode of a 360-month panel, "
        "whose phase is 0 or -pi\n"),
    "refused-directory": refused(
        "error: [Errno 21] Is a directory: '{tmp}/out/ratios.csv'\n", {"ratios.csv": "dir"}),
}
# --r is a set: sorted, repeats merged, so these are the default thresholds' bytes
GOLDEN["sync-r-set"] = GOLDEN["sync"]


def metadata_digest(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if line.split(" = ", 1)[0] not in ("input", "calendar")]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def out_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file in out, by name; "dir" for a directory."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.is_dir():
            digests[path.name] = "dir"
        elif path.name == "metadata.txt":
            digests[path.name] = metadata_digest(path)
        else:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# {disjoint}'s only episode ends before the panel starts; each other
# calendar is refused on the row its stderr names
CALENDARS = {
    "{disjoint}": "peak,trough\n1950-01,1951-01\n",
    "{header}": "start,end\n1990-07,1991-03\n",
    "{peak}": "peak,trough\n1990-07,1991-03\n2001-11,2001-03\n",
    "{overlap}": "peak,trough\n1990-07,1991-03\n1991-01,1992-01\n",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{panel}, {flat}, {data} and the CALENDARS for RUNS."""
    tmp = tmp_path_factory.mktemp("inputs")
    assert main([*DEMO, "--out", str(tmp / "demo")]) == 0
    panel = tmp / "demo" / "panel.csv"
    lines = panel.read_text(encoding="utf-8").splitlines(keepends=True)
    flat = tmp / "flat.csv"
    flat.write_text(lines[0] + "".join(
        ",".join([cells[0], cells[1], "0", *cells[3:]]) for cells in
        (line.split(",") for line in lines[1:])), encoding="utf-8")
    paths = {"{panel}": str(panel), "{flat}": str(flat), "{data}": str(DATA)}
    for key, text in CALENDARS.items():
        path = tmp / f"{key.strip('{}')}.csv"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    return paths


def observe(name, inputs, tmp_path, capsys) -> dict:
    """Run RUNS[name] into tmp_path/out and return what it did."""
    argv = list(RUNS[name])
    for i, arg in enumerate(argv):
        for key, value in inputs.items():
            argv[i] = argv[i].replace(key, value)
    out = tmp_path / "out"
    if name == "refused-directory":
        (out / "ratios.csv").mkdir(parents=True)  # a directory squatting on an output
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    stdout, stderr = (text.replace(str(tmp_path), "{tmp}")
                      for text in (captured.out, captured.err))
    for key, value in inputs.items():
        stderr = stderr.replace(value, key)
    return {"code": code, "stdout": stdout, "stderr": stderr, "files": out_digests(out)}


@pytest.mark.parametrize("name", list(RUNS))
def test_golden(name, inputs, tmp_path, capsys):
    assert observe(name, inputs, tmp_path, capsys) == GOLDEN[name]


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_long_tables_do_not_depend_on_the_chunk(chunk, inputs, tmp_path, capsys, monkeypatch):
    # the long-table sink formats at most FORMAT_CHUNK values at a time, and
    # at least one row of 308 samples: 1 and 7 write gamma2.csv and
    # ratios_long.csv a row at a time, 1000 three rows (the default 3072, nine)
    monkeypatch.setattr("phasesync.pipeline.FORMAT_CHUNK", chunk)
    files = observe("sync", inputs, tmp_path, capsys)["files"]
    for name in ("gamma2.csv", "ratios_long.csv"):
        assert files[name] == GOLDEN["sync"]["files"][name]


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_panel_csv_does_not_depend_on_the_chunk(chunk, inputs, tmp_path, capsys, monkeypatch):
    # write_panel_csv builds the dates of all 360 months once and formats at
    # least one row of 10 members at a time: 1 and 7 write filtered.csv a
    # row at a time, 1000 100 rows (the default 3072, 307)
    monkeypatch.setattr("phasesync.panel.FORMAT_CHUNK", chunk)
    files = observe("filter", inputs, tmp_path, capsys)["files"]
    assert files["filtered.csv"] == GOLDEN["filter"]["files"]["filtered.csv"]
