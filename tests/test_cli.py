import math
import pathlib
import subprocess
import sys

import pytest

from nanoheat.cli import SWEEP_HEADER, run_command, write_csv


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def rows_of(path):
    lines = read(path).decode().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --- write_csv ---------------------------------------------------------------

def test_csv_empty_rows_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], ("a", "b"), path)
    assert read(path) == b"a,b\n"


def test_csv_single_float_row(tmp_path):
    path = tmp_path / "one.csv"
    write_csv([[1.0, 2.5, 1 / 3]], ("x", "y", "z"), path)
    data = read(path).decode()
    lines = data.splitlines()
    assert len(lines) == 2
    assert lines[1].count(",") == 2
    assert lines[1] == "1,2.5,0.333333333333"


def test_csv_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [[i * 0.1, math.sqrt(i + 1)] for i in range(20)]
    write_csv(rows, ("u", "v"), a)
    write_csv(rows, ("u", "v"), b)
    assert read(a) == read(b)


# --- sweep -------------------------------------------------------------------

def sweep_args(out, steps=30, extra=()):
    return [
        "sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
        "--lo", "1", "--hi", "60", "--steps", str(steps), "--output", str(out),
        *extra,
    ]


def test_sweep_columns_and_threshold(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_command(sweep_args(out)) == 0
    header, rows = rows_of(out)
    assert tuple(header) == SWEEP_HEADER
    for row in rows:
        e = float(row[0])
        eta_nano, eta_carnot = float(row[2]), float(row[3])
        omega = float(row[1])
        if omega <= 1.0:
            assert eta_nano == pytest.approx(eta_carnot, abs=1e-12)
        else:
            assert eta_nano < eta_carnot
        assert float(row[5]) > 0  # extractable work present at every point


def test_sweep_determinism_and_jobs(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run_command(sweep_args(a)) == 0
    assert run_command(sweep_args(b)) == 0
    assert run_command(sweep_args(c, extra=("--jobs", "4"))) == 0
    assert read(a) == read(b) == read(c)


#: The three README comparison panels; their committed CSVs are in tests/data/.
README_SWEEPS = {
    "energy": ["--mode", "energy", "--t-hot", "15", "--t-cold", "10",
               "--lo", "1", "--hi", "60", "--steps", "120"],
    "tcold": ["--mode", "tcold", "--t-hot", "20", "--e-min", "15",
              "--lo", "1", "--hi", "19.5", "--steps", "120"],
    "thot": ["--mode", "thot", "--t-cold", "5", "--e-min", "15",
             "--lo", "5.5", "--hi", "60", "--steps", "120"],
}


@pytest.mark.parametrize("mode", sorted(README_SWEEPS))
def test_readme_sweeps_match_golden_files(tmp_path, mode):
    out = tmp_path / f"curve_{mode}.csv"
    assert run_command(["sweep", *README_SWEEPS[mode], "--output", str(out)]) == 0
    golden = pathlib.Path(__file__).parent / "data" / f"curve_{mode}.csv"
    assert read(out) == read(golden)


def test_sweep_temperature_modes_flag_invalid_points(tmp_path):
    out = tmp_path / "tc.csv"
    rc = run_command([
        "sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
        "--lo", "1", "--hi", "25", "--steps", "9", "--output", str(out),
    ])
    assert rc == 0
    _, rows = rows_of(out)
    flagged = [r for r in rows if r[4] == "OUT_OF_REGIME"]
    valid = [r for r in rows if r[4] != "OUT_OF_REGIME"]
    assert flagged and valid
    for r in flagged:
        assert r[1] == ""  # blank cells besides the sweep variable and flag
    # cold temperatures at or above the hot bath are exactly the flagged ones
    assert all(float(r[0]) >= 20 - 1e-9 for r in flagged)


@pytest.mark.filterwarnings("error")
def test_sweep_over_a_subnormal_temperature_flags_that_point(tmp_path):
    # 1 / 1e-320 overflows: that cold temperature is out of regime, the rest run
    out = tmp_path / "tc.csv"
    rc = run_command([
        "sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
        "--lo", "1e-320", "--hi", "19.5", "--steps", "3", "--output", str(out),
    ])
    assert rc == 0
    _, rows = rows_of(out)
    assert [r[4] for r in rows] == ["OUT_OF_REGIME", "CASE_LT2", "CASE_LT2"]


def test_every_qubit_solve_reaches_a_rebound_solver(tmp_path, monkeypatch, capsys):
    # a caller tracing the solver rebinds max_extractable_work in every nanoheat
    # module that holds it, and must see one solve per in-regime row and per work
    from nanoheat import second_laws

    solve, seen = second_laws.max_extractable_work, []

    def captured(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nanoheat" and getattr(module, "max_extractable_work", None) is solve:
            monkeypatch.setattr(module, "max_extractable_work", captured)
    out = tmp_path / "tc.csv"
    assert run_command([
        "sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
        "--lo", "1", "--hi", "25", "--steps", "9", "--output", str(out),
    ]) == 0
    in_regime = [r for r in rows_of(out)[1] if r[4] != "OUT_OF_REGIME"]
    assert 0 < len(in_regime) < 9
    assert [f"{result.w_ext:.12g}" for result in seen] == [r[5] for r in in_regime]
    seen.clear()
    assert run_command(["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--n", "2"]) == 0
    assert len(seen) == 1 and f"w_ext={seen[0].w_ext:.12g} " in capsys.readouterr().out


def test_sweep_tcold_curve_shape(tmp_path):
    # far below the hot bath the efficiency is reduced; close to it the
    # Carnot value is reached (the middle comparison panel)
    out = tmp_path / "shape.csv"
    rc = run_command([
        "sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
        "--lo", "1", "--hi", "19.5", "--steps", "20", "--output", str(out),
    ])
    assert rc == 0
    _, rows = rows_of(out)
    cold_end = rows[0]
    warm_end = rows[-1]
    assert float(cold_end[1]) > 1.0  # criterion above threshold at T_cold = 1
    assert float(cold_end[2]) < float(cold_end[3])
    assert float(warm_end[1]) < 1.0
    assert float(warm_end[2]) == pytest.approx(float(warm_end[3]), abs=1e-12)


def test_sweep_thot_mode(tmp_path):
    out = tmp_path / "th.csv"
    rc = run_command([
        "sweep", "--mode", "thot", "--t-cold", "5", "--e-min", "15",
        "--lo", "6", "--hi", "40", "--steps", "8", "--output", str(out),
    ])
    assert rc == 0
    _, rows = rows_of(out)
    assert all(r[4] != "OUT_OF_REGIME" for r in rows)


# --- other subcommands ---------------------------------------------------------

def test_classify_command(tmp_path, capsys):
    out = tmp_path / "cls.csv"
    rc = run_command(["classify", "--e", "45", "--t-hot", "15", "--t-cold", "10",
                      "--output", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "omega=1.48351958605" in printed
    assert "eta=0.252077168038" in printed
    header, rows = rows_of(out)
    assert rows[0][3] == "CASE_LT2"


def test_work_command(capsys):
    rc = run_command(["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--g", "1e-5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "w_ext=" in printed and "Alpha.INFINITY" in printed


def test_feasible_command(capsys):
    rc = run_command([
        "feasible", "--levels", "0,1",
        "--p0", "0.731058578630005,0.268941421369995",
        "--p1", "0.8,0.2", "--t-hot", "1",
    ])
    assert rc == 0
    assert "feasible" in capsys.readouterr().out


def test_work_output_is_the_sampled_curve(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_command(["work", "--e", "45", "--t-hot", "15", "--t-cold", "10",
                        "--output", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["alpha", "w_alpha"] and len(rows) == 400
    assert all(len(r) == 2 and math.isfinite(float(r[1])) for r in rows)


def test_feasible_output_lists_the_violating_orders(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    assert run_command(["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7,0.3",
                        "--t-hot", "2", "--output", str(out)]) == 0
    assert capsys.readouterr().out.startswith("infeasible:")
    header, rows = rows_of(out)
    assert header == ["alpha", "gap"] and len(rows) == 402
    assert all(float(gap) < 0 for _, gap in rows)


def test_multicycle_command(tmp_path):
    out = tmp_path / "mc.csv"
    rc = run_command([
        "multicycle", "--w", "1", "--e", "15", "--t-hot", "15", "--t-cold", "10",
        "--kappa-bar", "0.5", "--n-schedule", "100,1000", "--output", str(out),
    ])
    assert rc == 0
    header, rows = rows_of(out)
    assert header[0] == "n_cycles" and len(rows) == 2


# --- config file and exit codes ------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# sweep configuration\n"
        "mode = energy\n"
        "t-hot = 15\n"
        "t-cold = 10\n"
        "lo = 1\nhi = 60\nsteps = 12\n"
        f"output = {tmp_path/'from_conf.csv'}\n",
        encoding="utf-8",
    )
    assert run_command(["sweep", "--config", str(conf)]) == 0
    assert (tmp_path / "from_conf.csv").exists()
    override = tmp_path / "override.csv"
    assert run_command(["sweep", "--config", str(conf), "--output", str(override)]) == 0
    assert read(tmp_path / "from_conf.csv") == read(override)


def test_exit_code_on_config_errors(tmp_path):
    assert run_command(["sweep", "--mode", "energy"]) == 1  # missing options
    assert run_command(["nonsense"]) == 1
    bad = tmp_path / "bad.conf"
    bad.write_text("bogus = 1\n", encoding="utf-8")
    assert run_command(["sweep", "--config", str(bad)]) == 1
    assert run_command(sweep_args(tmp_path / "x.csv", extra=("--lo", "70"))) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["work", "--e", "45", "--t-hot", "0", "--t-cold", "10"],
        ["classify", "--e", "45", "--t-hot", "0", "--t-cold", "10"],
        ["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7,0.3", "--t-hot", "0"],
        ["multicycle", "--w", "1", "--e", "15", "--t-hot", "0", "--t-cold", "10"],
        ["work", "--e", "45", "--t-hot", "10", "--t-cold", "15"],
        ["work", "--e", "-3", "--t-hot", "15", "--t-cold", "10"],
        ["work", "--e", "0", "--t-hot", "15", "--t-cold", "10"],
        ["work", "--e", "45", "--t-hot", "15", "--t-cold", "1e-320"],
        ["classify", "--e", "45", "--t-hot", "15", "--t-cold", "1e-320"],
        ["classify", "--e", "inf", "--t-hot", "15", "--t-cold", "10"],
        ["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7,0.3", "--t-hot", "1e-320"],
        ["sweep", "--mode", "thot", "--t-cold", "1e-320", "--e-min", "15", "--lo", "5.5",
         "--hi", "60", "--steps", "3", "--output", "unused.csv"],
    ],
    ids=["work-t-hot-0", "classify-t-hot-0", "feasible-t-hot-0", "multicycle-t-hot-0",
         "work-swapped-temperatures", "work-negative-gap", "work-zero-gap",
         "work-t-cold-subnormal", "classify-t-cold-subnormal", "classify-e-inf", "feasible-t-hot-subnormal",
         "sweep-held-t-cold-subnormal"],
)
@pytest.mark.filterwarnings("error")
def test_nonphysical_temperatures_and_gaps_are_config_errors(argv, capsys):
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7,0.3,0.5", "--t-hot", "2"],
        ["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7", "--t-hot", "2"],
        ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--g", "0.05"],
        ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--g", "nan"],
        ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10", "--lo", "1",
         "--hi", "60", "--steps", "3", "--g", "nan", "--output", "unused.csv"],
        ["multicycle", "--w", "1", "--e", "15", "--t-hot", "15", "--t-cold", "10",
         "--n-schedule", "100.7,1000.9"],
        ["multicycle", "--w", "nan", "--e", "15", "--t-hot", "15", "--t-cold", "10"],
        ["multicycle", "--w", "inf", "--e", "15", "--t-hot", "15", "--t-cold", "10"],
        ["sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15", "--lo", "nan",
         "--hi", "19.5", "--steps", "3", "--output", "unused.csv"],
        ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10", "--lo", "nan",
         "--hi", "60", "--steps", "3", "--output", "unused.csv"],
        ["sweep", "--mode", "thot", "--t-cold", "5", "--e-min", "15", "--lo", "5.5",
         "--hi", "inf", "--steps", "3", "--output", "unused.csv"],
        ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--family-c", "nan"],
    ],
    ids=["feasible-longer-p1", "feasible-shorter-p1", "work-g-out-of-regime", "work-g-nan",
         "sweep-g-nan", "multicycle-fractional-n", "multicycle-w-nan", "multicycle-w-inf",
         "sweep-tcold-lo-nan",
         "sweep-energy-lo-nan", "sweep-thot-hi-inf", "work-family-c-nan"],
)
def test_malformed_lists_steps_and_cycle_counts_are_config_errors(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize(
    "lines",
    [
        "mode = thot\ne-min = 15\nsteps = abc\n",
        "mode = bogus\ne-min = 15\nsteps = 3\n",
        "mode = thot\ne = 15\nsteps = 3\n",  # work's --e is not sweep's --e-min
        "mode = thot\ne-min = 15\nsteps = 3\nlo = nan\n",
    ],
    ids=["bad-int", "bad-choice", "e-not-e-min", "lo-nan"],
)
def test_config_values_checked_like_flags(tmp_path, lines):
    conf = tmp_path / "run.conf"
    conf.write_text(f"t-cold = 5\nlo = 5.5\nhi = 60\noutput = {tmp_path / 'x.csv'}\n" + lines)
    assert run_command(["sweep", "--config", str(conf)]) == 1
    assert not (tmp_path / "x.csv").exists()


def test_config_value_with_leading_minus(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("levels = -1,0\np0 = 0.5,0.5\np1 = 0.5,0.5\nt-hot = 2\n")
    assert run_command(["feasible", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.startswith("feasible:")


@pytest.mark.parametrize("before", [True, False], ids=["before-command", "after-command"])
@pytest.mark.parametrize("joined", [True, False], ids=["equals", "two-tokens"])
def test_config_option_in_either_form_and_position(tmp_path, capsys, before, joined):
    conf = tmp_path / "g.cfg"
    conf.write_text("g = 1e-3\n")
    option = [f"--config={conf}"] if joined else ["--config", str(conf)]
    command = ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10"]
    argv = option + command if before else command + option
    assert run_command(argv) == 0
    assert "eps=1e-06" in capsys.readouterr().out  # eps = g**2 of the file's g


def test_exit_code_on_io_failure(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_command(sweep_args(missing_dir, steps=2)) == 2


def test_installed_entry_point_subprocess(tmp_path):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "nanoheat", "classify",
         "--e", "45", "--t-hot", "15", "--t-cold", "10", "--output", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "omega=1.48351958605" in proc.stdout
    assert out.exists()


# --- one parser per process -----------------------------------------------------

def test_a_config_run_leaves_no_defaults_behind(tmp_path):
    plain = ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
             "--lo", "1", "--hi", "60", "--steps", "5"]
    conf = tmp_path / "run.conf"
    conf.write_text("g = 1e-3\nfamily = log_linear\nsteps = 4\ne = 3\n", encoding="utf-8")
    assert run_command(plain + ["--output", str(tmp_path / "before.csv")]) == 0
    assert run_command(["--config", str(conf)] + plain + ["--output", str(tmp_path / "conf.csv")]) == 0
    assert run_command(plain + ["--output", str(tmp_path / "after.csv")]) == 0
    _, rows = rows_of(tmp_path / "conf.csv")
    assert len(rows) == 5 and {row[6] for row in rows} == {"0.001"}  # the flag beats the file's steps
    assert read(tmp_path / "after.csv") == read(tmp_path / "before.csv")


@pytest.mark.parametrize(
    "lines, message",
    [
        ("bogus = 1\n", "unknown config keys: ['bogus']"),
        ("kappa-bar = abc\n", "argument --kappa-bar: invalid float value: 'abc'"),
        ("mode = bogus\n", "argument --mode: invalid choice: 'bogus' (choose from 'energy', 'tcold', 'thot')"),
        ("t-hot = 0\n", "argument --t-hot: must be positive, got '0'"),
        ("g = 1e-3\njunk\n", "{conf}:2: expected key=value, got 'junk\\n'"),
    ],
    ids=["unknown-key", "other-command-bad-float", "bad-choice", "not-positive", "no-equals"],
)
def test_config_errors_keep_their_messages(tmp_path, capsys, lines, message):
    conf = tmp_path / "run.conf"
    conf.write_text(lines, encoding="utf-8")
    assert run_command(["classify", "--config", str(conf), "--e", "45", "--t-hot", "15",
                        "--t-cold", "10"]) == 1
    assert capsys.readouterr().err == f"config error: {message.format(conf=conf)}\n"
    assert run_command(["classify", "--config", str(tmp_path / "missing.conf")]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot read config file: ")


def test_run_command_builds_its_parsers_once(monkeypatch, capsys):
    from nanoheat import cli

    built = []
    init = cli._ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        classify = ["classify", "--e", "45", "--t-hot", "15", "--t-cold", "10"]
        assert run_command(classify) == 0
        first = len(built)
        for _ in range(4):
            assert run_command(classify) == 0
    finally:
        cli._build_parser.cache_clear()  # later tests build parsers with the real __init__
    assert first > 0 and len(built) == first
    assert capsys.readouterr().out.count("omega=") == 5
