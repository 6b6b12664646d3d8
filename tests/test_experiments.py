"""Tests for the benchmark harness, rate fitting, sweeps, and the CLI."""

import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from afem.cli import main
from afem.driver import AdaptiveConfig
from afem.experiments import (LEVEL_COLUMNS, RUNS_COLUMNS, collect_rates,
                              expected_rate, fit_rate, parse_sweep_spec,
                              rates_report, read_levels_csv, robustness_grid,
                              run_benchmark, run_id_for)


def test_fit_rate_recovers_power_law():
    xs = np.geomspace(10.0, 1e5, 17)
    ys = 3.0 * xs ** -0.5
    assert fit_rate(xs, ys) == pytest.approx(-0.5, rel=1e-12)


def test_fit_rate_ignores_preasymptotic_head():
    xs = np.geomspace(10.0, 1e5, 17)
    ys = 3.0 * xs ** -0.5
    ys[:4] *= 50.0  # garbage outside the trailing decade
    assert fit_rate(xs, ys) == pytest.approx(-0.5, rel=1e-12)


def test_fit_rate_widens_thin_window():
    # the trailing window holds one point, so the fit falls back to the
    # last four; the off-trend first point stays excluded
    xs = np.array([1.0, 10.0, 20.0, 40.0, 80.0])
    ys = 2.0 * xs ** -0.5
    ys[0] = 9999.0
    assert fit_rate(xs, ys, window=1.5) == pytest.approx(-0.5, rel=1e-12)


def test_fit_rate_degenerate_inputs():
    assert math.isnan(fit_rate([], []))
    assert math.isnan(fit_rate([5.0], [1.0]))
    assert math.isnan(fit_rate([1.0, 2.0], [-1.0, 3.0]))
    assert math.isnan(fit_rate([1.0, np.nan], [1.0, 2.0]))
    assert math.isnan(fit_rate([1000, 1000, 1000], [1, 2, 3]))


def test_expected_rates():
    assert expected_rate(AdaptiveConfig(domain="zshape")) == -0.5
    assert expected_rate(AdaptiveConfig(domain="zshape", theta=1.0)) \
        == pytest.approx(-2.0 / 7.0)
    assert expected_rate(AdaptiveConfig(domain="lshape", theta=1.0)) \
        == pytest.approx(-1.0 / 3.0)
    assert expected_rate(AdaptiveConfig(domain="lshape")) == -0.5
    assert expected_rate(AdaptiveConfig(domain="square_linear",
                                        theta=1.0)) == -0.5


def test_run_ids():
    assert run_id_for(AdaptiveConfig()) == "zshape_t0.5_a0.01_p0.01"
    assert run_id_for(AdaptiveConfig(domain="lshape", theta=1.0)) \
        == "lshape_t1_a0.01_p0.01"
    assert run_id_for(AdaptiveConfig(lambda_alg=1e-4)) \
        == "zshape_t0.5_a0.0001_p0.01"


@pytest.mark.parametrize("spelling, name, rate", [
    ("z_shape", "zshape", -2.0 / 7.0), ("Z-Shape", "zshape", -2.0 / 7.0),
    ("L_shape", "lshape", -1.0 / 3.0), ("unit_square", "square_linear", -0.5)])
def test_domain_spellings_are_one_problem(spelling, name, rate):
    # every spelling get_problem accepts is stored by its problem name, so a
    # full-refinement run has that problem's rate and run id, and a sweep
    # listing two spellings runs the problem once
    config = AdaptiveConfig(domain=spelling, theta=1.0)
    assert config.domain == name and config == AdaptiveConfig(domain=name, theta=1.0)
    assert expected_rate(config) == pytest.approx(rate)
    assert run_id_for(config) == name + "_t1_a0.01_p0.01"
    assert len(parse_sweep_spec("domain = %s, %s\ntheta = 1\n" % (name, spelling))) == 1


def test_robustness_grid_members():
    grid = robustness_grid(max_elements=500)
    assert len(grid) == 12
    assert len(set(grid)) == 12
    assert AdaptiveConfig(domain="zshape", theta=0.5, lambda_alg=1e-2,
                          lambda_pic=1e-2, max_elements=500) in grid
    assert all(c.max_elements == 500 and c.theta < 1.0 for c in grid)
    assert sorted({c.theta for c in grid}) == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert sorted({c.lambda_pic for c in grid}) == [1e-4, 1e-3, 1e-2, 1e-1, 1.0]


def test_benchmark_writes_csv_layouts(tmp_path):
    config = AdaptiveConfig(domain="zshape", max_elements=150,
                            track_error=True)
    lines = []
    results = run_benchmark([config, config], out_dir=str(tmp_path),
                            verbose=True, report=lines.append)
    assert len(results) == 1 and len(lines) == 1  # duplicate runs once
    result = results[0]
    assert result.run_id in lines[0]
    for suffix in (".csv", ".levels.csv"):
        assert (tmp_path / (result.run_id + suffix)).is_file()
    with open(tmp_path / "runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RUNS_COLUMNS)
    assert len(rows) == 2 and rows[1][0] == result.run_id

    table = read_levels_csv(str(tmp_path / (result.run_id + ".levels.csv")))
    assert len(table) == len(result.log.level_table())
    for back, orig in zip(table, result.log.level_table()):
        for key in ("l", "nT", "n_picard", "n_steps", "max_pcg", "cumcost", "n_marked"):
            assert back[key] == orig[key]
        for key in ("eta", "err", "alg_ratio", "pic_ratio", "closure_ratio"):
            assert back[key] == (None if orig[key] is None
                                 else pytest.approx(orig[key], rel=1e-10))
    for key in ("alg_ratio", "pic_ratio"):
        assert any(row[key] is not None for row in table)
    assert all(row["n_marked"] >= 1 for row in table[:-1])
    assert table[-1]["n_marked"] is None and table[-1]["closure_ratio"] is None

    # the largest observed contractions of the run, read back from runs.csv
    run = dict(zip(rows[0], rows[1]))
    for key in ("alg_ratio", "pic_ratio"):
        largest = max(row[key] for row in result.log.level_table() if row[key] is not None)
        assert result.runs_row()["max_" + key] == largest
        assert float(run["max_" + key]) == pytest.approx(largest, rel=1e-10)


def test_parse_sweep_spec_grid_and_blocks():
    text = """\
# algebraic threshold family
domain = zshape
theta = 0.3, 0.5
lambda-alg = 1e-2  # hyphens work like underscores

domain = lshape
track_error = true
theta = 1.0
max_elements = 1e3
"""
    configs = parse_sweep_spec(text)
    assert len(configs) == 3
    assert configs[0] == AdaptiveConfig(domain="zshape", theta=0.3,
                                        lambda_alg=1e-2)
    assert configs[1].theta == 0.5
    assert configs[2] == AdaptiveConfig(domain="lshape", track_error=True,
                                        theta=1.0, max_elements=1000)


@pytest.mark.parametrize("separator, newline", [("   ", "\n"), ("\t", "\n"), ("", "\r\n")])
def test_parse_sweep_spec_splits_on_any_blank_line(separator, newline):
    # a separator line of whitespace, or CRLF line ends, still splits blocks;
    # a comment line does not
    text = newline.join(["domain=zshape", "# a comment", "theta=0.1,0.3", separator,
                         "domain=lshape", "theta=0.7", ""])
    assert parse_sweep_spec(text) == [
        AdaptiveConfig(domain="zshape", theta=0.1), AdaptiveConfig(domain="zshape", theta=0.3),
        AdaptiveConfig(domain="lshape", theta=0.7)]


def test_parse_sweep_spec_rejects_repeated_key():
    with pytest.raises(ValueError, match="repeats"):
        parse_sweep_spec("domain=zshape\ntheta=0.1\ntheta=0.3\n")
    with pytest.raises(ValueError, match="repeats"):
        parse_sweep_spec("lambda-alg=0.1\nlambda_alg=0.3\n")
    # the same key in two blocks is two families, not a repeat
    assert len(parse_sweep_spec("theta=0.1\n\ntheta=0.3\n")) == 2


def test_parse_sweep_spec_deduplicates():
    text = "theta=0.5\n\ntheta=0.5\n"
    assert len(parse_sweep_spec(text)) == 1
    assert parse_sweep_spec("# nothing but comments\n") == []


def test_parse_sweep_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_sweep_spec("banana\n")
    with pytest.raises(ValueError):
        parse_sweep_spec("flux_capacitor=1\n")
    # integer fields take integral values only; exponent notation is fine
    for raw in ("2500.7", "1e-2", "inf", "nan"):
        with pytest.raises(ValueError):
            parse_sweep_spec("max-elements=%s\n" % raw)
    assert parse_sweep_spec("max-elements=1e4\n")[0].max_elements == 10000
    # text that does not read as its field's type is named with its key
    for spec, message in (("theta=\n", "bad float value for theta: ''"),
                          ("theta=0.5,,0.7\n", "bad float value for theta: ''"),
                          ("max_elements=abc\n", "bad int value for max_elements: 'abc'"),
                          ("max-elements= 2500.7\n",
                           "bad int value for max_elements: ' 2500.7'"),
                          ("track_error=maybe\n", "bad bool value for track_error: 'maybe'")):
        with pytest.raises(ValueError) as err:
            parse_sweep_spec(spec)
        assert str(err.value) == message


def _write_synthetic_run(directory, run_id, theta, etas, stored_rate=-0.5):
    ns = [100, 1000, 10000, 100000]
    costs = np.cumsum(ns)
    with open(os.path.join(directory, run_id + ".levels.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEVEL_COLUMNS)
        for l, (n, eta, cost) in enumerate(zip(ns, etas, costs)):
            writer.writerow([l, n, 2, 5, 3, "%.12g" % eta, cost, "", "", "", "", ""])
    return [run_id, "zshape", theta, 0.01, 0.01, 100000, len(ns),
            20, ns[-1], "%.12g" % etas[-1], costs[-1], stored_rate,
            stored_rate, "", "", "budget", 1.0]


def _write_runs_index(directory, rows):
    with open(os.path.join(directory, "runs.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_COLUMNS)
        writer.writerows(rows)


def test_collect_rates_recomputes_from_levels(tmp_path):
    ns = np.array([100, 1000, 10000, 100000], dtype=float)
    good = _write_synthetic_run(str(tmp_path), "zshape_t0.5_a0.01_p0.01",
                                0.5, ns ** -0.5, stored_rate=99.0)
    flat = _write_synthetic_run(str(tmp_path), "zshape_t0.7_a0.01_p0.01",
                                0.7, np.ones(4))
    _write_runs_index(str(tmp_path), [good, flat])
    rows = collect_rates(str(tmp_path))
    # the bogus stored rate is overridden by the on-disk level data
    assert rows[0]["rate_vs_n"] == pytest.approx(-0.5, rel=1e-9)
    assert rows[0]["ok"] and rows[0]["expected"] == -0.5
    assert rows[1]["rate_vs_n"] == pytest.approx(0.0, abs=1e-12)
    assert not rows[1]["ok"]
    assert not rates_report(rows, out=open(os.devnull, "w"))


def test_collect_rates_falls_back_to_stored_rate(tmp_path):
    row = _write_synthetic_run(str(tmp_path), "zshape_t0.5_a0.01_p0.01",
                               0.5, np.ones(4), stored_rate=-0.5)
    os.remove(tmp_path / "zshape_t0.5_a0.01_p0.01.levels.csv")
    _write_runs_index(str(tmp_path), [row])
    rows = collect_rates(str(tmp_path))
    assert rows[0]["rate_vs_n"] == -0.5 and rows[0]["ok"]
    with pytest.raises(FileNotFoundError):
        collect_rates(str(tmp_path / "missing"))


def test_cli_rates_rejects_a_truncated_index(tmp_path, capsys):
    """A runs.csv row cut short, with no level table to recompute from,
    fails naming its line, not with a KeyError."""
    row = _write_synthetic_run(str(tmp_path), "zshape_t0.5_a0.01_p0.01", 0.5, np.ones(4))
    os.remove(tmp_path / "zshape_t0.5_a0.01_p0.01.levels.csv")
    _write_runs_index(str(tmp_path), [row, row[:9]])
    with pytest.raises(ValueError, match="line 3"):
        collect_rates(str(tmp_path))
    assert main(["rates", "--in", str(tmp_path)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_collect_rates_rejects_the_former_uniform_column(tmp_path, capsys):
    row = _write_synthetic_run(str(tmp_path), "zshape_t0.5_a0.01_p0.01",
                               0.5, np.ones(4))
    with open(tmp_path / "runs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_COLUMNS[:6] + ("uniform",) + RUNS_COLUMNS[6:])
        writer.writerow(row[:6] + [0] + row[6:])
    with pytest.raises(ValueError, match="unrecognized CSV header"):
        collect_rates(str(tmp_path))
    assert main(["rates", "--in", str(tmp_path)]) == 1
    assert "unrecognized CSV header" in capsys.readouterr().err


def test_rates_report_prints_table(tmp_path, capsys):
    ns = np.array([100, 1000, 10000, 100000], dtype=float)
    good = _write_synthetic_run(str(tmp_path), "zshape_t0.5_a0.01_p0.01",
                                0.5, ns ** -0.5)
    _write_runs_index(str(tmp_path), [good])
    assert rates_report(collect_rates(str(tmp_path)))
    out = capsys.readouterr().out
    assert "zshape_t0.5_a0.01_p0.01" in out and "yes" in out


def test_cli_run_and_rates(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["run", "--domain", "square_linear", "--max-elements", "200",
                 "--out", str(out)]) == 0
    run_id = "square_linear_t0.5_a0.01_p0.01"
    for name in (run_id + ".csv", run_id + ".levels.csv", "runs.csv"):
        assert (out / name).is_file()
    assert main(["rates", "--in", str(out)]) == 0
    assert run_id in capsys.readouterr().out
    assert main(["rates", "--in", str(tmp_path / "missing")]) == 1
    assert "runs.csv" in capsys.readouterr().err


def test_cli_rates_assert_exit_codes(tmp_path, capsys):
    ns = np.array([100, 1000, 10000, 100000], dtype=float)
    good_dir, bad_dir = tmp_path / "good", tmp_path / "bad"
    for directory, etas in ((good_dir, ns ** -0.5), (bad_dir, np.ones(4))):
        directory.mkdir()
        row = _write_synthetic_run(str(directory),
                                   "zshape_t0.5_a0.01_p0.01", 0.5, etas)
        _write_runs_index(str(directory), [row])
    assert main(["rates", "--in", str(good_dir), "--assert"]) == 0
    assert main(["rates", "--in", str(bad_dir), "--assert"]) == 2
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("domain=square_linear\ntheta=0.4,0.6\nmax-elements=100\n")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    with open(out / "runs.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3  # header + two runs
    empty = tmp_path / "empty.txt"
    empty.write_text("# no runs here\n")
    assert main(["sweep", "--spec", str(empty), "--out", str(out)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("spec, message", [
    ("theta = 0\n", "theta must lie in (0, 1]"),
    ("thetta = 0.5\n", "unknown configuration key 'thetta'"),
    (None, "No such file or directory")], ids=["theta 0", "unknown key", "missing file"])
def test_cli_sweep_rejects_a_bad_spec(spec, message, tmp_path, capsys):
    """A spec that names a bad value or an unknown key, or a spec file that
    does not exist, prints its message and exits 1, with no traceback."""
    path = tmp_path / "sweep.txt"
    if spec is not None:
        path.write_text(spec)
    assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_a_bad_configuration(tmp_path, capsys):
    for argv, message in ((["--theta", "0"], "theta must lie in (0, 1]"),
                          (["--lambda-alg", "inf"], "lambda_alg must be positive and finite"),
                          (["--domain", "nowhere"], "nowhere")):
        assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_rejects_colliding_run_ids(tmp_path, capsys):
    # max_elements is not part of the run id, so both runs would write
    # the same files and the second would overwrite the first
    spec = tmp_path / "sweep.txt"
    spec.write_text("domain=square_linear\nmax-elements=100,400\n")
    configs = parse_sweep_spec(spec.read_text())
    assert len(configs) == 2
    lines = []
    with pytest.raises(ValueError) as err:
        run_benchmark(configs, out_dir=str(tmp_path / "direct"), verbose=True,
                      report=lines.append)
    assert all(str(config) in str(err.value) for config in configs)
    assert lines == [] and not (tmp_path / "direct").exists()
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert str(configs[1]) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_configs(monkeypatch, argv):
    """Configurations `afem run argv` would run, without running them."""
    captured = []
    monkeypatch.setattr("afem.cli.run_benchmark",
                        lambda configs, **kwargs: captured.extend(configs))
    assert main(["run", *argv, "--out", "unused"]) == 0
    return captured


def test_cli_run_defaults(monkeypatch):
    assert _run_configs(monkeypatch, []) == [AdaptiveConfig()]
    assert AdaptiveConfig().max_elements == 10 ** 5


_SAMPLE_TEXT = {str: "lshape", float: "0.25", int: "123", bool: "true"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AdaptiveConfig)])
def test_cli_and_sweep_spec_set_every_config_field(name, monkeypatch):
    kind = type(getattr(AdaptiveConfig(), name))
    text = _SAMPLE_TEXT[kind]
    flag = "--" + name.replace("_", "-")
    [from_cli] = _run_configs(monkeypatch, [flag] if kind is bool else [flag, text])
    [from_spec] = parse_sweep_spec("%s = %s\n" % (name, text))
    value = getattr(from_spec, name)
    assert type(value) is kind and value != getattr(AdaptiveConfig(), name)
    assert from_spec == dataclasses.replace(AdaptiveConfig(), **{name: value})
    assert from_cli == from_spec
    assert type(getattr(from_cli, name)) is kind


@pytest.mark.parametrize("name, text, accepted", [
    ("max_elements", "1e4", True), ("max_elements", "2500.7", False),
    ("max_elements", "abc", False), ("theta", "0.25", True), ("theta", "", False),
    ("theta", "half", False), ("lambda_alg", "inf", False), ("eta_tol", "1e-3", True),
    ("domain", "Z-Shape", True), ("domain", "nowhere", False)])
def test_cli_and_sweep_spec_read_the_same_text(name, text, accepted, monkeypatch, capsys):
    """A flag and a sweep key read the same text as the same value, or
    reject it with the same message."""
    captured = []
    monkeypatch.setattr("afem.cli.run_benchmark",
                        lambda configs, **kwargs: captured.extend(configs))
    status = main(["run", "--" + name.replace("_", "-"), text, "--out", "unused"])
    if accepted:
        assert status == 0 and captured == parse_sweep_spec("%s=%s\n" % (name, text))
    else:
        with pytest.raises(ValueError) as err:
            parse_sweep_spec("%s=%s\n" % (name, text))
        assert status == 1 and not captured
        assert capsys.readouterr().err == str(err.value) + "\n"


def test_rows_hold_exactly_the_declared_columns():
    """Every key of a level-table row and of a runs.csv row is a declared
    column, so `write_csv` drops none, and every column has its key."""
    [result] = run_benchmark([AdaptiveConfig(domain="square_linear", max_elements=100)])
    table = result.log.level_table()
    assert len(table) > 1 and table[0]["n_marked"] is not None
    assert all(list(row) == list(LEVEL_COLUMNS) for row in table)
    assert sorted(result.runs_row()) == sorted(RUNS_COLUMNS)
