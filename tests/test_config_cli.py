import json

import numpy as np
import pytest

from semiclass_lab import experiments
from semiclass_lab.catmap import DEFAULT_MAP
from semiclass_lab.cli import build_parser, main
from semiclass_lab.config import EXPERIMENTS, ExperimentConfig, parse_config
from semiclass_lab.errors import ConfigError, NumericalError
from semiclass_lab.torus_quantum import cat_propagator


def test_defaults():
    cfg = ExperimentConfig()
    assert (cfg.N, cfg.h, cfg.seed) == (512, 0.01, 0)
    assert (cfg.a, cfg.b, cfg.c, cfg.d) == (2, 1, 3, 2)
    assert cfg.out_dir == "." and not cfg.dump_state


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("experiment = egorov\nN = 128  # dimension\n\nout = results\n")
    cfg = parse_config(p)
    assert cfg.experiment == "egorov"
    assert cfg.N == 128
    assert cfg.out_dir == "results"


def test_parse_config_float_and_bool_keys(tmp_path):
    """Keys are coerced by their field's annotation, which postponed
    annotations hold as the strings 'int', 'float' and 'bool'."""
    p = tmp_path / "run.cfg"
    p.write_text("h = 0.02\ndump_state = yes\n")
    cfg = parse_config(p)
    assert cfg.h == 0.02 and type(cfg.h) is float
    assert cfg.dump_state is True
    p.write_text("dump_state = maybe\n")
    with pytest.raises(ConfigError, match="dump_state"):
        parse_config(p)


def test_parse_config_strictness(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError):
        parse_config(p)
    p.write_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config(p)
    p.write_text("N = twelve\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_overrides_win(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("experiment = egorov\nN = 128\nseed = 4\n")
    cfg = parse_config(p, {"N": 64, "seed": None})
    assert cfg.N == 64
    assert cfg.seed == 4  # None overrides are ignored


def test_validated_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nonsense").validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="egorov", N=0).validated()
    for h in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="egorov", h=h).validated()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="egorov", a=1, b=1, c=0, d=1).validated()
    assert ExperimentConfig(experiment="egorov").validated().experiment == "egorov"


def test_experiment_list_stable():
    assert "egorov" in EXPERIMENTS and len(EXPERIMENTS) == 7


def test_parser_flags():
    args = build_parser().parse_args(
        ["--experiment", "egorov", "--N", "64", "--seed", "3", "--out", "x"])
    assert args.experiment == "egorov" and args.N == 64
    assert args.seed == 3 and args.out == "x"


def test_main_requires_experiment(capsys):
    assert main([]) == 2
    assert "no experiment" in capsys.readouterr().err


def test_main_runs_suite_and_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--experiment", "egorov", "--N", "64", "--out", str(out1)]) == 0
    assert main(["--experiment", "egorov", "--N", "64", "--out", str(out2)]) == 0
    text = capsys.readouterr().out
    assert "[egorov] PASS" in text
    a = (out1 / "egorov_defects.csv").read_bytes()
    b = (out2 / "egorov_defects.csv").read_bytes()
    assert a == b
    assert (out1 / "report.json").exists()


def test_main_multi_suite_subdirs(tmp_path):
    """A list writes each suite into its own subdirectory the same CSV
    bytes as that suite run alone."""
    rc = main(["--experiment", "egorov, qe-catmap", "--N", "32",
               "--out", str(tmp_path / "list")])
    assert rc == 0
    for suite in ("egorov", "qe-catmap"):
        assert main(["--experiment", suite, "--N", "32",
                     "--out", str(tmp_path / "alone" / suite)]) == 0
        csvs = [sorted((p.name, p.read_bytes())
                       for p in (tmp_path / run / suite).glob("*.csv"))
                for run in ("list", "alone")]
        assert csvs[0] and csvs[0] == csvs[1]


def test_main_rejects_duplicate_suite(tmp_path, capsys):
    """A second run of one suite would overwrite the first's files."""
    rc = main(["--experiment", "egorov,qe-catmap, egorov",
               "--N", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "listed twice" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_main_reports_suite_error(tmp_path, capsys):
    # at h = 0.2 the coarsest circle grid (4h) cannot resolve the first mode
    rc = main(["--experiment", "billiard-circle", "--h", "0.2",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_prints_finished_suites_before_an_error(tmp_path, capsys):
    """A suite that stops a list leaves the checks of the suites before it
    printed: egorov's lines, then billiard-circle's error, and exit code 2."""
    rc = main(["--experiment", "egorov,billiard-circle", "--N", "32",
               "--h", "0.2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    lines = captured.out.splitlines()
    assert lines and all(line.startswith("[egorov] ") for line in lines)
    assert lines[-1].startswith("[egorov] all checks passed")
    assert captured.err.startswith("error: ")


def _passing_suite(cfg, report):
    report.add("passes", True, 1.0)


def _failing_suite(cfg, report):
    report.add("passes", True, 1.0)
    report.add("fails", False, 0.0)


def _raising_suite(exc):
    def suite(cfg, report):
        raise exc
    return suite


@pytest.mark.parametrize("suite, code", [
    (_passing_suite, 0),
    (_failing_suite, 1),
    (_raising_suite(NumericalError("solver did not converge")), 2),
    (_raising_suite(MemoryError("Unable to allocate 7.5 PiB")), 2)])
def test_main_exit_codes(tmp_path, capsys, monkeypatch, suite, code):
    """0 if every check passed, 1 if one failed, 2 for a package error and
    for an allocation the host cannot serve, each without a traceback."""
    monkeypatch.setitem(experiments._SUITES, "egorov", suite)
    assert main(["--experiment", "egorov", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code == 2 else err == ""


@pytest.mark.parametrize("args", [
    ["--experiment", "egorov", "--out", "{file}"],
    ["--experiment", "egorov,qe-catmap", "--out", "{file}"],
    ["--config", "{missing}"],
    ["--config", "{binary}"]])
def test_main_rejects_unusable_paths(tmp_path, capsys, args):
    """An output path that is a file (for one suite the run's directory, for
    two the parent of theirs), a missing config file and one that is not
    UTF-8 text are configuration errors, not crashes."""
    paths = {"file": tmp_path / "file", "missing": tmp_path / "missing.cfg",
             "binary": tmp_path / "binary.cfg"}
    paths["file"].write_text("")
    paths["binary"].write_bytes(b"N = 64\n\xff\n")
    rc = main([arg.format(**paths) for arg in args] + ["--N", "32"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_main_rejects_non_finite_spacing(tmp_path, capsys, h):
    rc = main(["--experiment", "billiard-circle", "--h", h, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: h must be finite")


def test_main_dump_state_writes_containers(tmp_path):
    """--dump-state writes the N=64 propagator and the last scarred state as
    .npy files that np.load reads without pickling."""
    rc = main(["--experiment", "egorov,scar-construction", "--N", "64",
               "--dump-state", "--out", str(tmp_path)])
    assert rc == 0
    U = np.load(tmp_path / "egorov" / "propagator.npy", allow_pickle=False)
    assert U.dtype == np.complex128 and U.shape == (64, 64)
    assert np.array_equal(U, cat_propagator(64, DEFAULT_MAP))
    psi = np.load(tmp_path / "scar-construction" / "scarred_state_N209.npy",
                  allow_pickle=False)
    assert psi.dtype == np.complex128 and psi.shape == (209,)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    for suite, name in (("egorov", "propagator.npy"),
                        ("scar-construction", "scarred_state_N209.npy")):
        report = json.loads((tmp_path / suite / "report.json").read_text())
        assert name in report["artifacts"]
