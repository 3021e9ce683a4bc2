import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellforge import cli, closed_form_bell_cp1, closed_form_bell_cp2, errors, generalized_bell, quadrature

S2 = 1.0 / math.sqrt(2.0)
GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
CHECK_LINE = re.compile(r"check (\S+): value=(\S+) (<=|==) (\S+) (PASS|FAIL)")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("BELLFORGE_SEED", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "bellforge", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def load_amplitudes(path):
    with open(path) as handle:
        doc = json.load(handle)
    assert doc["kind"] == "bipartite"
    return doc, np.array([re + 1j * im for re, im in doc["amplitudes"]])


def test_bell_make_qubit_pair(tmp_path):
    out = tmp_path / "state.json"
    result = run_cli(
        "bell", "make", "--space", "cp1", "--two-j", "1", "--flat", "cp1:1",
        "--output", str(out),
    )
    assert result.returncode == 0
    doc, amps = load_amplitudes(out)
    assert doc["dim_a"] == 2 and doc["dim_b"] == 2
    assert np.allclose(amps, [S2, 0.0, 0.0, S2], atol=1e-15)


def test_bell_make_cp2_state(tmp_path):
    out = tmp_path / "state.json"
    result = run_cli("bell", "make", "--space", "cp2", "--flat", "cp2:c3", "--output", str(out))
    assert result.returncode == 0
    _, amps = load_amplitudes(out)
    assert np.allclose(amps, closed_form_bell_cp2(2, 2).amplitudes, atol=1e-15)


def test_bell_make_generalized_state(tmp_path):
    out = tmp_path / "state.json"
    result = run_cli(
        "bell", "make", "--space", "cpn", "--n", "4", "--p", "0", "--q", "0",
        "--output", str(out),
    )
    assert result.returncode == 0
    _, amps = load_amplitudes(out)
    assert np.allclose(amps, generalized_bell(4, 0, 0).amplitudes, atol=1e-15)


def test_bell_make_stdout_when_no_output():
    result = run_cli("bell", "make", "--space", "cp1", "--two-j", "1", "--flat", "cp1:4")
    assert result.returncode == 0
    payload = result.stdout[result.stdout.index("{") :]
    doc = json.loads(payload)
    amps = np.array([re + 1j * im for re, im in doc["amplitudes"]])
    assert np.allclose(amps, closed_form_bell_cp1(1, 4).amplitudes, atol=1e-15)


def test_bell_integrate_passes(tmp_path):
    out = tmp_path / "state.json"
    result = run_cli(
        "bell", "integrate", "--space", "cp1", "--two-j", "1", "--flat", "cp1:4",
        "--output", str(out),
    )
    assert result.returncode == 0
    assert "check state-distance" in result.stdout
    assert "PASS" in result.stdout
    _, amps = load_amplitudes(out)
    assert np.allclose(amps, closed_form_bell_cp1(1, 4).amplitudes, atol=1e-10)


def test_bell_integrate_cp2_passes():
    result = run_cli("bell", "integrate", "--space", "cp2", "--flat", "cp2:a2")
    assert result.returncode == 0
    assert "result: PASS" in result.stdout


def test_bell_integrate_under_resolved_fails():
    # one radial node cannot integrate the spin-1 integrand (degree 2)
    result = run_cli(
        "bell", "integrate", "--space", "cp1", "--two-j", "2", "--flat", "cp1:1",
        "--radial-nodes", "1",
    )
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_bell_integrate_monte_carlo():
    result = run_cli(
        "bell", "integrate", "--space", "cpn", "--n", "4", "--p", "1", "--q", "2",
        "--mc-samples", "200000", "--seed", "7", "--tolerance", "2e-2",
    )
    assert result.returncode == 0
    assert "result: PASS" in result.stdout


def test_usage_errors_exit_2():
    assert run_cli("bell", "integrate", "--space", "cp1", "--flat", "nonsense").returncode == 2
    assert run_cli("bell", "integrate", "--space", "cp1").returncode == 2
    assert run_cli("bell", "make", "--space", "cp2", "--flat", "cp1:1").returncode == 2
    assert run_cli("bell", "integrate", "--no-such-flag").returncode == 2
    # CP^5 at the default rule has (4 x 7)^5 rows, past the 2^20 bound
    assert (
        run_cli("bell", "integrate", "--space", "cpn", "--n", "6", "--p", "0", "--q", "0").returncode
        == 2
    )


def test_verify_unity_and_measure():
    result = run_cli("verify", "unity", "--space", "cp1", "--two-j", "5")
    assert result.returncode == 0
    assert "check unity-cp1-two_j-5" in result.stdout
    result = run_cli("verify", "measure", "--space", "cp2")
    assert result.returncode == 0


def test_verify_antimap_and_consistency():
    result = run_cli("verify", "antimap", "--flat", "cp2:b3", "--pairs", "500", "--seed", "7")
    assert result.returncode == 0
    result = run_cli(
        "verify", "consistency", "--flat", "cp1:4", "--two-j", "3", "--points", "200", "--seed", "7"
    )
    assert result.returncode == 0


def test_verify_moments_rank_fourier_schmidt():
    assert run_cli("verify", "moments", "--two-j", "6").returncode == 0
    result = run_cli("verify", "rank", "--family", "spin1")
    assert result.returncode == 0
    assert "value=3 == 3 PASS" in result.stdout
    assert run_cli("verify", "fourier", "--n", "5").returncode == 0
    assert run_cli("verify", "schmidt", "--space", "cp2", "--flat", "cp2:b2").returncode == 0


def test_verify_unity_under_resolved_fails():
    result = run_cli(
        "verify", "unity", "--space", "cp1", "--two-j", "8", "--radial-nodes", "3"
    )
    assert result.returncode == 1


def test_byte_identical_reruns(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = (
        "bell", "integrate", "--space", "cp2", "--flat", "cp2:b2",
        "--mc-samples", "20000", "--seed", "11", "--tolerance", "5e-2",
    )
    r1 = run_cli(*argv, "--output", str(f1))
    r2 = run_cli(*argv, "--output", str(f2))
    assert r1.returncode == r2.returncode == 0
    out1 = r1.stdout.replace(str(f1), "OUT")
    out2 = r2.stdout.replace(str(f2), "OUT")
    assert out1 == out2
    assert f1.read_bytes() == f2.read_bytes()


def test_seed_environment_fallback():
    explicit = run_cli("verify", "antimap", "--flat", "cp1:2", "--pairs", "100", "--seed", "99")
    fallback = run_cli(
        "verify", "antimap", "--flat", "cp1:2", "--pairs", "100",
        env_extra={"BELLFORGE_SEED": "99"},
    )
    assert explicit.stdout == fallback.stdout
    assert fallback.returncode == 0


def test_csv_residual_table(tmp_path):
    csv_path = tmp_path / "residuals.csv"
    result = run_cli(
        "verify", "moments", "--two-j", "4", "--csv", str(csv_path)
    )
    assert result.returncode == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "check,value,tolerance,status"
    assert lines[1].startswith("moments-two_j-4,") and lines[1].endswith(",PASS")


def test_export_clock_matrix(tmp_path):
    out = tmp_path / "clock.json"
    result = run_cli("export", "--what", "clock", "--n", "3", "--output", str(out))
    assert result.returncode == 0
    with open(out) as handle:
        doc = json.load(handle)
    assert doc["kind"] == "matrix" and doc["dim"] == 3
    entries = np.array([[re + 1j * im for re, im in row] for row in doc["entries"]])
    w = np.exp(2j * np.pi / 3.0)
    assert np.max(np.abs(entries - np.diag([1.0, w, w**2]))) < 1e-14


def _same_stdout_for_one_and_two_blas_threads(*argv):
    one, two = (run_cli(*argv, env_extra={"OPENBLAS_NUM_THREADS": t}) for t in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_monte_carlo_stdout_is_the_same_for_one_and_two_blas_threads():
    _same_stdout_for_one_and_two_blas_threads(
        "bell", "integrate", "--space", "cpn", "--n", "4", "--p", "1", "--q", "2",
        "--mc-samples", "200000", "--seed", "7",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("bell", "integrate", "--space", "cp2", "--flat", "cp2:a2"),
        ("bell", "integrate", "--space", "cpn", "--n", "4", "--p", "1", "--q", "2"),
        ("bell", "integrate", "--space", "cp1", "--two-j", "33", "--flat", "cp1:3"),
        ("verify", "moments", "--two-j", "40"),
    ],
    ids=["cp2", "cp3", "cp1", "moments"],
)
def test_quadrature_stdout_is_the_same_for_one_and_two_blas_threads(argv):
    # the rule on CP^n is contracted with matrix products, and the cp1 twist
    # multiplies each node's state by U; either may go through BLAS
    _same_stdout_for_one_and_two_blas_threads(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "consistency", "--flat", "cp1:4", "--two-j", "3", "--points", "10000", "--seed", "5"),
        ("verify", "all", "--seed", "5"),
    ],
    ids=["consistency", "all"],
)
def test_verify_stdout_is_the_same_for_one_and_two_blas_threads(argv):
    # the state-vs-projector check runs stacked matrix products, which may go through BLAS
    _same_stdout_for_one_and_two_blas_threads(*argv)


def test_verify_all_passes():
    result = run_cli("verify", "all", "--seed", "5")
    assert result.returncode == 0
    assert "result: PASS" in result.stdout


def test_wall_time_on_stderr_only():
    result = run_cli("verify", "moments", "--two-j", "2")
    assert "wall-time" in result.stderr
    assert "wall-time" not in result.stdout


# --- in-process runs of cli.main ---------------------------------------------


@pytest.fixture
def bellforge(capsys, monkeypatch):
    """Runs cli.main in this process and returns (exit code, stdout, stderr)."""
    monkeypatch.delenv("BELLFORGE_SEED", raising=False)

    def run(*argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return run


def golden_commands():
    """(argv, expected stdout lines + exit line) for each `$ ` block of the golden file."""
    commands = []
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("$ "):
            commands.append((shlex.split(line[2:]), []))
        elif not line.startswith("#"):
            commands[-1][1].append(line)
    return commands


GOLDEN_COMMANDS = golden_commands()


@pytest.mark.parametrize(
    "argv, expected", GOLDEN_COMMANDS, ids=[" ".join(argv) for argv, _ in GOLDEN_COMMANDS]
)
def test_output_matches_golden(argv, expected, bellforge, tmp_path):
    """Lines other than checks are byte-identical; a check keeps its name,
    relation, bound and status, and its value within 1e-14."""
    code, out, _ = bellforge(*(arg.replace("OUT/", f"{tmp_path}/") for arg in argv))
    lines = out.replace(str(tmp_path), "OUT").splitlines() + [f"exit: {code}"]
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        got, wanted = CHECK_LINE.fullmatch(line), CHECK_LINE.fullmatch(want)
        if wanted is None:
            assert line == want
        else:
            assert got is not None, line
            assert got.group(1, 3, 4, 5) == wanted.group(1, 3, 4, 5)
            assert abs(float(got[2]) - float(wanted[2])) <= 1e-14, line


def test_golden_covers_readme_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("bellforge ")]
    recorded = [[arg.removeprefix("OUT/") for arg in argv] for argv, _ in GOLDEN_COMMANDS]
    assert examples and [e for e in examples if e not in recorded] == []


@pytest.mark.parametrize(
    "what, needed, foreign",
    [
        ("unity", [], ["--family", "cp1"]),
        ("measure", [], ["--pairs", "10"]),
        ("antimap", ["--flat", "cp1:2", "--pairs", "10"], ["--points", "10"]),
        ("consistency", ["--flat", "cp1:2", "--points", "10"], ["--pairs", "10"]),
        ("moments", [], ["--mc-samples", "5"]),
        ("fourier", [], ["--two-j", "1"]),
        ("rank", [], ["--tolerance", "1e-3"]),
        ("schmidt", ["--space", "cp2", "--flat", "cp2:b2"], ["--points", "10"]),
        ("all", [], ["--two-j", "1"]),
    ],
)
def test_verify_subcommands_take_only_their_own_flags(what, needed, foreign, bellforge, tmp_path):
    code, _, err = bellforge("verify", what, *needed, *foreign)
    assert code == 2 and "unrecognized arguments" in err
    csv_path = tmp_path / "checks.csv"
    code, out, _ = bellforge("verify", what, *needed, "--seed", "3", "--csv", str(csv_path))
    assert code == 0 and "result: PASS" in out
    assert csv_path.read_text().startswith("check,value,tolerance,status")


@pytest.mark.parametrize("values", [[0.0, math.nan], [math.nan, 0.0]])
def test_worst_keeps_nan_and_the_check_fails(values, capsys):
    worst = cli._worst(values)
    assert math.isnan(worst)
    report = cli.Report("verify moments", {})
    report.checks.append(cli.Check("moments-two_j-160", worst, 1e-10))
    report.emit()
    assert "check moments-two_j-160: value=nan <= 1e-10 FAIL" in capsys.readouterr().out
    assert report.exit_code() == 1


@pytest.mark.parametrize("seed_flag, seed_env", [(["--seed", "-1"], None), ([], "abc")])
def test_bad_seeds_are_usage_errors(seed_flag, seed_env, bellforge, monkeypatch):
    if seed_env is not None:
        monkeypatch.setenv("BELLFORGE_SEED", seed_env)
    code, out, err = bellforge("verify", "antimap", "--flat", "cp1:2", "--pairs", "10", *seed_flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_negative_spin_is_a_usage_error(bellforge):
    code, out, err = bellforge("bell", "make", "--space", "cp1", "--two-j", "-1", "--flat", "cp1:1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "measure", "--two-j", "-1"),
        ("verify", "unity", "--two-j", "-1"),
        ("verify", "moments", "--two-j", "-1"),
        ("bell", "integrate", "--space", "cp1", "--two-j", "1100", "--flat", "cp1:1", "--mc-samples", "10"),
        # the outermost radial node of the 2j = 160 rule leaves float range,
        # which is refused before any node is evaluated
        ("bell", "integrate", "--space", "cp1", "--two-j", "160", "--flat", "cp1:1", "--angular-nodes", "1"),
        ("verify", "unity", "--two-j", "160", "--angular-nodes", "1"),
        ("bell", "integrate", "--space", "cp1", "--two-j", "160", "--flat", "cp1:1"),
        ("verify", "unity", "--two-j", "160"),
    ],
)
def test_spin_outside_the_supported_range_is_a_usage_error(argv, bellforge):
    code, out, err = bellforge(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # the default cp1 rule at 2j = 100000 has 100002 x 200003 nodes
        ("verify", "measure", "--two-j", "100000"),
        ("verify", "moments", "--two-j", "100000"),
        # few rows, but more Gauss-Legendre nodes than MAX_GAUSS_ORDER
        ("verify", "unity", "--space", "cp1", "--two-j", "1", "--radial-nodes", "100000", "--angular-nodes", "1"),
        (
            "bell", "integrate", "--space", "cpn", "--n", "2", "--p", "0", "--q", "0",
            "--simplex-nodes", "1000000", "--angular-nodes", "1",
        ),
        ("verify", "unity", "--space", "cp1", "--two-j", "1", "--radial-nodes", "1", "--angular-nodes", "1000000000"),
    ],
)
def test_oversized_rules_are_refused_before_any_table_is_built(argv, bellforge, monkeypatch):
    def build(*args):
        pytest.fail(f"a rule table was built for {args}")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", build)
    monkeypatch.setattr(quadrature, "_torus_points", build)
    code, out, err = bellforge(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("bell", "integrate", "--space", "cp1", "--two-j", "2", "--flat", "cp1:1", "--radial-nodes", "0"),
        ("bell", "integrate", "--space", "cp1", "--two-j", "2", "--flat", "cp1:1", "--angular-nodes", "0"),
        ("bell", "integrate", "--space", "cp2", "--flat", "cp2:a2", "--simplex-nodes", "0"),
        ("verify", "unity", "--space", "cp1", "--two-j", "2", "--angular-nodes", "0"),
        # a node count the chosen rule does not read
        ("verify", "unity", "--space", "cp2", "--radial-nodes", "1"),
        ("bell", "integrate", "--space", "cpn", "--n", "4", "--p", "1", "--q", "2", "--radial-nodes", "3"),
        ("bell", "integrate", "--space", "cp1", "--two-j", "2", "--flat", "cp1:1", "--simplex-nodes", "3"),
        ("bell", "integrate", "--space", "cp2", "--flat", "cp2:a2", "--mc-samples", "10", "--angular-nodes", "7"),
        # a space these checks have no rule or measure for
        ("verify", "unity", "--space", "cpn"),
        ("verify", "measure", "--space", "cpn"),
    ],
)
def test_node_counts_the_rule_cannot_use_are_usage_errors(argv, bellforge):
    code, out, err = bellforge(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_bell_integrate_on_the_sphere_of_a_cpn_id_passes(bellforge):
    code, out, _ = bellforge("bell", "integrate", "--space", "cpn", "--n", "2", "--p", "1", "--q", "1")
    assert code == 0
    assert "config: angular_nodes=7 flat=cpn:1:1:1 simplex_nodes=4 space=cpn" in out
    assert "result: PASS (2/2)" in out


CP1_RANKS = [(0, 1), (1, 4), (2, 3), (3, 4), (4, 4), (5, 4)]


@pytest.mark.parametrize(
    "argv, rank",
    [(("--family", "cp1", "--two-j", str(two_j)), rank) for two_j, rank in CP1_RANKS]
    + [(("--family", "cp2"), 9), (("--family", "gen", "--n", "4"), 16)],
    ids=[f"{two_j}-{rank}" for two_j, rank in CP1_RANKS] + ["cp2-9", "gen-4-16"],
)
def test_cp1_family_rank(argv, rank, bellforge):
    code, out, _ = bellforge("verify", "rank", *argv)
    assert code == 0
    assert f"check rank-{argv[1]}: value={rank} == {rank} PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("bell", "make", "--space", "cpn", "--n", "1000000000000", "--p", "0", "--q", "0"),
        ("bell", "make", "--space", "cp1", "--two-j", "1000000000000", "--flat", "cp1:3"),
        (
            "bell", "integrate", "--space", "cpn", "--n", "1000000000000", "--p", "0", "--q", "0",
            "--mc-samples", "10",
        ),
        ("export", "--what", "clock", "--n", "1000000000000"),
        ("verify", "fourier", "--n", "1000000000000"),
        ("verify", "rank", "--family", "gen", "--n", "1000000000000"),
        ("verify", "rank", "--family", "gen", "--n", "1000"),
        ("bell", "integrate", "--space", "cp1", "--flat", "cp1:1", "--mc-samples", "1000000000000"),
        ("verify", "consistency", "--flat", "cp1:1", "--points", "1000000000000"),
        ("verify", "antimap", "--flat", "cp1:1", "--pairs", "1000000000000"),
    ],
)
def test_inputs_past_the_byte_budget_are_refused_before_any_array_is_built(argv, bellforge):
    code, out, err = bellforge(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "more than 1073741824" in err


def test_spin_states_past_the_byte_budget_are_refused_before_they_are_built(bellforge, monkeypatch):
    # the draw of 1000 rows takes 32 KB and fits a 1 MiB budget; its spin
    # states at 2j = 1000 would take 16 MB
    monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", 1 << 20)
    code, out, err = bellforge("verify", "consistency", "--flat", "cp1:1", "--two-j", "1000", "--points", "1000")
    assert (code, out) == (2, "")
    assert err.startswith("error: 1000 spin states at 2j = 1000 would take")
