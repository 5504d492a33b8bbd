import itertools
import json
import math
import subprocess
import sys

import pytest

from qtriad import cli
from qtriad.cli import main
from qtriad.dataset import DATASET_COLUMNS
from qtriad.sampling import fixed_concurrence_state, haar_state

BELL_ARG = "1,0,0,0,0,0,1,0"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- analyze

def test_analyze_bell_json(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--state", BELL_ARG, "--normalize"
    )
    assert code == 0
    data = json.loads(out)
    assert data["V"] == 0.0 and data["D"] == 0.0
    assert abs(data["C"] - 1.0) < 1e-14
    assert abs(data["x"][3] + 1.0) < 1e-14
    assert data["Q"][2] == pytest.approx(-1.0, abs=1e-14)
    assert data["radius"] == 0.0
    assert "MaximallyEntangled" in data["labels"]


def test_analyze_north_pole_reports_inf(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--state", "1,0,0,0,0,0,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["Q"] == "inf"
    assert data["x"] == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--state", BELL_ARG, "--normalize", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("V,D,C,x0")
    assert lines[1].split(",")[-1].startswith("MaximallyEntangled")


# Outputs recorded before the record path was rewritten, each with --normalize:
# a wave-only state, the north pole (Q at infinity) and a state with no label.
_ANALYZE_CSV_HEADER = "V,D,C,x0,x1,x2,x3,x4,radius,Q_e0,Q_e1,Q_e2,Q_e3,labels"
_ANALYZE_PINNED = {
    "1,0,0,0,0,1,0,0": (
        "0.99999999999999978,0,0,0,0,-0.99999999999999978,0,0,0.99999999999999978,"
        "0,-1,0,0,Separable;WaveOnly;ParticleLess;OnGreatDisc",
        {
            "V": 0.9999999999999998, "D": 0.0, "C": 0.0,
            "x": [0.0, 0.0, -0.9999999999999998, 0.0, 0.0],
            "Q": [0.0, -1.0, 0.0, 0.0],
            "ball": [0.0, 0.0, -0.9999999999999998],
            "radius": 0.9999999999999998,
            "labels": ["Separable", "WaveOnly", "ParticleLess", "OnGreatDisc"],
        },
    ),
    "1,0,0,0,0,0,0,0": (
        "0,1,0,1,0,0,0,0,1,inf,inf,inf,inf,Separable;ParticleOnly;WaveLess;OnX0Axis",
        {
            "V": 0.0, "D": 1.0, "C": 0.0,
            "x": [1.0, 0.0, 0.0, 0.0, 0.0],
            "Q": "inf",
            "ball": [1.0, 0.0, 0.0],
            "radius": 1.0,
            "labels": ["Separable", "ParticleOnly", "WaveLess", "OnX0Axis"],
        },
    ),
    "0.3,0.1,-0.2,0.5,0.7,0,0.1,-0.3": (
        "0.14716535818220366,0.20408163265306134,0.96782903684729626,"
        "-0.20408163265306134,0.081632653061224469,0.12244897959183676,"
        "-0.40816326530612251,0.87755102040816346,0.25160873481506035,"
        "0.067796610169491456,0.10169491525423727,-0.33898305084745761,"
        "0.72881355932203384,",
        {
            "V": 0.14716535818220366, "D": 0.20408163265306134, "C": 0.9678290368472963,
            "x": [
                -0.20408163265306134, 0.08163265306122447, 0.12244897959183676,
                -0.4081632653061225, 0.8775510204081635,
            ],
            "Q": [
                0.06779661016949146, 0.10169491525423727,
                -0.3389830508474576, 0.7288135593220338,
            ],
            "ball": [-0.20408163265306134, 0.08163265306122447, 0.12244897959183676],
            "radius": 0.25160873481506035,
            "labels": [],
        },
    ),
}


@pytest.mark.parametrize("state", sorted(_ANALYZE_PINNED))
def test_analyze_csv_is_pinned(capsys, state):
    code, out, _ = run_cli(
        capsys, "analyze", "--state", state, "--normalize", "--format", "csv"
    )
    assert code == 0
    assert out == _ANALYZE_CSV_HEADER + "\n" + _ANALYZE_PINNED[state][0] + "\n"


@pytest.mark.parametrize("state", sorted(_ANALYZE_PINNED))
def test_analyze_json_is_pinned(capsys, state):
    code, out, _ = run_cli(
        capsys, "analyze", "--state", state, "--normalize", "--format", "json"
    )
    assert code == 0
    assert out == json.dumps(_ANALYZE_PINNED[state][1], indent=1) + "\n"


def test_analyze_rejects_unnormalized_without_flag(capsys):
    code, _, err = run_cli(capsys, "analyze", "--state", BELL_ARG)
    assert code == 2
    assert "error:" in err


def test_analyze_rejects_malformed_state(capsys):
    code, _, err = run_cli(capsys, "analyze", "--state", "1,0,0")
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------------- embed

def _write_chi(path, values):
    path.write_text("".join(f"{z.real},{z.imag}\n" for z in values), encoding="utf-8")


def test_embed_half_overlap(tmp_path, capsys):
    chi1 = tmp_path / "chi1.txt"
    chi2 = tmp_path / "chi2.txt"
    _write_chi(chi1, [1 + 0j, 0j])
    r = 1 / math.sqrt(2)
    _write_chi(chi2, [complex(r), complex(r)])
    code, out, _ = run_cli(
        capsys,
        "embed",
        "--mu", f"{r},0",
        "--nu", f"{r},0",
        "--chi1", str(chi1),
        "--chi2", str(chi2),
    )
    assert code == 0
    data = json.loads(out)
    alpha = [complex(re, im) for re, im in data["alpha"]]
    expected = [r, 0.0, 0.5, 0.5]
    assert all(abs(a - e) < 1e-12 for a, e in zip(alpha, expected))
    assert abs(data["analysis"]["V"] - r) < 1e-12
    assert abs(data["analysis"]["C"] - r) < 1e-12


def test_embed_higher_dimensional_partner(tmp_path, capsys):
    chi1 = tmp_path / "chi1.txt"
    chi2 = tmp_path / "chi2.txt"
    _write_chi(chi1, [1 + 0j, 0j, 0j])
    _write_chi(chi2, [0j, 0.6 + 0j, 0.8j])
    code, out, _ = run_cli(
        capsys, "embed", "--mu", "1,0", "--nu", "1,0",
        "--chi1", str(chi1), "--chi2", str(chi2),
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["analysis"]["C"] - 1.0) < 1e-12  # orthogonal chis: Bell-like


def test_embed_missing_file(tmp_path, capsys):
    chi1 = tmp_path / "chi1.txt"
    _write_chi(chi1, [1 + 0j])
    code, _, err = run_cli(
        capsys, "embed", "--mu", "1,0", "--nu", "0,0",
        "--chi1", str(chi1), "--chi2", str(tmp_path / "nope.txt"),
    )
    assert code == 2
    assert "error:" in err


# -------------------------------------------------------------------- sample

def test_sample_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "haar.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--ensemble", "haar", "--count", "20",
        "--seed", "9", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(DATASET_COLUMNS)
    assert len(lines) == 21


def test_sample_json_format(tmp_path, capsys):
    out_file = tmp_path / "haar.json"
    code, _, _ = run_cli(
        capsys, "sample", "--ensemble", "haar", "--count", "5",
        "--seed", "9", "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    records = json.loads(out_file.read_text(encoding="utf-8"))
    assert len(records) == 5


def test_sample_fixedc_requires_c(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sample", "--ensemble", "fixedc", "--count", "5",
        "--seed", "9", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "error:" in err


def test_sample_is_byte_identical_across_runs(tmp_path):
    # end-to-end determinism through the real entry point
    files = []
    for name in ("a.csv", "b.csv"):
        out_file = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "qtriad.cli", "sample",
                "--ensemble", "haar", "--count", "200",
                "--seed", "42", "--out", str(out_file),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


# -------------------------------------------------------------------- verify

def test_verify_text_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--count", "100", "--seed", "5")
    assert code == 0
    assert "overall: pass" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--count", "100", "--seed", "5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_verify_fails_with_unreachable_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--count", "100", "--seed", "5", "--tolerance", "1e-20"
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-6"])
def test_verify_rejects_unusable_tolerance(capsys, tolerance):
    code, out, err = run_cli(
        capsys, "verify", "--count", "10", "--seed", "5", f"--tolerance={tolerance}"
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "tolerance" in err


@pytest.mark.parametrize("tolerance", ["0", "1e-20"])
def test_verify_accepts_tiny_tolerance(capsys, tolerance):
    code, out, _ = run_cli(
        capsys, "verify", "--count", "10", "--seed", "5", "--tolerance", tolerance
    )
    assert code == 1
    assert "FAIL" in out


# -------------------------------------------------------------------- shells

def test_shells_dataset(tmp_path, capsys):
    out_file = tmp_path / "shells.csv"
    code, _, _ = run_cli(
        capsys, "shells", "--levels", "0,0.6,1", "--count-per-level", "30",
        "--seed", "4", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 91
    radius_idx = DATASET_COLUMNS.index("radius")
    radii = [float(ln.split(",")[radius_idx]) for ln in lines[1:]]
    for block, expected in zip(range(3), (1.0, 0.8, 0.0)):
        for r in radii[block * 30 : (block + 1) * 30]:
            assert abs(r - expected) < 1e-10


def test_shells_rejects_empty_levels(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "shells", "--levels", ",", "--count-per-level", "5",
        "--seed", "4", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["shells", "--levels", "0.5,1.5", "--count-per-level", "5", "--seed", "4"],
        ["shells", "--levels", "0.5,nan", "--count-per-level", "5", "--seed", "4"],
        ["shells", "--levels", "0.5", "--count-per-level", "5", "--seed", "-1"],
        ["sample", "--count", "0", "--seed", "4"],
    ],
)
def test_invalid_input_leaves_no_output_file(tmp_path, capsys, argv):
    out_file = tmp_path / "never.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert "error:" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, count, first",
    [
        (
            ["sample", "--count", str(10**15), "--seed", "3"],
            10**15,
            [haar_state(3, i) for i in range(3)],
        ),
        (
            ["shells", "--levels", "0.25,1", "--count-per-level", str(10**12), "--seed", "3"],
            2 * 10**12,
            [fixed_concurrence_state(3, i, 0.25) for i in range(3)],
        ),
    ],
)
def test_dataset_commands_stream_states_into_the_writer(
    tmp_path, capsys, monkeypatch, deadline, argv, count, first
):
    seen = {}

    def emit_three(states, fmt, destination):
        seen["type"] = type(states)
        seen["len"] = len(states)
        seen["first"] = [s.alpha for s in itertools.islice(states, 3)]

    monkeypatch.setattr(cli, "emit_dataset", emit_three)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "lazy.csv"))
    assert code == 0
    assert not issubclass(seen["type"], (list, tuple))
    assert seen["len"] == count
    assert seen["first"] == [s.alpha for s in first]


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "qtriad.cli", "sample", "--count", "5"],
        capture_output=True,
    )
    assert proc.returncode == 2
