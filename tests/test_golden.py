"""The sample stream and the verify report against stored sha256 digests.

Each run writes a dataset (or prints a ``verify`` report) through the CLI and
compares the digest of its bytes with a stored one. Runs are compared with
stored values rather than with each other, so a change that moves the output
in every run at once still fails here. The eight amplitude columns of each
CSV run have a digest of their own: they are the sampled stream alone, so a
change to a derived formula, which must re-record the whole-file digests,
leaves them as they are.
"""

import hashlib
import platform

import numpy as np
import pytest

from qtriad.cli import main

RECORDED_WITH = "numpy 2.4.6, Python 3.11.7, Linux x86_64"

RUNS = {
    "haar": ["sample", "--ensemble", "haar", "--seed", "42", "--count", "1000"],
    "separable": ["sample", "--ensemble", "separable", "--seed", "42", "--count", "1000"],
    "fixedc": [
        "sample", "--ensemble", "fixedc", "--c", "0.5", "--seed", "42", "--count", "1000",
    ],
    "shells": ["shells", "--levels", "0,0.5,1", "--count-per-level", "300", "--seed", "42"],
    # The largest seed: the key schedule's wraparound on the per-index path.
    "shells-max": [
        "shells", "--levels", "0,0.5,1", "--count-per-level", "300",
        "--seed", "18446744073709551615",
    ],
    # Three sampler blocks, two boundaries crossed, 32 fallback rows.
    "haar-2100": ["sample", "--ensemble", "haar", "--seed", "42", "--count", "2100"],
}

DIGESTS = {
    ("haar", "csv"): "7577bc3c463931585ed974759d20069539047c76e6bc382cde148b0af4442ec0",
    ("separable", "csv"): "ef0af49a81932a05962a725a9a72b3f95d7b31fa4b7fd27b156dc6e0d392045d",
    ("fixedc", "csv"): "d6ad7fdcd36720740a8802b14a1b81412468b4c4ae621c2fa0c40366d2978602",
    ("shells", "csv"): "5f8de2bcc8d3cdfefa3763efcf418ac0710ec095ac65c5047b755279055156f9",
    ("haar", "json"): "a92ee7e8ea21737ca3fafacb710e9e8498609c03c603e44d221c2fcc8b1ed4a1",
    ("separable", "json"): "351a72fbeea74d291330e0219baf15d0ec668176cef3935291189d2b271ce3cb",
    ("fixedc", "json"): "658192b588e611ffaf713bc63bcb5b31f3cccbfc97aa7d96f39685b2cd1eb525",
    ("shells", "json"): "42250c798a5d36b85f97018b66e3f2743ade93162865fdad2b31d99d6906d49f",
    ("shells-max", "csv"): "5477b3190fb1abd66df5c484e4599e8f509a15cf2eb79abedd905c624bc0a17e",
    ("shells-max", "json"): "c2f0f33f30fd78589517cb66c04eb9d75bbe09ff41c24173b1f581ce362f760f",
    ("haar-2100", "csv"): "efbda1b78180e13e455f366cd7b0c3ef27ee4801986c8cc66735b9e7f62e4726",
    ("haar-2100", "json"): "c4b358e60147e679117d48e15cb5c9a4603691ffa50855e42e246d180111dd1b",
}

# The text `cut -d, -f1-8` makes of each run's CSV: the header's and every
# row's eight amplitude cells, one line each.
AMPLITUDE_DIGESTS = {
    "fixedc": "fd78f3fddfc16637a567939246e3ecab9882bef8a752d2947d88fbe723481a71",
    "haar": "2da7c4791f8269c7a8604285efbbd36cfaf702123f5ecdecd4cee7c6fa0a71d8",
    "haar-2100": "a7d5515bcd02deeb5f6a3d1a1c3a1c59f1d478017a6a8ade191c43784f63bb7b",
    "separable": "e07bb4c0a7989c79486b39aa030614b6b344039cae88a7263a4ed054bbb1d9ca",
    "shells": "bacdc735d6616b6df5e642b5c355295f3c772540c4d5b22ab78df53b9e544705",
    "shells-max": "cad554bb5939311c163183debd4e770a7d52c8f8fa39b1a5add1fd0876142075",
}

# stdout of `qtriad verify`: every check's sample count and max_error, printed
# with full precision in JSON, pin the array passes of the verify suite.
VERIFY_RUNS = {
    "1000-42-json": (
        ["verify", "--count", "1000", "--seed", "42", "--format", "json"],
        "56527b9f081445d149f0fffb0193d4bbc146f857308c3364bc37d6e809aa6915",
    ),
    "8000-1-json": (
        ["verify", "--count", "8000", "--seed", "1", "--format", "json"],
        "85b4fb6b2a87cc46369e6c853c06f96df6702b1939aababfdbc3c94a264c84cf",
    ),
    "500-7-text": (
        ["verify", "--count", "500", "--seed", "7"],
        "345d0fb3b496142a0c5a97d54632af03b161c25e28d91c05ee2370f15d737ff7",
    ),
    # One tolerance for every row, which unit_q_iff_d0's error also reads;
    # three blocks.
    "2100-5-tolerance-json": (
        ["verify", "--count", "2100", "--seed", "5", "--tolerance", "1e-9", "--format", "json"],
        "41d573462a9a0c63eab39200a9a901c8e166613a5bc1b2c42e732b4950551254",
    ),
}


def _here() -> str:
    return (
        f"numpy {np.__version__}, Python {platform.python_version()}, "
        f"{platform.system()} {platform.machine()}"
    )


@pytest.mark.parametrize("name, fmt", sorted(DIGESTS))
def test_stream_matches_stored_digest(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert main([*RUNS[name], "--out", str(out), "--format", fmt]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DIGESTS[name, fmt], (
        f"{name}.{fmt}: sha256 {digest} differs from the digest recorded with "
        f"{RECORDED_WITH} (this run: {_here()})"
    )


@pytest.mark.parametrize("name", sorted(AMPLITUDE_DIGESTS))
def test_amplitude_columns_match_stored_digest(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main([*RUNS[name], "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_bytes().decode().splitlines()
    amplitudes = "".join(",".join(line.split(",")[:8]) + "\n" for line in lines)
    digest = hashlib.sha256(amplitudes.encode()).hexdigest()
    assert digest == AMPLITUDE_DIGESTS[name], (
        f"{name}.csv amplitude columns: sha256 {digest} differs from the digest "
        f"recorded with {RECORDED_WITH} (this run: {_here()})"
    )


@pytest.mark.parametrize("name", sorted(VERIFY_RUNS))
def test_verify_report_matches_stored_digest(capsys, name):
    argv, expected = VERIFY_RUNS[name]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected, (
        f"verify {name}: sha256 {digest} differs from the digest recorded with "
        f"{RECORDED_WITH} (this run: {_here()})"
    )
