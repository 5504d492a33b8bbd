"""The sample stream and the verify report against stored sha256 digests.

Each run writes a dataset (or prints a ``verify`` report) through the CLI and
compares the digest of its bytes with one recorded before any change to the
sampler, the record layer or the verify suite. Runs are compared with stored
values rather than with each other, so a change that moves the output in every
run at once still fails here.
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
    # Three sampler blocks, two boundaries crossed, 32 fallback rows.
    "haar-2100": ["sample", "--ensemble", "haar", "--seed", "42", "--count", "2100"],
}

DIGESTS = {
    ("haar", "csv"): "79af022a56ca3daf25f58036c77d9d874b9368fdbc348b8f4cbec1a1152a2f1d",
    ("separable", "csv"): "b30a029f3556f30ca38de8c1f092ec1d04a80f2d04c5ec24c4e31cdf84ab6af2",
    ("fixedc", "csv"): "0542e856398bda3ab8b71414b6a013a390e12cc963ae71538f5057ff9acbb508",
    ("shells", "csv"): "aef80b649880492acec478ce78bdbfd4c3188d9f161098a0310bc31a8bc24b91",
    ("haar", "json"): "381fc6e275079ab93b16de64c0795d47b56ec2daa4849aa507f7064fab2ab8d5",
    ("separable", "json"): "8daf59ce75ed616387750f47a3e9bf17667ce81ee8454609e23036517fea2f78",
    ("fixedc", "json"): "b732e672708318cce86fb5c966c5023fd8a00d1baaef6ef1aa292af70c901c9f",
    ("shells", "json"): "56a6619266dcd0b2f1ffa7961a3f49a789cc673d15bdde86c91e284c41e9fab0",
    ("haar-2100", "csv"): "3e31dff71f4953d31bb8f0d51ee63348162ab6775ed6af48ec01fc1878457f13",
    ("haar-2100", "json"): "9ba69e4b44f317d61ca8d4f005b74af2f9ffb3567cf0032a45185033bf199361",
}

# stdout of `qtriad verify`: every check's sample count and max_error, printed
# with full precision in JSON, pin the array passes of the verify suite.
VERIFY_RUNS = {
    "1000-42-json": (
        ["verify", "--count", "1000", "--seed", "42", "--format", "json"],
        "2595c13e83161916a9909d3902cd279c7c50af4b0b8fa760c05ebf8f809f2634",
    ),
    "8000-1-json": (
        ["verify", "--count", "8000", "--seed", "1", "--format", "json"],
        "add3d97f500b1cbcfced2f196f39ec3f06791f9fb3e885b2e0b890dfe86f0387",
    ),
    "500-7-text": (
        ["verify", "--count", "500", "--seed", "7"],
        "cb13e7f149b03cef14bc77a99609b8a17656cbc3c92a8edc92ca4e7921d677ca",
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


@pytest.mark.parametrize("name", sorted(VERIFY_RUNS))
def test_verify_report_matches_stored_digest(capsys, name):
    argv, expected = VERIFY_RUNS[name]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected, (
        f"verify {name}: sha256 {digest} differs from the digest recorded with "
        f"{RECORDED_WITH} (this run: {_here()})"
    )
