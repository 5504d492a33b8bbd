"""The sample stream against stored sha256 digests (the bit-for-bit contract).

Each run writes a dataset through the CLI and compares the file's digest with
one recorded before any change to the sampler or the record layer. Runs are
compared with stored values rather than with each other, so a change that
moves the stream in every run at once still fails here.
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
}


@pytest.mark.parametrize("name, fmt", sorted(DIGESTS))
def test_stream_matches_stored_digest(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert main([*RUNS[name], "--out", str(out), "--format", fmt]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    here = (
        f"numpy {np.__version__}, Python {platform.python_version()}, "
        f"{platform.system()} {platform.machine()}"
    )
    assert digest == DIGESTS[name, fmt], (
        f"{name}.{fmt}: sha256 {digest} differs from the digest recorded with "
        f"{RECORDED_WITH} (this run: {here})"
    )
