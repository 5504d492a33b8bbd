"""Workload definitions: sizes, CLI arguments and the scalar-api inputs.

This module imports no qtriad code, so the checking side (``run.py``) and the
measured side (``worker.py``) build the same inputs from the same seed.

Sizes are chosen so that one untraced batch (one fresh process) works for
about a second on a 2-core machine; the traced pass of each workload is
smaller because tracing multiplies its cost several times over.
"""

from __future__ import annotations

import numpy as np

SAMPLE_CSV = "sample-haar-csv"
SHELLS_JSON = "shells-fixedc-json"
VERIFY = "verify"
SCALAR_API = "scalar-api"
WORKLOADS = (SAMPLE_CSV, SHELLS_JSON, VERIFY, SCALAR_API)

# States per batch: (untraced, traced pass).
SAMPLE_COUNT = (20000, 2000)
SHELL_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
SHELL_PER_LEVEL = (3000, 400)
VERIFY_COUNT = (8000, 800)
# scalar-api rounds per batch: (untraced, traced pass).
SCALAR_ROUNDS = (20, 1)

# One scalar-api round: how many inputs of each kind. The shares are fixed,
# so every round attempts the same mix of operations.
SCALAR_MIX = (
    ("generic", 850),
    ("pole", 30),          # q2 = 0: the projection's point at infinity
    ("balanced", 30),      # D = 0: equal path populations
    ("product", 30),       # C = 0
    ("equal_schmidt", 30),  # lambda1 = lambda2: C = 1, degenerate SVD
    ("extreme", 30),       # |a| near 1e200 or 1e-200; see EXTREME_SCALES
    ("correlated", 80),    # mu|0>|chi1> + nu|1>|chi2>, d = 3, generic chis
    ("correlated_parallel", 10),    # chi2 = phase * chi1
    ("correlated_orthogonal", 10),  # <chi1|chi2> = 0
)
ROUND_SIZE = sum(n for _, n in SCALAR_MIX)
CHI_DIM = 3

# make_state computes the norm as sqrt(sum of squares): the squares overflow
# for |a| >~ 1.3e154 and underflow to zero for |a| <~ 2e-162, so these inputs
# fail today ("must be finite" / "all-zero"). They do not depend on the seed.
EXTREME_SCALES = (1e200, 1e-200)
_EXTREME_SEED = 20210612


def per_batch_states(workload: str, traced: bool) -> int:
    """States one batch handles, failed operations included."""
    k = 1 if traced else 0
    if workload == SAMPLE_CSV:
        return SAMPLE_COUNT[k]
    if workload == SHELLS_JSON:
        return len(SHELL_LEVELS) * SHELL_PER_LEVEL[k]
    if workload == VERIFY:
        return VERIFY_COUNT[k]
    return SCALAR_ROUNDS[k] * ROUND_SIZE


def cli_argv(workload: str, seed: int, out: str, traced: bool) -> list[str]:
    """The qtriad command line of a CLI workload (verify prints to stdout)."""
    k = 1 if traced else 0
    if workload == SAMPLE_CSV:
        return ["sample", "--ensemble", "haar", "--count", str(SAMPLE_COUNT[k]),
                "--seed", str(seed), "--out", out, "--format", "csv"]
    if workload == SHELLS_JSON:
        levels = ",".join(repr(c) for c in SHELL_LEVELS)
        return ["shells", "--levels", levels, "--count-per-level", str(SHELL_PER_LEVEL[k]),
                "--seed", str(seed), "--out", out, "--format", "json"]
    if workload == VERIFY:
        return ["verify", "--count", str(VERIFY_COUNT[k]), "--seed", str(seed),
                "--format", "json"]
    raise ValueError(f"{workload} is not a CLI workload")


def _complex(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def scalar_round(seed: int, rnd: int) -> list[tuple[str, tuple]]:
    """Inputs of scalar-api round ``rnd``: ``(kind, payload)`` pairs.

    A state payload is 4 complex amplitudes (not normalized); a correlated
    payload is ``(mu, nu, chi1, chi2)`` (not normalized either).
    """
    rng = np.random.default_rng([seed, rnd])
    out: list[tuple[str, tuple]] = []
    for kind, n in SCALAR_MIX:
        if kind == "generic":
            amps = _complex(rng, n, 4) * rng.uniform(0.1, 10.0, size=(n, 1))
        elif kind == "pole":
            amps = np.concatenate([_complex(rng, n, 2), np.zeros((n, 2))], axis=1)
        elif kind == "balanced":
            amps = np.concatenate([_unit(_complex(rng, n, 2)), _unit(_complex(rng, n, 2))], axis=1)
        elif kind == "product":
            u, w = _complex(rng, n, 2), _complex(rng, n, 2)
            amps = (u[:, :, None] * w[:, None, :]).reshape(n, 4)
        elif kind == "equal_schmidt":
            # Local unitaries (QR of Ginibre) on both sides of (1, 0, 0, 1).
            u = np.linalg.qr(_complex(rng, n, 2, 2))[0]
            w = np.linalg.qr(_complex(rng, n, 2, 2))[0]
            amps = (u @ np.swapaxes(w, 1, 2)).reshape(n, 4)
        elif kind == "extreme":
            fixed = np.random.default_rng(_EXTREME_SEED)
            base = _complex(fixed, n, 4)
            scale = np.repeat(EXTREME_SCALES, -(-n // len(EXTREME_SCALES)))[:n]
            amps = base * scale[:, None]
        else:
            mu, nu = _complex(rng, n), _complex(rng, n)
            chi1 = _complex(rng, n, CHI_DIM)
            if kind == "correlated":
                chi2 = _complex(rng, n, CHI_DIM)
            elif kind == "correlated_parallel":
                chi2 = chi1 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n, 1)))
                chi2 *= rng.uniform(0.5, 2.0, size=(n, 1))
            else:
                chi2 = _complex(rng, n, CHI_DIM)
                c1 = _unit(chi1)
                chi2 = chi2 - np.sum(np.conj(c1) * chi2, axis=1, keepdims=True) * c1
            for k in range(n):
                out.append((kind, (complex(mu[k]), complex(nu[k]),
                                   tuple(chi1[k].tolist()), tuple(chi2[k].tolist()))))
            continue
        out.extend((kind, tuple(row)) for row in amps.tolist())
    return out


def is_correlated(kind: str) -> bool:
    return kind.startswith("correlated")
