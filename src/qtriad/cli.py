"""Command-line interface.

Exit codes: 0 on success (all checks pass for ``verify``), 1 on verification
failure, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .dataset import CSV_FORMAT, JSON_FORMAT, _fmt, emit_dataset, state_record
from .projection import quaternify, stereo_project
from .quaternion import is_infinite
from .sampling import (
    ENSEMBLES,
    FIXED_CONCURRENCE,
    HAAR,
    Samples,
    SampleSpec,
    fixed_concurrence_state,
    sample,
)
from .states import TwoQubitState, embed_correlated, make_correlated, make_state
from .verify import verify_suite

# Options that take a float, which may be negative.
_FLOAT_OPTIONS = ("--tolerance", "--c")

_ANALYZE_COLUMNS = (
    "V", "D", "C", "x0", "x1", "x2", "x3", "x4", "radius",
    "Q_e0", "Q_e1", "Q_e2", "Q_e3", "labels",
)


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_state_arg(text: str, normalize: bool) -> TwoQubitState:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 8:
        raise ValueError("--state needs 8 comma-separated reals (re,im per amplitude)")
    amplitudes = [complex(parts[2 * k], parts[2 * k + 1]) for k in range(4)]
    return make_state(amplitudes, normalize=normalize)


def _read_chi_file(path: str) -> list[complex]:
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(_parse_complex_pair(line))
    if not values:
        raise ValueError(f"no amplitudes found in {path}")
    return values


def _analysis(state: TwoQubitState) -> dict:
    record = state_record(state)
    x = [record[f"x{i}"] for i in range(5)]
    q = stereo_project(quaternify(state))
    return {
        "V": record["V"],
        "D": record["D"],
        "C": record["C"],
        "x": x,
        "Q": "inf" if is_infinite(q) else list(q.components()),
        "ball": x[:3],
        "radius": record["radius"],
        "labels": record["labels"],
    }


def _print_analysis(analysis: dict, fmt: str) -> None:
    if fmt == JSON_FORMAT:
        print(json.dumps(analysis, indent=1))
        return
    q = analysis["Q"]
    cells = [
        *map(_fmt, (analysis["V"], analysis["D"], analysis["C"], *analysis["x"])),
        _fmt(analysis["radius"]),
        *(["inf"] * 4 if q == "inf" else map(_fmt, q)),
        ";".join(analysis["labels"]),
    ]
    print(",".join(_ANALYZE_COLUMNS))
    print(",".join(cells))


def _cmd_analyze(args) -> int:
    state = _parse_state_arg(args.state, args.normalize)
    _print_analysis(_analysis(state), args.format)
    return 0


def _cmd_embed(args) -> int:
    correlated = make_correlated(
        _parse_complex_pair(args.mu),
        _parse_complex_pair(args.nu),
        _read_chi_file(args.chi1),
        _read_chi_file(args.chi2),
        normalize=True,
    )
    state = embed_correlated(correlated)
    out = {
        "alpha": [[a.real, a.imag] for a in state.alpha],
        "analysis": _analysis(state),
    }
    print(json.dumps(out, indent=1))
    return 0


def _cmd_sample(args) -> int:
    states = sample(SampleSpec(args.count, args.seed, args.ensemble, args.c))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        emit_dataset(states, args.format, fh)
    return 0


def _cmd_verify(args) -> int:
    report = verify_suite(args.count, args.seed, args.tolerance)
    if args.format == JSON_FORMAT:
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.passed else 1


def _cmd_shells(args) -> int:
    levels = [float(p) for p in args.levels.split(",") if p.strip()]
    if not levels:
        raise ValueError("--levels needs at least one concurrence value")
    n = args.count_per_level
    # States are drawn while the file is written, so every level, the count
    # per level and the seed are checked here, before --out is opened.
    specs = [SampleSpec(n, args.seed, FIXED_CONCURRENCE, level) for level in levels]

    def draw():
        # Level k occupies sample indices [k*N, (k+1)*N) of the seed's stream.
        for k, spec in enumerate(specs):
            for i in range(k * n, (k + 1) * n):
                yield fixed_concurrence_state(spec.seed, i, spec.c)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        emit_dataset(Samples(len(levels) * n, draw), args.format, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtriad",
        description=(
            "Wave/particle/entanglement triads of two-qubit pure states and "
            "their stereographic sphere/ball geometry."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one state given as 8 reals")
    p.add_argument(
        "--state",
        required=True,
        metavar="r0,i0,r1,i1,r2,i2,r3,i3",
        help="amplitudes over |0e>,|0f>,|1e>,|1f> as re,im pairs",
    )
    p.add_argument("--normalize", action="store_true", help="rescale to unit norm")
    p.add_argument("--format", choices=(JSON_FORMAT, CSV_FORMAT), default=JSON_FORMAT)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("embed", help="embed a correlated state and analyze it")
    p.add_argument("--mu", required=True, metavar="r,i", help="weight of the |0> branch")
    p.add_argument("--nu", required=True, metavar="r,i", help="weight of the |1> branch")
    p.add_argument("--chi1", required=True, help="file with one 're,im' per line")
    p.add_argument("--chi2", required=True, help="file with one 're,im' per line")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("sample", help="emit a seeded ensemble dataset")
    p.add_argument("--ensemble", choices=ENSEMBLES, default=HAAR)
    p.add_argument("--c", type=float, default=None, help="concurrence for fixedc")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=(CSV_FORMAT, JSON_FORMAT), default=CSV_FORMAT)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="uniform tolerance for all checks (default: per-check)",
    )
    p.add_argument("--format", choices=("text", JSON_FORMAT), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shells", help="fixed-concurrence shell dataset")
    p.add_argument("--levels", required=True, metavar="C1,C2,...")
    p.add_argument("--count-per-level", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=(CSV_FORMAT, JSON_FORMAT), default=CSV_FORMAT)
    p.set_defaults(func=_cmd_shells)

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Write ``--tolerance -1e-6`` as ``--tolerance=-1e-6`` (same for ``--c``).

    argparse takes a separate argument that starts with ``-`` for an option
    unless it looks like a plain negative number, so a negative value in
    exponent form would never reach the option; attached with ``=`` it does,
    and the command's own range check reports it.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and arg.startswith("-") and _is_float(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
