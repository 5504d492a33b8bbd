import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from qtriad import sampling
from qtriad.projection import ball_point
from qtriad.sampling import (
    FIXED_CONCURRENCE,
    HAAR,
    SEPARABLE,
    SampleSpec,
    fixed_concurrence_state,
    haar_state,
    sample,
    sample_fixed_concurrence,
    sample_haar,
    sample_separable,
    separable_state,
)
from qtriad.sampling import (
    _BLOCK,
    _LAYOUT,
    _accepted_normals,
    _assemble,
    _blocks,
    _draws,
    _philox_words,
    _stream,
    _substream,
    _uniforms,
)
from qtriad.states import (
    NORM_TOL,
    BlochAngles,
    TwoQubitState,
    bloch_state,
    concurrence,
    distinguishability,
    triad,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(0, 1, HAAR)
    with pytest.raises(ValueError):
        SampleSpec(1, -1, HAAR)
    with pytest.raises(ValueError):
        SampleSpec(1, 2**64, HAAR)
    with pytest.raises(ValueError):
        SampleSpec(1, 1, "uniform")
    with pytest.raises(ValueError):
        SampleSpec(1, 1, FIXED_CONCURRENCE)
    with pytest.raises(ValueError):
        SampleSpec(1, 1, FIXED_CONCURRENCE, 1.5)
    SampleSpec(1, 1, FIXED_CONCURRENCE, 0.5)


@pytest.mark.parametrize("count, seed", [
    (3, 1.5), (3, 1.0), (2.5, 1), (1.0, 1), ("3", 1), (3, "1"), (3, None),
])
def test_spec_rejects_non_integer_count_and_seed(count, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        SampleSpec(count, seed, HAAR)


BAD_C = ["0.5", 1 + 0j, 0.5j, None, float("nan"), math.inf, -1e-300, 1 + 2**-52,
         Fraction(10**400)]


@pytest.mark.parametrize("c", BAD_C)
def test_fixedc_spec_rejects_non_real_or_out_of_range_c(c):
    with pytest.raises(ValueError, match="fixedc requires a real concurrence"):
        SampleSpec(1, 1, FIXED_CONCURRENCE, c)


@pytest.mark.parametrize("c", BAD_C)
def test_fixed_concurrence_state_rejects_what_the_spec_rejects(c):
    with pytest.raises(ValueError, match="fixedc requires a real concurrence"):
        fixed_concurrence_state(0, 0, c)


@pytest.mark.parametrize("c", [0, 1, True, np.float64(0.3), np.int64(1), Fraction(1, 4), 0.5])
def test_fixedc_spec_stores_c_as_float(c):
    spec = SampleSpec(2, 1, FIXED_CONCURRENCE, c)
    assert type(spec.c) is float and spec.c == float(c)
    assert [s.alpha for s in sample(spec)] == [
        s.alpha for s in sample(SampleSpec(2, 1, FIXED_CONCURRENCE, float(c)))
    ]


@pytest.mark.parametrize("ensemble", [HAAR, SEPARABLE])
@pytest.mark.parametrize("c", ["junk", 0.5, 0, 1 + 0j])
def test_haar_and_separable_specs_take_no_c(ensemble, c):
    with pytest.raises(ValueError, match=f"{ensemble} takes no concurrence c"):
        SampleSpec(1, 1, ensemble, c)
    assert SampleSpec(1, 1, ensemble, None).c is None


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(5), np.uint8(0)])
def test_spec_accepts_numpy_integer_seeds(seed):
    spec = SampleSpec(np.int64(3), seed, HAAR)
    assert type(spec.count) is int and type(spec.seed) is int
    assert [s.alpha for s in sample(spec)] == [
        s.alpha for s in sample(SampleSpec(3, int(seed), HAAR))
    ]
    assert haar_state(seed, np.uint64(1)).alpha == haar_state(int(seed), 1).alpha


def test_same_seed_reproduces_states():
    spec = SampleSpec(50, 4242, HAAR)
    a = sample_haar(spec)
    b = sample_haar(spec)
    assert all(x.alpha == y.alpha for x, y in zip(a, b))


def test_different_seeds_differ():
    a = haar_state(1, 0)
    b = haar_state(2, 0)
    assert a.alpha != b.alpha


def test_sample_index_is_a_pure_function_of_seed_and_index():
    batch = sample_haar(SampleSpec(20, 7, HAAR))
    for i in (0, 3, 19):
        assert haar_state(7, i).alpha == batch[i].alpha
    # generating out of order or in parallel changes nothing
    shuffled = [haar_state(7, i) for i in (19, 3, 0)]
    assert [s.alpha for s in shuffled] == [batch[i].alpha for i in (19, 3, 0)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda i: haar_state(7, i), range(20)))
    assert [s.alpha for s in parallel] == [s.alpha for s in batch]


def test_per_index_functions_back_every_ensemble():
    sep = sample_separable(SampleSpec(10, 3, SEPARABLE))
    assert separable_state(3, 6).alpha == sep[6].alpha
    fc = sample_fixed_concurrence(SampleSpec(10, 3, FIXED_CONCURRENCE, 0.4))
    assert fixed_concurrence_state(3, 6, 0.4).alpha == fc[6].alpha


def test_haar_states_are_normalized():
    for s in sample_haar(SampleSpec(2000, 99, HAAR)):
        n = sum(abs(a) ** 2 for a in s.alpha)
        assert abs(n - 1.0) < 1e-12


def test_haar_mean_distinguishability_against_independent_sampler():
    # Independent route: QR-orthonormalized Ginibre unitary applied to |0e>.
    n = 10_000
    ours = sample_haar(SampleSpec(n, 11, HAAR))
    mean_ours = sum(distinguishability(s) for s in ours) / n

    rng = np.random.default_rng(12)
    total = 0.0
    for _ in range(n):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        amps = q[:, 0] * (r[0, 0] / abs(r[0, 0]))
        total += distinguishability(TwoQubitState(tuple(amps)))
    mean_oracle = total / n
    assert abs(mean_ours - mean_oracle) < 0.02
    # both should hover near the Haar mean of 3/8
    assert abs(mean_ours - 0.375) < 0.02


def test_separable_samples_have_zero_concurrence():
    for s in sample_separable(SampleSpec(2000, 5, SEPARABLE)):
        assert concurrence(s) < 1e-14


def test_fixed_concurrence_hits_target():
    for c in (0.0, 0.3, 0.6, 0.9, 1.0):
        spec = SampleSpec(300, 21, FIXED_CONCURRENCE, c)
        for s in sample_fixed_concurrence(spec):
            assert abs(concurrence(s) - c) < 1e-10


# Known defect: _schmidt_weights forms lambda2 as sqrt((1 - sqrt(1 - c^2)) / 2),
# and 1 - sqrt(1 - c^2) cancels at small c, so C's relative error grows as
# 2**-53 / c**2 (C is 0.0 at c = 1e-9 and off by 4.4e-5 relative at 1e-6).
@pytest.mark.xfail(strict=True, reason="lambda2 cancels at small c")
@pytest.mark.parametrize("c", [1e-9, 1e-6])
def test_schmidt_weights_keep_c_to_a_few_ulps_at_small_c(c):
    lam1, lam2 = sampling._schmidt_weights(c)
    assert abs(2.0 * lam1 * lam2 - c) <= 4 * math.ulp(c)


# C = 2|a1*a2 - a0*a3| of O(1) rotated amplitudes cancels too, by about one
# ulp of 1 whatever lambda2 is, so C can be held to a few ulps of 1, not of c.
@pytest.mark.xfail(strict=True, reason="lambda2 cancels at small c")
@pytest.mark.parametrize("c", [1e-9, 1e-6])
def test_fixed_concurrence_state_keeps_c_at_small_c(c):
    assert abs(concurrence(fixed_concurrence_state(1, 0, c)) - c) <= 4 * math.ulp(1.0)


def test_fixed_concurrence_shells():
    for s in sample_fixed_concurrence(SampleSpec(300, 8, FIXED_CONCURRENCE, 0.6)):
        assert abs(ball_point(s).radius - 0.8) < 1e-10
    for s in sample_fixed_concurrence(SampleSpec(300, 8, FIXED_CONCURRENCE, 1.0)):
        assert ball_point(s).radius < 1e-10


def test_fixed_concurrence_zero_is_separable():
    for s in sample_fixed_concurrence(SampleSpec(300, 13, FIXED_CONCURRENCE, 0.0)):
        assert concurrence(s) < 1e-10


def _ks_distance(xs, ys):
    # two-sample Kolmogorov-Smirnov statistic
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def test_haar_invariance_smoke():
    n = 10_000
    states = sample_haar(SampleSpec(n, 31, HAAR))
    # a fixed single-qubit rotation on the path qubit
    u = np.array(
        [[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]],
        dtype=complex,
    )
    rotated = []
    for s in states:
        psi = u @ np.array(s.alpha).reshape(2, 2)
        rotated.append(TwoQubitState(tuple(psi.reshape(4))))
    c0 = [concurrence(s) for s in states]
    c1 = [concurrence(s) for s in rotated]
    assert _ks_distance(c0, c1) <= 0.02
    d0 = [distinguishability(s) for s in states]
    d1 = [distinguishability(s) for s in rotated]
    assert _ks_distance(d0, d1) <= 0.02


def test_bloch_grid_spans_theta():
    # Product states on a theta grid over [0, pi] at phi = 0.
    states = [bloch_state(BlochAngles(min(i * (math.pi / 100), math.pi), 0.0)) for i in range(101)]
    assert triad(states[0]) == (0.0, 1.0, 0.0)
    v, d, c = triad(states[-1])
    assert abs(d - 1.0) < 1e-15 and v < 1e-15 and c == 0.0
    for s in states:
        v, d, c = triad(s)
        assert abs(v * v + d * d - 1.0) < 1e-14
        assert c < 1e-14


def test_bloch_grid_of_one_state_is_the_north_pole():
    # The grid's theta = 0 end.
    s = bloch_state(BlochAngles(0.0, 0.0))
    assert s.alpha == (1 + 0j, 0j, 0j, 0j)
    assert triad(s) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "sampler, ensemble",
    [(sample_haar, HAAR), (sample_separable, SEPARABLE), (sample_fixed_concurrence, FIXED_CONCURRENCE)],
)
def test_each_ensemble_sampler_rejects_another_ensemble(sampler, ensemble):
    for spec in (SampleSpec(3, 1, HAAR), SampleSpec(3, 1, SEPARABLE), SampleSpec(3, 1, FIXED_CONCURRENCE, 0.5)):
        if spec.ensemble == ensemble:
            assert len(sampler(spec)) == 3
        else:
            with pytest.raises(ValueError, match=f"^spec.ensemble must be '{ensemble}'$"):
                sampler(spec)


@pytest.mark.parametrize("count, message", [
    (2.5, "an integer"), ("3", "an integer"), (None, "an integer"), (0, "at least 1"),
    (-1, "at least 1"),
])
def test_bloch_grid_takes_the_count_rule_of_the_spec(count, message):
    with pytest.raises(ValueError, match=f"^count must be {message}$"):
        SampleSpec(count, 1, HAAR)


def test_sample_dispatch():
    assert len(sample(SampleSpec(5, 1, HAAR))) == 5
    assert len(sample(SampleSpec(5, 1, SEPARABLE))) == 5
    assert len(sample(SampleSpec(5, 1, FIXED_CONCURRENCE, 0.5))) == 5
    with pytest.raises(ValueError):
        SampleSpec(5, 1, "bloch")
    with pytest.raises(ValueError):
        sample_haar(SampleSpec(5, 1, SEPARABLE))


# ------------------------------------------------------------ batched stream

# Seeds and indices that exercise the mulhi carries, the key schedule's
# wraparound and both index words (2**64 - 1 and 2**64 sit in one block).
PHILOX_SEEDS = (0, 42, 2**64 - 1)
PHILOX_INDICES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
@pytest.mark.parametrize("index", PHILOX_INDICES)
def test_kernel_words_and_uniforms_match_numpy_philox(seed, index):
    steps = 9
    words = _philox_words(seed, index, 2, steps)
    uniforms = _uniforms(words)
    for row, i in enumerate((index, index + 1)):
        bitgen = np.random.Philox(key=seed, counter=i << 128)
        assert words[row].tolist() == bitgen.random_raw(4 * steps).tolist()
        gen = np.random.Generator(np.random.Philox(key=seed, counter=i << 128))
        assert uniforms[row].tolist() == gen.random(4 * steps).tolist()


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
@pytest.mark.parametrize("index", PHILOX_INDICES + (2**128 - 1,))
def test_reset_substream_matches_a_fresh_generator(seed, index):
    # A half-used buffer from the previous index must not leak into the next.
    _substream(seed, index ^ 1).random()
    fresh = np.random.Generator(np.random.Philox(key=seed, counter=index << 128))
    assert _substream(seed, index).random(40).tolist() == fresh.random(40).tolist()


def test_substream_rejects_out_of_range_seed_and_index():
    for seed, index in ((-1, 0), (2**64, 0), (2**128, 0), (0, -1), (0, 2**128)):
        with pytest.raises(ValueError):
            haar_state(seed, index)
    for seed, index in ((1.5, 0), (1.0, 0), (0, 2.0), ("1", 0)):
        with pytest.raises(ValueError, match="must be integers"):
            haar_state(seed, index)


def _fallback_rows(spec, start):
    # Indices whose first 16-uniform block(s) hold too few accepted pairs.
    steps, blocks, _ = _LAYOUT[spec.ensemble]
    u = _uniforms(_philox_words(spec.seed, start, spec.count, steps))
    ok, _ = _accepted_normals(u, blocks)
    return [start + r for r in np.flatnonzero(~ok).tolist()]


# (start, count) at seed 42: the first fixedc rows that fall short are 4987
# (second unitary), 5995 and 8708 (first unitary). 4987 opens the second
# block of its range and 5995 closes the first block of its range.
FIXEDC_RANGES = ((4987 - _BLOCK, 2 * _BLOCK), (5995 - _BLOCK + 1, _BLOCK + 1), (8600, 300))


@pytest.mark.parametrize("start, count", FIXEDC_RANGES)
def test_batched_fixedc_matches_per_index_across_fallback_rows(start, count):
    spec = SampleSpec(count, 42, FIXED_CONCURRENCE, 0.5)
    named = {4987, 5995, 8708} & set(range(start, start + count))
    assert named and named <= set(_fallback_rows(spec, start))
    batched = [s.alpha for s in _stream(spec, start)]
    assert batched == [
        fixed_concurrence_state(42, i, 0.5).alpha for i in range(start, start + count)
    ]


def _oracle_polar(gen, count):
    # The polar step of the four-call draw: 16 uniforms per call until
    # ``count`` normals are accepted.
    out = []
    while len(out) < count:
        block = gen.random(16).tolist()
        for j in range(0, 16, 2):
            x, y = 2.0 * block[j] - 1.0, 2.0 * block[j + 1] - 1.0
            s = x * x + y * y
            if 0.0 < s < 1.0 and len(out) < count:
                f = math.sqrt(-2.0 * math.log(s) / s)
                out += [x * f, y * f]
    return out


def _oracle_draw(seed, index):
    # U's normals, U's phase, W's normals, W's phase, each its own call on a
    # fresh generator at the index's counter block.
    gen = np.random.Generator(np.random.Philox(key=seed, counter=index << 128))
    u, u_phase = _oracle_polar(gen, 4), gen.random()
    w, w_phase = _oracle_polar(gen, 4), gen.random()
    return u, w, u_phase, w_phase


def _parts(alpha):
    # The parts' repr keeps every bit and tells 0.0 from -0.0.
    return [repr(z.real) + repr(z.imag) for z in alpha]


def _oracle_fixedc(draw, c):
    lam1, lam2 = sampling._schmidt_weights(c)
    return _parts(sampling._rotated_schmidt(sampling._SCALARS, lam1, lam2, *draw))


@pytest.mark.parametrize("seed", [42, 2**64 - 1])
def test_fixed_concurrence_state_matches_the_four_call_draw(seed):
    for index in range(3000):
        draw = _oracle_draw(seed, index)
        for c in (0.0, 0.5, 1.0):
            assert _parts(fixed_concurrence_state(seed, index, c).alpha) == _oracle_fixedc(
                draw, c
            ), (seed, index, c)


# At seed 42, whether U's and W's 16-uniform blocks each hold two accepted
# polar pairs: index 4987's W block falls short, and 5995's and 8708's U block.
FULL_BLOCKS = {4987: (True, False), 5995: (False, True), 8708: (False, True)}


@pytest.mark.parametrize("index", sorted(FULL_BLOCKS))
def test_fixed_concurrence_state_matches_the_four_call_draw_on_short_blocks(index):
    u = _uniforms(_philox_words(42, index, 1, 9))
    blocks = _LAYOUT[FIXED_CONCURRENCE][1]
    full = tuple(bool(_accepted_normals(u[:, at:], ((0, 2),))[0][0]) for at, _ in blocks)
    assert full == FULL_BLOCKS[index]
    draw = _oracle_draw(42, index)
    for c in (0.0, 0.5, 1.0):
        assert _parts(fixed_concurrence_state(42, index, c).alpha) == _oracle_fixedc(draw, c)


class _CountingGenerator:
    # Records the size of each ``random`` call of the generator it wraps.

    def __init__(self, gen, calls):
        self._gen, self._calls = gen, calls

    def random(self, size=None):
        self._calls.append(size)
        return self._gen.random() if size is None else self._gen.random(size)


@pytest.mark.parametrize("index, calls", [
    (0, [[34]]),
    # U's block is short: U draws a second block, and W draws on from there.
    (5995, [[34], [16, 16, None, 16, None]]),
    # W's block is short.
    (4987, [[34], [16, None, 16, 16, None]]),
])
def test_fixed_concurrence_state_draws_once_unless_a_block_is_short(monkeypatch, index, calls):
    seen = []
    substream = sampling._substream

    def counting(seed, i):
        seen.append([])
        return _CountingGenerator(substream(seed, i), seen[-1])

    monkeypatch.setattr(sampling, "_substream", counting)
    fixed_concurrence_state(42, index, 0.5)
    assert seen == calls


@pytest.mark.parametrize("ensemble, per_index", [(HAAR, haar_state), (SEPARABLE, separable_state)])
@pytest.mark.parametrize("start, count", [(0, 2100), (2**64 - 150, 300)])
def test_batched_stream_matches_per_index(ensemble, per_index, start, count):
    spec = SampleSpec(count, 42, ensemble)
    assert _fallback_rows(spec, start)
    batched = [s.alpha for s in _stream(spec, start)]
    assert batched == [per_index(42, i).alpha for i in range(start, start + count)]


# (start, count) at seed 42 per draw layout. haar and separable draw alike,
# and so do all fixedc levels, so their rows fall back at the same indices.
# The first two ranges start off a _BLOCK boundary and hold fallback rows:
# 85 (haar, separable) and 5995 and 4987 (fixedc). From 2**64 - 3 the index
# carries into the high counter word.
BLOCK_RANGES = {
    HAAR: ((85, 1), (37, _BLOCK), (2**64 - 3, _BLOCK + 1)),
    FIXED_CONCURRENCE: ((5995, 1), (4987 - 100, _BLOCK), (2**64 - 3, _BLOCK + 1)),
}


@pytest.mark.parametrize("ensemble, c, per_index", [
    (HAAR, None, haar_state),
    (SEPARABLE, None, separable_state),
    (FIXED_CONCURRENCE, 0.0, partial(fixed_concurrence_state, c=0.0)),
    (FIXED_CONCURRENCE, 0.5, partial(fixed_concurrence_state, c=0.5)),
    (FIXED_CONCURRENCE, 1.0, partial(fixed_concurrence_state, c=1.0)),
])
@pytest.mark.parametrize("case", range(3))
def test_blocks_match_per_index_bit_for_bit(ensemble, c, per_index, case):
    start, count = BLOCK_RANGES[FIXED_CONCURRENCE if c is not None else HAAR][case]
    spec = SampleSpec(count, 42, ensemble, c)
    if case < 2:
        assert start % _BLOCK and _fallback_rows(spec, start)
    blocks = list(_blocks(spec, start))
    assert [len(b) for b in blocks] == [_BLOCK] * (count // _BLOCK) + [count % _BLOCK] * (
        count % _BLOCK > 0
    )
    rows = np.concatenate(blocks)
    expected = [per_index(42, i).alpha for i in range(start, start + count)]
    # The parts' repr keeps every bit and tells 0.0 from -0.0.
    assert [[repr(z.real) + repr(z.imag) for z in row] for row in rows.tolist()] == [
        [repr(z.real) + repr(z.imag) for z in row] for row in expected
    ]


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_separable_blocks_assemble_from_the_haar_draws(seed):
    # verify checks both ensembles on one draw per block: haar's. That holds
    # only while the two draw alike, and then the separable blocks assembled
    # from haar's draws are the separable stream's own.
    assert _LAYOUT[HAAR] == _LAYOUT[SEPARABLE]
    count = 2 * _BLOCK + 100
    haar, separable = SampleSpec(count, seed, HAAR), SampleSpec(count, seed, SEPARABLE)
    assert _fallback_rows(separable, 0)
    shared = np.concatenate([_assemble(separable, draw) for draw in _draws(haar)])
    own = np.concatenate(list(_blocks(separable)))
    # The parts' repr keeps every bit and tells 0.0 from -0.0.
    assert [[repr(z.real) + repr(z.imag) for z in row] for row in shared.tolist()] == [
        [repr(z.real) + repr(z.imag) for z in row] for row in own.tolist()
    ]


@pytest.mark.parametrize("nudge, raises", [(1.01, True), (-1.01, True), (0.99, False)])
def test_blocks_gate_each_row_like_two_qubit_state(monkeypatch, nudge, raises):
    # One row of the second block off unit norm by nudge * NORM_TOL / 8.
    pack = sampling._pack
    calls = []

    def nudged(*amplitudes):
        alpha = pack(*amplitudes)
        calls.append(None)
        if len(calls) == 2:
            alpha[3] *= 1.0 + nudge * NORM_TOL / 8
        return alpha

    monkeypatch.setattr(sampling, "_pack", nudged)
    spec = SampleSpec(3 * _BLOCK, 42, HAAR)
    blocks = _blocks(spec)
    next(blocks)
    if raises:
        with pytest.raises(ValueError, match=r"^amplitudes are not normalized: \|amp\| = "):
            next(blocks)
    else:
        assert len(next(blocks)) == _BLOCK
    # ``sample`` draws through the same blocks and meets the same gate.
    calls.clear()
    if raises:
        with pytest.raises(ValueError, match=r"^amplitudes are not normalized: \|amp\| = "):
            list(sample(spec))
    else:
        states = list(sample(spec))
        assert len(states) == 3 * _BLOCK
        assert states[_BLOCK + 3] == TwoQubitState(states[_BLOCK + 3].alpha)


# Per ensemble, a range that starts off a _BLOCK boundary and holds a
# fallback row (see BLOCK_RANGES), and a spec whose stream from 0 does.
GATED_RANGES = [
    (SampleSpec(_BLOCK, 42, HAAR), 37, 86),
    (SampleSpec(_BLOCK, 42, SEPARABLE), 37, 86),
    (SampleSpec(_BLOCK, 42, FIXED_CONCURRENCE, 0.5), 4987 - 100, 4988),
]


@pytest.mark.parametrize("spec, start, first_count", GATED_RANGES)
def test_streamed_states_equal_gated_states(spec, start, first_count):
    first = SampleSpec(first_count, spec.seed, spec.ensemble, spec.c)
    assert _fallback_rows(spec, start) and _fallback_rows(first, 0)
    for states in (list(_stream(spec, start)), list(sample(first))):
        for s in states:
            gated = TwoQubitState(s.alpha)
            assert s == gated and hash(s) == hash(gated)
            assert type(s.alpha) is tuple and len(s.alpha) == 4
            assert all(type(z) is complex for z in s.alpha)


def test_sample_is_lazy(deadline):
    states = sample(SampleSpec(10**15, 1, HAAR))
    assert len(states) == 10**15
    first = [s.alpha for s in itertools.islice(states, 3)]
    assert first == [haar_state(1, i).alpha for i in range(3)]
    # Each pass draws the states afresh.
    assert [s.alpha for s in itertools.islice(states, 3)] == first
