import tracemalloc

import numpy as np
import pytest
from conftest import lattice_lowpass
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavekit import cascade, errors
from wavekit.cascade import (
    DyadicFunction,
    integer_values,
    refine,
    refinement_matrix,
    scaling_function,
    wavelet_function,
)
from wavekit.errors import (
    DegeneracyError,
    ParameterError,
    PreconditionError,
    SizeError,
)
from wavekit.filters import FilterSpec, builtin_filter, derive_highpass

SQRT3 = np.sqrt(3.0)

#: Filters beyond the orthogonal lattice family, cascaded with
#: experimental=True: the odd-length cubic B-spline, whose wavelet starts at a
#: half integer, and a complex filter.
EXPERIMENTAL_FILTERS = (
    np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16,
    np.array([1 + 1j, 3 + 1j, 3 - 1j, 1 - 1j]) / 8,
)


def masked_two_scale_eval(
    c: np.ndarray, c_start: int, phi: DyadicFunction, x_first: float, count: int
) -> np.ndarray:
    """Reference tap-by-tap evaluation: out[m] = 2 sum_t c_t phi(2 x_m -
    c_start - t) at x_m = x_first + m/2^J, J = phi.level; each argument is
    phi's grid point base + 2m - t 2^J, and phi reads as zero off its grid."""
    per_unit = 1 << phi.level
    base = round((2.0 * x_first - c_start - phi.x0) * per_unit)
    q0 = base + 2 * np.arange(count)
    out = np.zeros(count, dtype=np.result_type(phi.values.dtype, c.dtype))
    for t in range(c.size):
        q = q0 - t * per_unit
        ok = (q >= 0) & (q < phi.values.size)
        if np.any(ok):
            out[ok] += 2.0 * c[t] * phi.values[q[ok]]
    return out


def two_scale_residual(
    d: DyadicFunction, f: FilterSpec, phi: DyadicFunction | None = None
) -> float:
    """Independent check of d(x) = 2 sum_i h_i phi(2x - i) on d's own grid,
    with h the taps of f and phi = d unless given (a level-J function).

    2x - i lands on phi's grid at index 2m - (i - start) * 2^J plus
    (2 d.x0 - start - phi.x0) * 2^J; indices outside the support read as zero.
    """
    phi = d if phi is None else phi
    J = d.level
    vals = d.values
    offset = round((2 * d.x0 - f.start - phi.x0) * (1 << J))
    worst = 0.0
    for m in range(vals.size):
        acc = 0.0
        for t in range(f.length):
            q = offset + 2 * m - t * (1 << J)
            if 0 <= q < phi.values.size:
                acc += 2.0 * f.h[t] * phi.values[q]
        worst = max(worst, abs(vals[m] - acc))
    return worst


def test_refinement_matrix_haar():
    T = refinement_matrix(builtin_filter("haar"))
    assert T.shape == (1, 1)
    assert T[0, 0] == 1.0


def test_refinement_matrix_db4():
    f = builtin_filter("db4")
    T = refinement_matrix(f)
    assert T.shape == (3, 3)
    # row for lattice point 1: 2 h_{2-j} over j = 0, 1, 2
    assert_allclose(T[1], 2.0 * np.array([f.h[2], f.h[1], f.h[0]]), atol=0)
    # columns of an eigenvalue-1 stochastic-like matrix sum to 2 sum h = 2
    # only where the full tap set lands inside; just pin the spectrum instead
    eigs = np.sort_complex(np.linalg.eigvals(T))
    assert any(abs(e - 1.0) < 1e-12 for e in eigs)


def test_integer_values_haar():
    v = integer_values(builtin_filter("haar"))
    assert_allclose(v, [1.0, 0.0], atol=1e-14)


def test_integer_values_db4_closed_form():
    """Nonzero integer samples are (1+sqrt(3))/2 at x=1 and (1-sqrt(3))/2 at
    x=2; the endpoints vanish."""
    v = integer_values(builtin_filter("db4"))
    expected = np.array([0.0, (1 + SQRT3) / 2, (1 - SQRT3) / 2, 0.0])
    assert_allclose(v, expected, atol=1e-10)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)


def test_integer_values_degenerate_filter():
    with pytest.raises(DegeneracyError) as exc:
        integer_values(builtin_filter("stretched_haar"))
    assert exc.value.dimension == 2


@pytest.mark.parametrize(
    "h, start",
    [
        ((0.5, 0.5, 0.0, 0.0), 0),
        ((0.0, 0.5, 0.5, 0.0), -1),
        ((0.0, 0.0, 0.5, 0.5), 1),
        ((0.5, 0.5, 6e-17, -6e-17), 0),
    ],
)
def test_haar_padded_with_zero_taps_is_the_box(h, start):
    """Zero end taps (or taps the eigenvalue-1 rule cannot resolve) leave
    haar's box, on [a, a + 1) for the first haar tap a: the integer values
    are 1 at a and 0 at the other L - 1 points, and so are the samples."""
    f = FilterSpec("padded", np.array(h), start)
    first = int(np.flatnonzero(f.h == 0.5)[0])
    assert_allclose(integer_values(f), np.eye(4)[first], atol=1e-15)
    phi = scaling_function(f, 3)
    a = start + first
    assert_allclose(phi.values, (phi.xs >= a) & (phi.xs < a + 1), atol=1e-15)
    assert two_scale_residual(phi, f) <= 1e-15


def test_delta_filter_keeps_dimension_zero():
    with pytest.raises(DegeneracyError) as exc:
        integer_values(FilterSpec("delta", np.array([1.0, 0.0])), experimental=True)
    assert exc.value.dimension == 0


def test_non_qmf_filter_needs_experimental_flag():
    hat = FilterSpec("hat", np.array([0.25, 0.5, 0.25]), 0)
    with pytest.raises(PreconditionError):
        integer_values(hat)
    v = integer_values(hat, experimental=True)
    # the linear B-spline: 0 at the endpoints, 1 at the middle
    assert_allclose(v, [0.0, 1.0, 0.0], atol=1e-12)


def test_integer_values_cubic_bspline():
    bspline = FilterSpec("bspline3", np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16, 0)
    v = integer_values(bspline, experimental=True)
    assert_allclose(v, [0.0, 1 / 6, 2 / 3, 1 / 6, 0.0], atol=1e-12)


@pytest.mark.parametrize("start", (0, -3))
def test_cascade_on_lattice_filters(lattice_filters, start):
    """On generated orthogonal filters the integer values sum to 1 and are a
    fixed point of the lattice matrix to 1e-13, and the scaling function and
    the wavelet satisfy their two-scale identities at J = 3."""
    for h in lattice_filters:
        f = FilterSpec("lattice", h, start)
        v = integer_values(f)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(refinement_matrix(f) @ v[:-1] - v[:-1]).max() <= 1e-13
        phi = scaling_function(f, 3)
        assert two_scale_residual(phi, f) <= 1e-12
        psi = wavelet_function(f, 3)
        assert two_scale_residual(psi, derive_highpass(f), phi) <= 1e-12


def test_refine_haar_box():
    f = builtin_filter("haar")
    d0 = scaling_function(f, 0)
    assert_allclose(d0.values, [1.0, 0.0], atol=1e-14)
    d2 = scaling_function(f, 2)
    # half-open box: ones everywhere except the right endpoint
    assert_allclose(d2.values, [1, 1, 1, 1, 0], atol=1e-14)
    assert d2.step == 0.25
    assert_allclose(d2.xs, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_refine_validates_grid_size():
    f = builtin_filter("db4")
    bad = DyadicFunction(x0=0.0, level=0, values=np.ones(5))
    with pytest.raises(SizeError):
        refine(bad, f)


@pytest.mark.parametrize("level", [-1, -30])
def test_dyadic_function_refuses_a_negative_level(level):
    with pytest.raises(ParameterError, match="nonnegative"):
        DyadicFunction(x0=0.0, level=level, values=np.ones(3))


def test_refinement_matrix_needs_two_taps():
    with pytest.raises(SizeError):
        refinement_matrix(FilterSpec("one", np.array([1.0]), 0, normalized=True))


def test_scaling_function_resolution_validation():
    f = builtin_filter("haar")
    with pytest.raises(ParameterError):
        scaling_function(f, -1)
    with pytest.raises(ParameterError):
        scaling_function(f, 2.5)


@pytest.mark.parametrize("resolution", (0, 1, 3, 6))
def test_two_scale_identity_exact_db4(resolution):
    f = builtin_filter("db4")
    phi = scaling_function(f, resolution)
    assert two_scale_residual(phi, f) <= 1e-10


def test_grid_metadata_db4():
    f = builtin_filter("db4")
    phi = scaling_function(f, 5)
    assert phi.x0 == 0.0
    assert phi.level == 5
    assert phi.values.size == 3 * 32 + 1
    assert phi.values[-1] == 0.0
    assert phi.kind == "phi"


@pytest.mark.parametrize("name", ("haar", "db4"))
def test_riemann_integral_one(name):
    phi = scaling_function(builtin_filter(name), 6)
    assert phi.riemann_integral() == pytest.approx(1.0, abs=1e-6)


def test_refinement_keeps_existing_samples():
    f = builtin_filter("db4")
    phi5 = scaling_function(f, 5)
    phi6 = refine(phi5, f)
    assert_allclose(phi6.values[0::2], phi5.values, atol=0)


def test_shift_orthonormality_db4():
    """Riemann sums of phi(x) phi(x - k) approximate delta_{k,0}; the grid
    error at 2^-8 spacing stays within 2e-3."""
    f = builtin_filter("db4")
    phi = scaling_function(f, 8)
    v = phi.values
    step = phi.step
    n_shift = 1 << 8
    for k in (0, 1, 2):
        shifted = np.zeros_like(v)
        if k == 0:
            shifted = v
        else:
            shifted[k * n_shift:] = v[: v.size - k * n_shift]
        ip = float((v * shifted).sum() * step)
        assert ip == pytest.approx(1.0 if k == 0 else 0.0, abs=2e-3)


def test_wavelet_haar_square_wave():
    psi = wavelet_function(builtin_filter("haar"), 1)
    assert psi.x0 == 0.0
    assert psi.kind == "psi"
    assert_allclose(psi.values, [1.0, -1.0, 0.0], atol=1e-14)


def test_wavelet_support_and_zero_mean_db4():
    f = builtin_filter("db4")
    psi = wavelet_function(f, 7)
    assert psi.x0 == -1.0
    assert psi.xs[-1] == pytest.approx(2.0)
    assert abs(psi.riemann_integral()) < 1e-10
    # same sample count as the scaling function at equal resolution
    assert psi.values.size == scaling_function(f, 7).values.size


def test_wavelet_unit_norm_db4():
    psi = wavelet_function(builtin_filter("db4"), 9)
    norm_sq = float((psi.values**2).sum() * psi.step)
    assert norm_sq == pytest.approx(1.0, abs=2e-3)


def test_wavelet_orthogonal_to_scaling_db4():
    f = builtin_filter("db4")
    J = 8
    phi = scaling_function(f, J)
    psi = wavelet_function(f, J)
    # overlap of supports: phi on [0,3], psi on [-1,2]; integrate over [0,2]
    step = phi.step
    n = 1 << J
    phi_part = phi.values[: 2 * n + 1]
    psi_part = psi.values[n:]
    ip = float((phi_part * psi_part).sum() * step)
    assert abs(ip) < 2e-3


def test_cascade_values_real_for_real_filters():
    for name in ("haar", "db4"):
        phi = scaling_function(builtin_filter(name), 4)
        assert not np.iscomplexobj(phi.values)


@settings(max_examples=60)
@given(which=st.integers(0, 41), level=st.integers(0, 6), start=st.integers(-3, 3))
@example(which=40, level=0, start=0)
@example(which=40, level=5, start=-2)
@example(which=41, level=0, start=1)
@example(which=41, level=4, start=0)
def test_row_products_match_the_masked_loop(lattice_filters, which, level, start):
    """refine and wavelet_function agree with the tap-by-tap loop to 1e-13 of
    max |values| on lattice filters, the odd-length B-spline and a complex
    filter; refine keeps its input bit for bit, the wavelet reads phi's even
    samples, which are the level below bit for bit, and both satisfy their
    two-scale identities."""
    h = (*lattice_filters, *EXPERIMENTAL_FILTERS)[which]
    experimental = which >= len(lattice_filters)
    f = FilterSpec("f", h, start)
    phi = scaling_function(f, level, experimental)

    finer = refine(phi, f)
    midpoints = masked_two_scale_eval(
        f.h, f.start, phi, phi.x0 + phi.step / 2, phi.values.size - 1
    )
    assert np.array_equal(finer.values[0::2], phi.values)
    assert np.abs(finer.values[1::2] - midpoints).max() <= 1e-13 * np.abs(finer.values).max()
    assert two_scale_residual(finer, f) <= 1e-12

    g = derive_highpass(f)
    psi = wavelet_function(f, level, experimental)
    reference = masked_two_scale_eval(g.h, g.start, phi, psi.x0, phi.values.size)
    assert psi.x0 == (2.0 - f.length) / 2 and psi.values.dtype == reference.dtype
    assert np.abs(psi.values - reference).max() <= 1e-13 * np.abs(reference).max()
    if level > 0:
        coarser = scaling_function(f, level - 1, experimental)
        assert np.array_equal(phi.values[0::2], coarser.values)
    assert two_scale_residual(psi, g, phi) <= 1e-12


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30)
@given(which=st.integers(0, 44), level=st.integers(0, 10), start=st.integers(-3, 3))
@example(which=0, level=0, start=0)
@example(which=39, level=10, start=-3)
@example(which=41, level=10, start=2)
@example(which=43, level=1, start=3)
@example(which=44, level=10, start=0)
def test_the_cascade_loop_matches_successive_refine_calls(
    lattice_filters, complex_lattice_filters, which, level, start
):
    """scaling_function refines on bare arrays; its values are, bit for bit,
    those of level successive public refine calls from the integer values,
    and wavelet_function's are the wavelet rule on the phi those calls give
    one level down, over lattice filters, complex lattice filters, the
    odd-length B-spline and a complex experimental filter."""
    h = (*lattice_filters, *complex_lattice_filters, *EXPERIMENTAL_FILTERS)[which]
    experimental = which >= len(lattice_filters) + len(complex_lattice_filters)
    f = FilterSpec("f", h, start)
    by_refine = [DyadicFunction(f.start, 0, integer_values(f, experimental))]
    for _ in range(level):
        by_refine.append(refine(by_refine[-1], f))
    phi = scaling_function(f, level, experimental)
    assert (phi.x0, phi.level, phi.kind) == (f.start, level, "phi")
    assert same_bits(phi.values, by_refine[level].values)

    below = by_refine[max(level - 1, 0)]
    x0, count = cascade._level_grid(f, level, "psi")
    reference = cascade._two_scale_eval(derive_highpass(f), below.values, below.level, below.x0, x0, count, level)
    psi = wavelet_function(f, level, experimental)
    assert (psi.x0, psi.level, psi.kind) == (x0, level, "psi")
    assert same_bits(psi.values, reference)


def test_refine_refuses_a_wavelet():
    """A psi satisfies the wavelet identity, not the scaling one, so refining
    it would give wrong midpoints; a DyadicFunction built without a kind is a
    scaling function and stays refinable."""
    haar = builtin_filter("haar")
    with pytest.raises(ParameterError, match="kind 'psi'"):
        refine(wavelet_function(haar, 1), haar)
    built = DyadicFunction(0.0, 1, scaling_function(haar, 1).values)
    assert np.array_equal(refine(built, haar).values, scaling_function(haar, 2).values)


def test_refine_refuses_phi_off_the_filter_lattice():
    """A phi whose grid does not start at the filter's start is refused
    before any arithmetic, not refined into wrong midpoints."""
    f = builtin_filter("db4")
    phi = scaling_function(f, 3)
    moved = DyadicFunction(phi.x0 + 5, phi.level, phi.values)
    with pytest.raises(ParameterError, match="lattice"):
        refine(moved, f)
    shifted = FilterSpec("db4", f.h, f.start - 1)
    with pytest.raises(ParameterError, match="lattice"):
        refine(phi, shifted)


@pytest.mark.parametrize("build", (scaling_function, wavelet_function))
def test_cascade_over_byte_budget_is_refused(monkeypatch, build):
    """The (L-1) 2^J + 1 grid is charged _CASCADE_CHARGE samples each before
    anything is refined; a grid over the budget raises SizeError."""
    f = builtin_filter("db4")
    charge = cascade._CASCADE_CHARGE * 8
    monkeypatch.setattr(errors, "_BYTE_BUDGET", (3 * 2**5 + 1) * charge)
    assert build(f, 5).values.size == 3 * 2**5 + 1
    with pytest.raises(SizeError, match="resolution 6"):
        build(f, 6)
    complex_f = FilterSpec("c", EXPERIMENTAL_FILTERS[1])
    with pytest.raises(SizeError, match="resolution 5"):
        build(complex_f, 5, experimental=True)
    with pytest.raises(SizeError, match="resolution 60"):
        build(f, np.int64(60))


@pytest.mark.parametrize(
    "argv",
    (
        ["cascade", "--filter", "db4", "--resolution", "6", "--out", "x.csv"],
        ["cwt", "--in", "x.csv", "--wavelet", "cascade:db4:6", "--scales", "2:8:2"],
    ),
)
def test_cli_cascade_over_byte_budget_exits_two(monkeypatch, capsys, tmp_path, argv):
    from wavekit.cli import main
    from wavekit.io import write_signal_csv

    monkeypatch.chdir(tmp_path)
    write_signal_csv("x.csv", np.sin(np.arange(64.0)))
    monkeypatch.setattr(errors, "_BYTE_BUDGET", 1 << 12)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cascade at resolution 6 needs about")
    assert len(err.splitlines()) == 1


def test_scaling_function_peak_memory_within_budget_formula():
    """The tracemalloc peak of a length-20 cascade at J = 12 stays under the
    _CASCADE_CHARGE samples per grid sample that the byte budget charges."""
    free = np.random.default_rng(20).uniform(0.0, 2.0 * np.pi, size=9)
    f = FilterSpec("lattice20", lattice_lowpass(np.append(free, np.pi / 4 - free.sum())))
    assert f.length == 20
    scaling_function(f, 12)
    tracemalloc.start()
    try:
        scaling_function(f, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cascade._CASCADE_CHARGE * (19 * 2**12 + 1) * 8


def test_cascade_grid_gate_at_the_budget():
    """At 1 GiB the grid gate accepts haar at J = 24 and refuses it at
    J = 25 (4 float64 samples each of 2^25 + 1 is 2^30 + 32 bytes), and
    refuses db4 and stretched_haar at J = 24. A resolution far past float
    range is refused the same way, never formatted as a sample count."""
    assert cascade._checked_grid(builtin_filter("haar"), 24) == 24
    for name, J in (("haar", 25), ("db4", 24), ("stretched_haar", 24)):
        with pytest.raises(SizeError, match=f"^cascade at resolution {J} needs about"):
            cascade._checked_grid(builtin_filter(name), J)
    for J in (10**6, 10**30):
        with pytest.raises(SizeError, match=f"^cascade at resolution {J} needs about inf MiB"):
            scaling_function(builtin_filter("db4"), J)
