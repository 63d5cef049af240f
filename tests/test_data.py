import gzip

import numpy as np
import pytest

from covest.bounds import effective_rank
from covest.data import (
    EmpiricalSource,
    SyntheticModel,
    build_empirical_source,
    load_idx,
    make_spiked_model,
)
from covest.linalg import psd_sqrt_factor, spectral_norm
from covest.sampling import child_rng

from helpers import idx_bytes, outputs_at_blas_threads


def test_spiked_model_spectrum_exact():
    model = make_spiked_model(8, 2, 25.0)
    w = np.linalg.eigvalsh(model.sigma)
    assert np.array_equal(w, np.array([1.0] * 6 + [25.0] * 2))
    assert np.array_equal(model.sigma, np.diag(np.diag(model.sigma)))


def test_spiked_model_effective_rank():
    # one spike of 100 among ten coordinates: trace 109 over top 100
    model = make_spiked_model(10, 1, 100.0)
    assert effective_rank(model.sigma) == pytest.approx(1.09)


def test_noise_floor_shifts_effective_rank():
    base = make_spiked_model(12, 2, 40.0).base_cov
    theta = 0.5
    model = SyntheticModel(base, theta=theta)
    expected = (effective_rank(base) + 12 * theta) / (1 + theta)
    assert effective_rank(model.sigma) == pytest.approx(expected, abs=1e-12)


def test_spiked_model_seed_controls_placement():
    a = make_spiked_model(20, 3, 9.0, seed=1)
    b = make_spiked_model(20, 3, 9.0, seed=1)
    c = make_spiked_model(20, 3, 9.0, seed=2)
    assert np.array_equal(a.sigma, b.sigma)
    assert not np.array_equal(a.sigma, c.sigma)


def test_spiked_model_errors():
    with pytest.raises(ValueError):
        make_spiked_model(5, 0, 10.0)
    with pytest.raises(ValueError):
        make_spiked_model(5, 6, 10.0)
    with pytest.raises(ValueError):
        make_spiked_model(5, 1, 0.5)
    with pytest.raises(ValueError, match="theta"):  # built a NaN sigma
        make_spiked_model(5, 1, 10.0, theta=np.nan)


def test_synthetic_model_errors():
    with pytest.raises(ValueError):
        SyntheticModel(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SyntheticModel(np.eye(2), theta=-0.1)
    with pytest.raises(ValueError):
        SyntheticModel(np.zeros((2, 2)))
    for theta in (np.nan, np.inf):  # each built a non-finite sigma
        with pytest.raises(ValueError, match="theta"):
            SyntheticModel(np.eye(2), theta=theta)


def test_factor_reproduces_sigma():
    model = make_spiked_model(7, 2, 12.0, theta=0.3, seed=4)
    assert np.abs(model.factor @ model.factor.T - model.sigma).max() <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_diagonal_factor_draw_matches_dense_product(seed):
    model = make_spiked_model(40, 3, 50.0, theta=1 / 16, seed=seed)
    factor = psd_sqrt_factor(model.sigma)
    assert np.array_equal(model.factor, factor)
    assert model.base_spectral_norm == spectral_norm(model.base_cov)
    drawn = model.stream(child_rng(seed, 1)).draw(25)
    expected = child_rng(seed, 1).standard_normal((25, 40)) @ factor.T
    assert np.array_equal(drawn, expected)


def test_diagonal_model_clamps_and_rejects_like_eigh():
    # a dip within the tolerance is clamped to zero, as psd_sqrt_factor does
    base = np.diag([4.0, 1.0, -1e-12])
    assert np.array_equal(SyntheticModel(base).factor, psd_sqrt_factor(base))
    with pytest.raises(ValueError, match="positive semidefinite") as diagonal:
        SyntheticModel(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="positive semidefinite") as dense:
        psd_sqrt_factor(np.diag([1.0, -1.0]))
    assert str(diagonal.value) == str(dense.value)


def test_dense_model_draws_through_its_factor():
    base = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = SyntheticModel(base, theta=0.1)
    drawn = model.stream(child_rng(4)).draw(6)
    assert np.array_equal(drawn, child_rng(4).standard_normal((6, 2)) @ model.factor.T)


def test_synthetic_model_rejects_non_finite_base():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SyntheticModel(np.diag([1.0, bad]))


def test_stream_covariance_matches_sigma():
    model = make_spiked_model(4, 1, 9.0, theta=0.25, seed=2)
    total = 100_000
    xs = model.stream(child_rng(3)).draw(total)
    emp = xs.T @ xs / total
    d = np.diag(model.sigma)
    se = np.sqrt((np.outer(d, d) + model.sigma**2) / total)
    assert np.all(np.abs(emp - model.sigma) <= 5 * se)


def test_stream_reproducible_and_stateful():
    model = make_spiked_model(5, 1, 4.0)
    a = model.stream(child_rng(7)).draw(6)
    b = model.stream(child_rng(7)).draw(6)
    assert np.array_equal(a, b)
    s = model.stream(child_rng(7))
    assert not np.array_equal(s.draw(6), s.draw(6))


def test_empirical_source_centers_and_matches_moments():
    rng = child_rng(11)
    records = rng.normal(size=(40, 3)) * np.array([3.0, 1.0, 0.5])
    source = EmpiricalSource(records)
    assert np.abs(source.records.mean(axis=0)).max() <= 1e-12
    assert np.abs(source.base_cov - source.records.T @ source.records / 40).max() <= 1e-15
    assert np.array_equal(source.sigma, source.base_cov)
    assert source.size == 40 and source.dim == 3


@pytest.mark.parametrize("kind", ["diagonal", "dense", "empirical"])
def test_sources_record_the_top_eigenvalue_of_sigma(kind):
    rng = child_rng(12)
    if kind == "diagonal":
        source = make_spiked_model(9, 2, 7.0, theta=0.3, seed=2)
    elif kind == "dense":
        a = rng.normal(size=(9, 9))
        source = SyntheticModel((a + a.T) / 2, theta=1.5)  # an indefinite base
    else:
        source = EmpiricalSource(rng.normal(size=(30, 9)), theta=0.3)
    top = np.linalg.eigvalsh(source.sigma)[-1]
    assert source.top_eigenvalue == pytest.approx(top, rel=36 * np.finfo(float).eps)


def test_empirical_epoch_is_a_permutation():
    rng = child_rng(12)
    records = rng.normal(size=(15, 4))
    source = EmpiricalSource(records)
    drawn = source.stream(child_rng(13)).draw(15)
    order = np.lexsort(drawn.T)
    ref = np.lexsort(source.records.T)
    assert np.array_equal(drawn[order], source.records[ref])
    emp = drawn.T @ drawn / 15
    assert np.abs(emp - source.base_cov).max() <= 1e-10


def test_empirical_epoch_crossing():
    records = np.arange(12, dtype=float).reshape(6, 2)
    source = EmpiricalSource(records)
    drawn = source.stream(child_rng(14)).draw(9)
    assert drawn.shape == (9, 2)
    # the first full pass visits every record once
    counts = {tuple(row) for row in drawn[:6]}
    assert len(counts) == 6
    # every drawn row is one of the centered records
    pool = {tuple(row) for row in source.records}
    assert all(tuple(row) in pool for row in drawn)


def test_empirical_noise_floor():
    rng = child_rng(15)
    records = rng.normal(size=(25, 3)) * np.array([2.0, 1.0, 0.5])
    source = EmpiricalSource(records, theta=0.4)
    assert source.noise_scale == pytest.approx(np.sqrt(0.4 * source.base_spectral_norm))
    total = 60_000
    xs = source.stream(child_rng(16)).draw(total)
    emp = xs.T @ xs / total
    d = np.diag(source.sigma)
    se = np.sqrt((np.outer(d, d) + source.sigma**2) / total)
    assert np.all(np.abs(emp - source.sigma) <= 6 * se)


def test_empirical_source_errors():
    with pytest.raises(ValueError):
        EmpiricalSource(np.ones((1, 3)))
    with pytest.raises(ValueError):
        EmpiricalSource(np.ones(5))
    with pytest.raises(ValueError):
        EmpiricalSource(np.ones((4, 3)))  # identical rows: zero covariance
    with pytest.raises(ValueError):
        EmpiricalSource(np.arange(6.0).reshape(3, 2), theta=-1.0)
    for theta in (np.nan, np.inf):  # each built a non-finite sigma
        with pytest.raises(ValueError, match="theta"):
            EmpiricalSource(np.arange(6.0).reshape(3, 2), theta=theta)


def test_load_idx_round_trip(tmp_path):
    for shape in ((7,), (3, 4), (2, 3, 5)):
        arr = np.arange(int(np.prod(shape)), dtype=np.uint8).reshape(shape)
        path = tmp_path / f"t{len(shape)}.idx"
        path.write_bytes(idx_bytes(arr))
        assert np.array_equal(load_idx(path), arr)
        assert load_idx(path).dtype == np.uint8


def test_load_idx_gzip_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.uint8).reshape(4, 6)
    path = tmp_path / "t.idx.gz"
    path.write_bytes(gzip.compress(idx_bytes(arr)))
    assert np.array_equal(load_idx(path), arr)
    assert np.array_equal(load_idx(str(path)), arr)


def test_load_idx_malformed(tmp_path):
    arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
    good = idx_bytes(arr)

    def expect(name, blob, fragment):
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=fragment):
            load_idx(path)

    expect("magic.idx", b"\x01" + good[1:], "magic")
    expect("type.idx", good[:2] + b"\x09" + good[3:], "type code")
    expect("short.idx", good[:3], "truncated IDX header")
    expect("dims.idx", good[:6], "dimension table")
    expect("extra.idx", good + b"\x00", "payload")
    expect("missing.idx", good[:-1], "payload")


def test_build_empirical_source():
    rng = child_rng(17)
    images = rng.integers(0, 256, size=(30, 4, 4)).astype(np.uint8)
    labels = np.repeat(np.arange(3), 10)
    source = build_empirical_source(images, labels, digit=1, theta=0.1)
    assert source.size == 10 and source.dim == 16
    with pytest.raises(ValueError, match="no images labeled"):
        build_empirical_source(images, labels, digit=9)
    with pytest.raises(ValueError):
        build_empirical_source(images.reshape(30, 16), labels, digit=1)
    with pytest.raises(ValueError):
        build_empirical_source(images, labels[:5], digit=1)


_SOURCE_RUN = """
import hashlib
import numpy as np
from covest import EmpiricalSource
rows = np.random.default_rng(5).standard_normal((400, 301)) * np.linspace(1.0, 3.0, 301)
source = EmpiricalSource(rows, theta=0.01)
print(hashlib.sha256(source.sigma.tobytes()).hexdigest(), repr(source.top_eigenvalue))
"""


def test_empirical_source_does_not_depend_on_the_blas_thread_count():
    # the rows are drawn without BLAS; unpinned, the Gram product and its
    # eigenvalues rounded differently at two threads, moving sigma and
    # top_eigenvalue, and with them the bound diagnostics in .meta.json
    outputs = outputs_at_blas_threads(_SOURCE_RUN)
    assert outputs[0] == outputs[1]
