import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncpd import tensors
from ncpd.calculus import gradient
from ncpd.tensors import (
    CpdPoint,
    CpdStructure,
    DenseTensor,
    khatri_rao,
    objective_value,
    residual_values,
    ten_read,
    ten_write,
    tensor_from_cpd,
    value_and_residual,
)

dims_strategy = st.lists(st.integers(2, 5), min_size=2, max_size=4).map(tuple)


def random_point(structure, seed):
    rng = np.random.default_rng(seed)
    factors = [rng.uniform(0.1, 1.0, size=(d, structure.rank)) for d in structure.dims]
    weights = rng.uniform(0.5, 2.0, size=structure.rank)
    return CpdPoint(factors, weights)


# --- flat layout ------------------------------------------------------------


def test_structure_sizes():
    st_ = CpdStructure((4, 3, 2), 2)
    assert st_.factor_dim == 2 * (4 + 3 + 2)
    assert st_.size == st_.factor_dim + 2
    assert st_.block_slice(0, 0) == slice(0, 4)
    assert st_.block_slice(0, 1) == slice(4, 8)
    assert st_.block_slice(1, 0) == slice(8, 11)
    assert st_.weight_slice == slice(18, 20)


@given(dims_strategy, st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_split_join_round_trip(dims, rank, seed):
    structure = CpdStructure(dims, rank)
    x = np.random.default_rng(seed).standard_normal(structure.size)
    factors, weights = structure.split(x)
    assert np.array_equal(structure.join(factors, weights), x)
    # block order must agree with the loop-built oracle
    assert np.array_equal(oracles.join_flat(factors, weights), x)


def test_from_flat_owns_row_major_copies():
    structure = CpdStructure((4, 3, 2), 2)
    x = np.random.default_rng(3).standard_normal(structure.size)
    point = CpdPoint.from_flat(structure, x)
    want_factors, want_weights = oracles.split_flat(x.copy(), structure.dims, structure.rank)
    x[:] = 0.0  # the point holds its own copies
    for a, want in zip(point.factors, want_factors):
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, want)
    assert not point.weights.flags.writeable
    assert np.array_equal(point.weights, want_weights)
    assert point.structure == structure
    assert not point.flat.flags.writeable
    assert np.array_equal(point.flat, point.structure.join(want_factors, want_weights))


def test_from_flat_copies_each_run_of_modes_once():
    # the factors of a run of equal-size modes are read-only row-major
    # views of one copy, which the flat vector's owner cannot change
    structure = CpdStructure((3, 3, 2, 2, 2), 2)
    x = np.random.default_rng(4).standard_normal(structure.size)
    point = CpdPoint.from_flat(structure, x)
    want = oracles.split_flat(x.copy(), structure.dims, structure.rank)[0]
    x[:] = 0.0
    assert [a.base is point.factors[0].base for a in point.factors] == [True, True, False, False, False]
    assert [a.base is point.factors[2].base for a in point.factors] == [False, False, True, True, True]
    for a, w in zip(point.factors, want):
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, w)


def test_point_from_fortran_ordered_factors_is_laid_out_and_evaluates_as_from_c_ordered():
    # a point built from arrays has the layout of from_flat, whatever the
    # order of those arrays, so its evaluation rounds the same way
    structure = CpdStructure((6, 5, 5, 4), 3)
    rng = np.random.default_rng(11)
    factors = [rng.standard_normal((d, structure.rank)) for d in structure.dims]
    weights = rng.uniform(0.5, 2.0, structure.rank)
    tensor = DenseTensor(structure.dims, rng.standard_normal(math.prod(structure.dims)))
    c_point = CpdPoint([np.ascontiguousarray(a) for a in factors], weights)
    f_point = CpdPoint([np.asfortranarray(a) for a in factors], weights)
    for a, b in zip(f_point.factors, c_point.factors):
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, b)
    assert f_point.flat.tobytes() == c_point.flat.tobytes()
    f_value, f_parts = value_and_residual(f_point, tensor)
    c_value, c_parts = value_and_residual(c_point, tensor)
    assert np.float64(f_value).tobytes() == np.float64(c_value).tobytes()
    assert gradient(f_point, tensor).tobytes() == gradient(c_point, tensor).tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(f_parts, c_parts))


def test_split_and_mode_offset_reject_bad_input():
    structure = CpdStructure((4, 3, 2), 2)
    assert [structure.mode_offset(n) for n in range(3)] == [0, 8, 14]
    with pytest.raises(ValueError, match="flat length"):
        structure.split(np.zeros(structure.size + 1))
    with pytest.raises(ValueError, match="flat length"):
        CpdPoint.from_flat(structure, np.zeros(structure.size + 1))
    with pytest.raises(ValueError, match="out of range"):
        structure.mode_offset(3)
    with pytest.raises(ValueError, match="out of range"):
        structure.mode_offset(-1)


def test_point_flat_matches_oracle_order():
    structure = CpdStructure((3, 2), 2)
    point = random_point(structure, 7)
    expected = oracles.join_flat(point.factors, point.weights)
    assert np.array_equal(point.flat, expected)


def test_dense_tensor_fortran_flat_order():
    arr = np.arange(24, dtype=float).reshape(4, 3, 2)
    t = DenseTensor.from_array(arr)
    for idx in np.ndindex(*arr.shape):
        assert t.values[oracles.flat_index(idx, arr.shape)] == arr[idx]
    assert np.array_equal(t.as_array(), arr)


# --- model evaluation -------------------------------------------------------


def test_tensor_from_cpd_rank1_example():
    # single rank-1 term: lambda=2, a1=[1,0], a2=[1,1]/sqrt(2), a3=[1]
    point = CpdPoint(
        [
            np.array([[1.0], [0.0]]),
            np.array([[1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0)]]),
            np.array([[1.0]]),
        ],
        np.array([2.0]),
    )
    t = tensor_from_cpd(point)
    arr = t.as_array()
    root2 = np.sqrt(2.0)
    assert arr[0, 0, 0] == pytest.approx(root2, rel=1e-15)
    assert arr[0, 1, 0] == pytest.approx(root2, rel=1e-15)
    assert np.all(arr[1, :, :] == 0.0)


def test_tensor_from_cpd_zero_weights():
    structure = CpdStructure((3, 3), 2)
    point = random_point(structure, 0)
    zeroed = CpdPoint(point.factors, np.zeros(2))
    assert np.all(tensor_from_cpd(zeroed).values == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_tensor_from_cpd_matches_nested_loop_oracle(seed):
    structure = CpdStructure((4, 4, 4), 2)
    point = random_point(structure, seed)
    got = tensor_from_cpd(point).values
    want = oracles.tensor_flat(point.factors, point.weights)
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_tensor_from_cpd_multilinear_in_weights():
    structure = CpdStructure((3, 2, 2), 3)
    point = random_point(structure, 3)
    scaled = CpdPoint(point.factors, point.weights * np.array([2.0, 1.0, 1.0]))
    single = CpdPoint(point.factors, point.weights * np.array([1.0, 0.0, 0.0]))
    diff = tensor_from_cpd(scaled).values - tensor_from_cpd(point).values
    assert np.allclose(diff, tensor_from_cpd(single).values, rtol=1e-13, atol=1e-14)


# --- residual and objective -------------------------------------------------


def test_residual_zero_at_exact_fit(tiny_problem):
    _, tensor, planted = tiny_problem
    assert np.allclose(residual_values(planted, tensor), 0.0, atol=1e-14)
    assert objective_value(planted, tensor) == pytest.approx(0.0, abs=1e-25)


def test_residual_at_zero_weights_is_minus_tensor(tiny_problem):
    structure, tensor, planted = tiny_problem
    zeroed = CpdPoint(planted.factors, np.zeros(structure.rank))
    assert np.allclose(residual_values(zeroed, tensor), -tensor.values, rtol=1e-15)
    assert objective_value(zeroed, tensor) == pytest.approx(
        0.5 * float(tensor.values @ tensor.values), rel=1e-14
    )


def test_objective_matches_oracle():
    structure = CpdStructure((3, 3, 2), 2)
    point = random_point(structure, 11)
    target = random_point(structure, 12)
    tensor = tensor_from_cpd(target)
    want = oracles.objective(point.flat, structure.dims, structure.rank, tensor.values)
    assert objective_value(point, tensor) == pytest.approx(want, rel=1e-14)


_MODES_2_TO_5 = [(7, 5), (6, 5, 4), (5, 4, 3, 3), (4, 3, 3, 2, 2)]


@pytest.mark.parametrize("dims", _MODES_2_TO_5)
@pytest.mark.parametrize("block_rows", [None, 1, 3])
def test_objective_only_pass_keeps_the_bits_of_the_full_pass(dims, block_rows, monkeypatch):
    # objective_value makes the blocks, model products, subtractions and
    # dot products of value_and_residual without the partial contractions,
    # so f keeps its bits, with one block or several (the last one ragged
    # where block_rows does not divide the rows), and an exact fit stays 0
    if block_rows is not None:
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 8 * math.prod(dims[: len(dims) // 2]) * block_rows)
    structure = CpdStructure(dims, 3)
    rng = np.random.default_rng(sum(dims))
    point = CpdPoint.from_flat(structure, rng.uniform(-0.2, 1.0, structure.size))
    tensor = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
    f = objective_value(point, tensor)
    assert f > 0.0
    assert np.float64(f).tobytes() == np.float64(value_and_residual(point, tensor)[0]).tobytes()
    exact = tensor_from_cpd(point)
    assert objective_value(point, exact) == 0.0 == value_and_residual(point, exact)[0]


@pytest.mark.parametrize("dims", _MODES_2_TO_5)
def test_objective_only_pass_overflows_to_inf_without_a_warning(dims, monkeypatch):
    monkeypatch.setattr(tensors, "_BLOCK_BYTES", 8 * math.prod(dims[: len(dims) // 2]))
    structure = CpdStructure(dims, 3)
    rng = np.random.default_rng(sum(dims))
    point = CpdPoint.from_flat(structure, rng.uniform(0.0, 1.0, structure.size))
    tensor = DenseTensor(dims, 1e160 * rng.standard_normal(math.prod(dims)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert objective_value(point, tensor) == math.inf == value_and_residual(point, tensor)[0]


# --- unfolding --------------------------------------------------------------


def test_unfold_mode0_of_2x2x1_is_frontal_slice():
    arr = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    t = DenseTensor.from_array(arr)
    assert np.array_equal(oracles.unfold_values(t.values, t.dims, 0), arr[:, :, 0])


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_unfold_matches_index_oracle(mode, rng):
    dims = (4, 3, 2)
    t = DenseTensor(dims, rng.standard_normal(24))
    want = oracles.unfold_entries(t.values, dims, mode)
    assert np.array_equal(oracles.unfold_values(t.values, dims, mode), want)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_unfold_refold_round_trip(mode, rng):
    dims = (3, 4, 2)
    t = DenseTensor(dims, rng.standard_normal(24))
    assert np.array_equal(oracles.refold(oracles.unfold_values(t.values, dims, mode), dims, mode), t.values)


def test_unfold_mode_out_of_range(rng):
    t = DenseTensor((2, 2), rng.standard_normal(4))
    with pytest.raises(ValueError):
        oracles.unfold_values(t.values, t.dims, 2)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_unfold_khatri_rao_identity(mode):
    # unfold(model, n) == A_n diag(w) KR(others, decreasing mode).T
    structure = CpdStructure((3, 3, 3), 2)
    point = random_point(structure, 5)
    t = tensor_from_cpd(point)
    others = [point.factors[m] for m in reversed(range(3)) if m != mode]
    rhs = (point.factors[mode] * point.weights[None, :]) @ khatri_rao(others).T
    assert np.allclose(oracles.unfold_values(t.values, t.dims, mode), rhs, rtol=1e-13, atol=1e-14)


# --- khatri_rao -------------------------------------------------------------


def test_khatri_rao_single_column_example():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(khatri_rao([a, b]), np.array([[3.0], [4.0], [6.0], [8.0]]))


def test_khatri_rao_identity_times_matrix():
    a = np.eye(2)
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    want = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]])
    assert np.array_equal(khatri_rao([a, b]), want)


def test_khatri_rao_single_argument():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(khatri_rao([a]), a)


@given(st.integers(1, 4), st.lists(st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_khatri_rao_matches_kron_oracle(cols, rows):
    rng = np.random.default_rng(cols * 101 + sum(rows))
    mats = [rng.standard_normal((m, cols)) for m in rows]
    got = khatri_rao(mats)
    want = oracles.khatri_rao_columns(mats)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


# --- .ten file format -------------------------------------------------------


def test_ten_round_trip_exact(tmp_path, rng):
    t = DenseTensor((3, 2, 2), rng.standard_normal(12) * 1e3)
    path = tmp_path / "t.ten"
    ten_write(path, t)
    back = ten_read(path)
    assert back.dims == t.dims
    assert np.array_equal(back.values, t.values)  # bit-exact through 17 digits


def test_ten_format_layout(tmp_path):
    t = DenseTensor((2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
    path = tmp_path / "t.ten"
    ten_write(path, t)
    lines = path.read_text().split()
    assert lines[0] == "2"
    assert lines[1:3] == ["2", "2"]
    assert [float(v) for v in lines[3:]] == [1.0, 2.0, 3.0, 4.0]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_ten_round_trip_property(tmp_path_factory, data):
    dims = data.draw(dims_strategy)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = DenseTensor(dims, rng.standard_normal(int(np.prod(dims))))
    path = tmp_path_factory.mktemp("ten") / "t.ten"
    ten_write(path, t)
    back = ten_read(path)
    assert back.dims == t.dims and np.array_equal(back.values, t.values)


def test_ten_read_value_count_mismatch(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_text("2\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError):
        ten_read(path)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
def test_ten_read_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "bad.ten"
    path.write_text(f"2\n2 2\n1.0\n2.0\n{value}\n4.0\n")
    with pytest.raises(ValueError, match="non-finite") as info:
        ten_read(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("value", ["abc", "1.5x", "0x10", "1,5", "\u00e9"])
def test_ten_read_rejects_malformed_values(tmp_path, value):
    path = tmp_path / "bad.ten"
    path.write_bytes(f"2\n2 2\n1.0\n2.0\n{value}\n4.0\n".encode())
    with pytest.raises(ValueError, match="malformed value") as info:
        ten_read(path)
    assert str(path) in str(info.value)


def test_ten_read_parses_like_float(tmp_path, rng):
    # wide exponents, signed zeros, extremes, other spellings, mixed blanks
    values = np.concatenate([rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20),
                             [0.0, -0.0, 5e-324, 1.7976931348623157e308]])
    texts = [repr(float(v)) for v in values] + ["1E5", "+.5", "-3.", "1_000"]
    path = tmp_path / "t.ten"
    path.write_text(f"2\n{len(texts)} 1\n" + " \t".join(texts) + "\n\n")
    back = ten_read(path)
    want = np.array([float(t) for t in texts])
    assert np.array_equal(back.values.view(np.uint64), want.view(np.uint64))


def test_ten_read_bad_header(tmp_path):
    path = tmp_path / "bad.ten"
    for text, message in [
        ("x\n2 2\n1\n2\n3\n4\n", "first token must be the number of modes"),
        ("2\n0 3\n", "mode sizes must be positive"),
        ("2\n-1 3\n1\n2\n3\n", "mode sizes must be positive"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            ten_read(path)
        assert str(info.value) == f"{path}: {message}"


blanks = st.text(alphabet=" \t\n\r", min_size=1, max_size=4)
spellings = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["1E5", "+.5", "-3.", "1_000", "-0", "0.000000000000000000000000001", "123456789012345678901234"]
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ten_read_chunk_boundaries(tmp_path_factory, data):
    # any run of blanks between tokens, with or without one at the end, read
    # in chunks of 1 to 64 bytes: tokens and the header are cut anywhere
    dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple))
    texts = data.draw(st.lists(spellings, min_size=int(np.prod(dims)), max_size=int(np.prod(dims))))
    tokens = [str(len(dims)), *map(str, dims), *texts]
    gaps = data.draw(st.lists(blanks, min_size=len(tokens), max_size=len(tokens)))
    gaps[-1] = data.draw(st.sampled_from(["", gaps[-1]]))
    path = tmp_path_factory.mktemp("ten") / "t.ten"
    path.write_text(data.draw(st.sampled_from(["", " \n"])) + "".join(t + g for t, g in zip(tokens, gaps)))
    with mock.patch.object(tensors, "_CHUNK_BYTES", data.draw(st.integers(1, 64))):
        back = ten_read(path)
    want = np.array([float(t) for t in texts])
    assert back.dims == dims
    assert np.array_equal(back.values.view(np.uint64), want.view(np.uint64))


def test_ten_read_memory_stays_near_the_tensor(tmp_path, rng):
    # about 100k values read in 4 KiB chunks: the tensor and little more
    tensor = DenseTensor((50, 40, 50), rng.standard_normal(100_000))
    path = tmp_path / "t.ten"
    ten_write(path, tensor)
    with mock.patch.object(tensors, "_CHUNK_BYTES", 4096):
        tracemalloc.start()
        try:
            back = ten_read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(back.values, tensor.values)
    assert peak < 2 * tensor.values.nbytes


def test_ten_read_memory_at_the_default_chunk_size(tmp_path, rng):
    # 200k values in chunks of the default size: one chunk's tokens at a
    # time, which are small beside the tensor
    tensor = DenseTensor((50, 40, 100), rng.standard_normal(200_000))
    path = tmp_path / "t.ten"
    ten_write(path, tensor)
    tracemalloc.start()
    try:
        back = ten_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, tensor.values)
    assert peak < 1.5 * tensor.values.nbytes


def test_ten_read_counts_values_a_header_claims_beyond_the_file(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_text("2\n1000000 1000000\n1.0\n2.0\n3.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            ten_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: expected 1000000000000 values, found 3"
    assert peak < 4 * tensors._CHUNK_BYTES  # the buffer of one read, no array


def test_ten_read_reports_a_wrong_count_before_a_malformed_value(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_text("2\n2 2\n1.0\nabc\n3.0\n")
    with pytest.raises(ValueError) as info:
        ten_read(path)
    assert str(info.value) == f"{path}: expected 4 values, found 3"


def test_ten_read_names_the_bad_entry(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_text("3\n2 2 2\n1 2 nan 4 5 inf 7 8\n")
    with pytest.raises(ValueError) as info:
        ten_read(path)
    assert str(info.value) == f"{path}: non-finite value nan at index (0, 1, 0)"
    long = "1.5" + "x" * 30
    path.write_text(f"3\n2 2 2\n1 2 3 4 5 6 {long} nan\n")
    with mock.patch.object(tensors, "_CHUNK_BYTES", 8):
        with pytest.raises(ValueError) as info:
            ten_read(path)
    assert str(info.value) == f"{path}: malformed value '{long[:20]}...' at index (0, 1, 1)"


def test_ten_read_from_a_pipe(tmp_path):
    # a pipe has no size, so the reader takes it whole before parsing
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=("2\n2 1\n1.5\n-2\n",), daemon=True)
    writer.start()
    back = ten_read(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.dims == (2, 1) and back.values.tolist() == [1.5, -2.0]


# --- validation -------------------------------------------------------------


def test_dense_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor((4,), np.zeros(4))  # an order-1 tensor is just a vector
    with pytest.raises(ValueError):
        DenseTensor((2, 2), np.zeros(3))


@pytest.mark.parametrize("make,message", [
    (lambda: DenseTensor((2.7, 3), np.zeros(6)), "mode size must be an integer, got 2.7"),
    (lambda: DenseTensor(("2", 3), np.zeros(6)), "mode size must be an integer, got '2'"),
    (lambda: DenseTensor((2, True), np.zeros(2)), "mode size must be an integer, got True"),
    (lambda: tensor_from_cpd(random_point(CpdStructure((3, 3), 2), 0), (2.9, 3)),
     "mode size must be an integer, got 2.9"),
    (lambda: tensor_from_cpd(random_point(CpdStructure((3, 3), 2), 0), (3.0, 3)),
     "mode size must be an integer, got 3.0"),
], ids=["tensor-float", "tensor-string", "tensor-bool", "from-cpd-float", "from-cpd-integral-float"])
def test_dense_tensor_and_tensor_from_cpd_reject_non_integer_sizes(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_dense_tensor_takes_numpy_integer_sizes():
    t = DenseTensor(np.array([2, 3]), np.zeros(6))
    assert t.dims == (2, 3) and all(type(d) is int for d in t.dims)
    point = random_point(CpdStructure((3, 3), 2), 0)
    assert tensor_from_cpd(point, (np.int64(3), 3)).dims == (3, 3)


def test_structure_validation():
    with pytest.raises(ValueError):
        CpdStructure((2, 2), 0)
    with pytest.raises(ValueError):
        CpdStructure((2,), 1)


@pytest.mark.parametrize("dims,rank,message", [
    ((4, 4.7), 2, "mode size must be an integer, got 4.7"),
    ((4, 4), 2.9, "rank must be an integer, got 2.9"),
    ((4, True), 2, "mode size must be an integer, got True"),
    ((4, 4), np.bool_(True), "rank must be an integer"),
    ((4, "4"), 2, "mode size must be an integer, got '4'"),
], ids=["float-size", "float-rank", "bool-size", "numpy-bool-rank", "string-size"])
def test_structure_rejects_non_integer_sizes(dims, rank, message):
    with pytest.raises(ValueError, match=message):
        CpdStructure(dims, rank)


def test_structure_takes_numpy_integers():
    structure = CpdStructure(np.array([4, 3]), np.int32(2))
    assert structure == CpdStructure((4, 3), 2)
    assert all(type(d) is int for d in structure.dims) and type(structure.rank) is int


def test_point_shape_validation():
    with pytest.raises(ValueError):
        CpdPoint([np.ones((2, 2)), np.ones((2, 3))], np.ones(2))


@pytest.mark.parametrize("rows", [(0, 3), (3, 0), (2, 3, 0)])
def test_point_rejects_a_factor_with_no_rows(rows):
    with pytest.raises(ValueError, match="invalid mode sizes"):
        CpdPoint([np.zeros((d, 2)) for d in rows], [1.0, 1.0])


def test_point_arrays_are_read_only(tiny_problem):
    _, _, planted = tiny_problem
    with pytest.raises(ValueError):
        planted.weights[0] = 5.0
    with pytest.raises(ValueError):
        planted.flat[0] = 5.0
