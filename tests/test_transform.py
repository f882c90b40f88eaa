"""Transform tests against a dense-materialization oracle plus the file formats."""

import io
import math
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjlt.text
import sjlt.transform
from sjlt import kwise
from sjlt.kwise import (HORNER_BLOCK, KWiseGenerator, PrimeField, eval_bucket, eval_bucket_batch,
                        eval_sign, eval_sign_batch)
from sjlt.stats import wilson_interval
from sjlt.transform import (
    AssumptionWarning,
    SparseVector,
    TransformSpec,
    _parse_entry,
    _replica_points,
    apply,
    apply_rows,
    apply_with_generators,
    bucket_generator,
    derive_spec,
    distortion_trial,
    format_dense_vector,
    materialize,
    parse_sparse_vector,
    row_squares,
    sign_generator,
    signed_bucket_sums,
    sparsity_gain,
    write_dense_vectors,
)


def dense_oracle(spec: TransformSpec, x: SparseVector) -> np.ndarray:
    """Materialize the signed indicator matrix and the duplicate-rescale matrix
    explicitly, then multiply; the independent reference for apply()."""
    cd = spec.d * spec.c
    bucket_gen = bucket_generator(spec)
    sign_gen = sign_generator(spec)
    H = np.zeros((spec.k, cd))
    for col in range(cd):
        H[eval_bucket(bucket_gen, col), col] = eval_sign(sign_gen, col)
    P = np.zeros((cd, spec.d))
    for i in range(spec.d):
        for r in range(spec.c):
            P[i * spec.c + r, i] = 1.0 / math.sqrt(spec.c)
    dense = np.zeros(spec.d)
    dense[x._arrays[0]] = x._arrays[1]
    return H @ (P @ dense)


def small_spec(d, k, c, bucket_seed, sign_seed, degree=4, epsilon=0.5, delta=0.5):
    return TransformSpec(d=d, epsilon=epsilon, delta=delta, m=1, k=k, c=c,
                         bucket_seed=bucket_seed, sign_seed=sign_seed, independence_degree=degree)


# ---------------------------------------------------------------- parameters

def test_derive_spec_trivial_example():
    spec = derive_spec(4, 0.5, 0.5, 1, 2, (1.0, 1.0, 1.0))
    assert (spec.m, spec.k, spec.c) == (1, 4, 2)
    assert sparsity_gain(spec.m) == 1.0
    assert spec.independence_degree == 2


def test_derive_spec_recomputed_example():
    # natural-log convention: m = ceil(ln 100) = 5, F(5) = ln5/lnln5
    with pytest.warns(AssumptionWarning):
        spec = derive_spec(4, 0.1, 0.01, 1, 2, (1.0, 1.0, 1.0))
    assert spec.m == 5
    assert spec.k == 500
    assert abs(sparsity_gain(spec.m) - math.log(5) / math.log(math.log(5))) < 1e-15
    assert spec.c == 22


def test_derive_spec_default_constants():
    with pytest.warns(AssumptionWarning):
        spec = derive_spec(1024, 0.25, 0.05, 1, 2)
    assert (spec.m, spec.k, spec.c) == (3, 192, 1)
    assert spec.independence_degree == 6


def test_derive_spec_rejects_bad_ranges():
    for epsilon, delta in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)]:
        with pytest.raises(ValueError):
            derive_spec(4, epsilon, delta, 1, 2)
    with pytest.raises(ValueError):
        derive_spec(0, 0.5, 0.5, 1, 2)
    for kappas in [(0.0, 1.0, 1.0), (1.0, math.inf, 1.0), (math.inf, 1.0, 1.0),
                   (math.nan, 1.0, 1.0), (1.0, 1.0, 1e308)]:
        with pytest.raises(ValueError):
            derive_spec(4, 0.5, 0.5, 1, 2, kappas)
    # k and m past the float range name epsilon and delta, not only the constants
    for epsilon, delta, name in [(1e-200, 0.5, "epsilon"), (1e-160, 0.5, "epsilon"),
                                 (0.5, 5e-324, "delta"), (1e-154, 0.5, "epsilon=")]:
        with pytest.raises(ValueError, match=name):
            derive_spec(4, epsilon, delta, 1, 2)


def test_spec_rejects_replica_points_beyond_the_field():
    p = 2 ** 61 - 1
    small_spec(d=p, k=4, c=1, bucket_seed=1, sign_seed=2)      # d * c = p still fits
    with pytest.raises(ValueError):
        small_spec(d=(p + 1) // 2, k=4, c=2, bucket_seed=1, sign_seed=2)


def test_spec_rejects_non_positive_epsilon():
    # the tail threshold and the distortion band are both epsilon
    for epsilon in (0.0, -0.5):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            small_spec(d=4, k=4, c=1, bucket_seed=1, sign_seed=2, epsilon=epsilon)


def test_assumption_satisfied_records_no_warning(recwarn):
    derive_spec(16, 0.05, 0.5, 1, 2)
    assert not [w for w in recwarn if issubclass(w.category, AssumptionWarning)]


def test_sparsity_gain_small_m():
    assert sparsity_gain(1) == 1.0
    assert sparsity_gain(2) == 1.0
    assert sparsity_gain(3) == pytest.approx(math.log(3) / math.log(math.log(3)))


# ---------------------------------------------------------------- vectors & io

def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseVector(dim=4, entries=((0, 1.0), (0, 2.0)))       # duplicate index
    with pytest.raises(ValueError):
        SparseVector(dim=4, entries=((2, 1.0), (1, 2.0)))       # decreasing
    with pytest.raises(ValueError):
        SparseVector(dim=4, entries=((1, 0.0),))                # stored zero
    with pytest.raises(ValueError):
        SparseVector(dim=4, entries=((4, 1.0),))                # out of range
    with pytest.raises(ValueError):
        SparseVector(dim=4, entries=((1, math.inf),))


def test_parse_example_line():
    x = parse_sparse_vector("4;0:1.0")
    assert x.dim == 4 and x.entries == ((0, 1.0),)
    empty = parse_sparse_vector("3;")
    assert empty.nnz == 0
    assert parse_sparse_vector("5;") == SparseVector(dim=5, entries=())


@pytest.mark.parametrize("line, message", [
    ("4 0:1.0\n", "missing ';' in sparse vector line: '4 0:1.0\\n'"),
    ("4;0:1.0,2", "missing ':' in sparse entry '2'"),
    ("4;0:1.0,", "missing ':' in sparse entry ''"),
    ("4;0:1:2", "could not convert string to float: '1:2'"),
    ("4;x:1.0", "invalid literal for int() with base 10: 'x'"),
    ("4;:1.0", "invalid literal for int() with base 10: ''"),
    ("4;1.5:1.0", "invalid literal for int() with base 10: '1.5'"),
    ("4;0:abc", "could not convert string to float: 'abc'"),
    ("4;0:\ud800", "could not convert string to float: '\\ud800'"),
    ("x;0:1.0", "invalid literal for int() with base 10: 'x'"),
    ("0;", "dim must be positive"),
    ("-3;0:1.0", "dim must be positive"),
    ("4;1:1.0,1:2.0", "indices must be strictly increasing"),
    ("4;2:1.0,1:2.0", "indices must be strictly increasing"),
    ("4;4:1.0", "index 4 out of range for dim 4"),
    ("4;-1:1.0", "index -1 out of range for dim 4"),
    ("4;99999999999999999999:1.0", "index 99999999999999999999 out of range for dim 4"),
    ("4;1:0.0", "stored zeros are not allowed"),
    ("4;1:-0", "stored zeros are not allowed"),
    ("4;1:nan", "values must be finite"),
    ("4;1:inf", "values must be finite"),
    ("4;1:-inf", "values must be finite"),
    ("4;1:1e999", "values must be finite"),
])
def test_parse_error_messages(line, message):
    with pytest.raises(ValueError) as info:
        parse_sparse_vector(line)
    assert str(info.value) == message


@pytest.mark.parametrize("line, message", [
    # entry text is read entry by entry, and the dimension after the entries
    ("4;0:abc,2", "could not convert string to float: 'abc'"),
    ("4;0,x:1.0", "missing ':' in sparse entry '0'"),
    ("4;x:abc", "invalid literal for int() with base 10: 'x'"),
    # a ':' too many and one too few, as many ':' as entries in all
    ("4;1:2:3,3", "could not convert string to float: '2:3'"),
    ("4;1,2:3:4", "missing ':' in sparse entry '1'"),
    ("x;0:abc", "could not convert string to float: 'abc'"),
    ("0;0:abc", "could not convert string to float: 'abc'"),
    # every entry parses before any is checked against the dimension
    ("4;9:1.0,x:1.0", "invalid literal for int() with base 10: 'x'"),
    ("0;9:0.0", "dim must be positive"),
    # the checks run entry by entry: range, order, zero, finiteness
    ("4;5:1.0,1:0.0", "index 5 out of range for dim 4"),
    ("4;1:0.0,9:1.0", "stored zeros are not allowed"),
    ("4;9:0.0", "index 9 out of range for dim 4"),
    ("4;2:1.0,1:0.0", "indices must be strictly increasing"),
    ("4;1:nan,0:1.0", "values must be finite"),
    ("4;1:1.0,0:nan", "indices must be strictly increasing"),
    ("4;1:1.0,2:0.0,3:inf,9:1.0", "stored zeros are not allowed"),
    ("4;0:1.0,1:inf,1:1.0", "values must be finite"),
])
def test_parse_reports_the_first_error(line, message):
    with pytest.raises(ValueError) as info:
        parse_sparse_vector(line)
    assert str(info.value) == message


def test_parse_accepts_what_int_and_float_accept():
    x = parse_sparse_vector(" 6 ; 0 : 1.5 , +2:-2e0,4:1_0 \n")
    assert x == SparseVector(dim=6, entries=((0, 1.5), (2, -2.0), (4, 10.0)))
    huge = parse_sparse_vector("99999999999999999999999;99999999999999999999:1.0")
    assert huge.dim == 99999999999999999999999
    assert huge.entries == ((99999999999999999999, 1.0),)


_INDEX_TEXT = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from(["+2", "1_0", " 5 ", "-0", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775809", "99999999999999999999", "x", "", "1.5", "nan"]))
_VALUE_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1", "-2e0", "1E-3", "+3", "1_0", " 2.5 ", "0", "-0", "0.0", "nan", "inf",
                     "-inf", "1e999", "x", ""]))
# an entry with its ':', without it, or with one too many
_ENTRY_TEXT = st.one_of(
    st.builds("{}:{}".format, _INDEX_TEXT, _VALUE_TEXT),
    _INDEX_TEXT,
    st.builds("{}:{}:{}".format, _INDEX_TEXT, _VALUE_TEXT, _VALUE_TEXT))
_HEAD_TEXT = st.sampled_from(["12", " 12 ", "1", "0", "-3", "x", "99999999999999999999999"])
# valid lines as well, which the mixed ones rarely are
_VALID_BODY = st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                                 st.floats(allow_nan=False, allow_infinity=False)
                                 .filter(bool)), unique_by=lambda e: e[0]).map(
    lambda entries: ",".join(f"{i}:{v!r}" for i, v in sorted(entries)))


def _outcome(read):
    try:
        x = read()
    except Exception as exc:
        return type(exc), str(exc)
    return x.dim, x.entries, [(a.dtype, a.tolist()) for a in x._arrays]


@settings(max_examples=400, deadline=None)
@given(_HEAD_TEXT, st.one_of(_VALID_BODY, st.lists(_ENTRY_TEXT, max_size=5).map(",".join)))
def test_parse_equals_entry_by_entry_reading(head, body):
    line = f"{head};{body}"

    def entry_by_entry():
        # entries before the dimension, as parse_sparse_vector documents
        stripped_head, _, stripped_body = line.strip().partition(";")
        entries = tuple(map(_parse_entry, stripped_body.split(","))) if stripped_body else ()
        return SparseVector(int(stripped_head), entries)

    assert _outcome(lambda: parse_sparse_vector(line)) == _outcome(entry_by_entry)


def test_from_dense_drops_zeros_and_refuses_nan():
    x = SparseVector.from_dense([0.0, -0.0, 2.5, 0.0, -1.0])
    assert x == SparseVector(dim=5, entries=((2, 2.5), (4, -1.0)))
    assert [a.dtype for a in x._arrays] == [np.int64, np.float64]
    assert x.norm() == math.sqrt(2.5 ** 2 + 1.0)
    for bad, message in (([1.0, math.nan], "values must be finite"),
                         ([-0.0, math.inf], "values must be finite"), ([], "dim must be positive")):
        with pytest.raises(ValueError, match=message):
            SparseVector.from_dense(bad)


def test_sparse_vector_is_immutable_and_hashes_by_its_entries():
    x = parse_sparse_vector("6;1:0.5,4:-2")
    with pytest.raises(AttributeError):
        x.dim = 7
    with pytest.raises(AttributeError):
        x.entries = ()
    assert not any(a.flags.writeable for a in x._arrays)
    assert hash(x) == hash(SparseVector(6, [(1, 0.5), (4, -2.0)]))
    assert repr(x) == "SparseVector(dim=6, entries=((1, 0.5), (4, -2.0)))"


def test_dense_format_is_17_significant_digits():
    y = (1.0 / 3.0, 2.0)
    text = format_dense_vector(y)
    assert text == "0.33333333333333331,2"
    assert tuple(float(v) for v in text.split(",")) == y


def test_written_rows_are_the_formatted_vectors(tmp_path):
    rows = np.array([[-0.0, 1.0 / 3.0, 5e-324, -2.5e-308, 1e22, 123456789012345680.0],
                     [0.0, -1.0, 2.0 ** 60, 0.1, -7e-5, 1.7976931348623157e308]])
    path = tmp_path / "rows.txt"
    write_dense_vectors(path, rows)
    lines = [format_dense_vector(row) for row in rows.tolist()]
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("ascii")
    assert lines[0].startswith("-0,0.33333333333333331,")
    write_dense_vectors(path, np.zeros((0, 6)))
    assert path.read_bytes() == b""


def _written(rows) -> str:
    stream = io.StringIO()
    write_dense_vectors(stream, rows)
    return stream.getvalue()


def _printf(rows) -> str:
    # the reference: f"{v:.17g}" one value at a time, non-finite values included
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in np.asarray(rows).tolist())


def _assert_written_exactly(values) -> None:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    for width in (1, 7, 2800):
        rows = np.resize(values, (-(-values.size // width), width))
        assert _written(rows) == _printf(rows)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=1, max_size=12))
def test_written_text_is_printf_for_every_bit_pattern(patterns):
    # every finite double, +-0, +-inf and nan, from its raw 64-bit pattern
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _written(values[None, :]) == _printf(values[None, :])
    assert _written(values[:, None]) == _printf(values[:, None])


def test_written_text_is_printf_on_a_million_random_patterns():
    # random sign and mantissa bits in the binades 2^-16 .. 2^59, across both
    # edges of fixed notation; the line template is the old writer's, which
    # gives f"{v:.17g}" byte for byte at a third of its cost
    rng = np.random.default_rng(2010)
    size = (1000, 1000)
    patterns = (rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
                | rng.integers(1023 - 16, 1023 + 59, size=size, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2 ** 52, size=size, dtype=np.uint64))
    rows = patterns.view(np.float64)
    line = ",".join(["%.17g"] * size[1]) + "\n"
    assert _written(rows) == "".join(line % tuple(row) for row in rows.tolist())
    # and raw patterns over every exponent
    rows = rng.integers(0, 2 ** 64, size=(20, 1000), dtype=np.uint64).view(np.float64)
    assert _written(rows) == _printf(rows)


def _neighbours(values, steps: int = 3) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    both = np.concatenate(out)
    return np.concatenate([both, -both])


def test_written_text_is_printf_at_powers_of_ten_and_notation_edges():
    powers = [float(f"1e{e}") for e in range(-330, 309)]
    _assert_written_exactly(_neighbours(powers, steps=1))
    # where "%.17g" switches between fixed and exponent notation
    _assert_written_exactly(_neighbours([1e-5, 1e-4, 1e16, 1e17], steps=64))


def test_written_text_is_printf_where_rounding_reaches_the_next_decade():
    # 9.99...95 (18 digits) and its neighbours round up to 10^(X+1) or stay below
    nines = [float(f"9.9999999999999999{tail}e{e}") for e in range(-8, 20) for tail in "4569"]
    _assert_written_exactly(_neighbours(nines, steps=4))


def _ties(rng, count: int) -> np.ndarray:
    # x = odd / 2^(17 - X) has 17 - X fraction digits, the last a 5, so
    # (X + 1) + (17 - X) = 18 significant digits: a tie for 17 digits
    ties = []
    for x in range(-4, 16):
        j = 17 - x
        low, high = math.ceil(10.0 ** x * 2 ** j), min(10.0 ** (x + 1), 2.0 ** (53 - j)) * 2 ** j
        odd = rng.integers(low // 2, int(high) // 2, size=count) * 2 + 1
        ties.append(np.ldexp(odd.astype(np.float64), -j))
    return np.concatenate(ties)


def test_written_text_is_printf_on_ties_and_near_ties():
    ties = _ties(np.random.default_rng(7), 50)
    for x in ties[::97].tolist():
        digits = format(Fraction(x).numerator * 10 ** 30 // Fraction(x).denominator, "d")
        assert len(digits.rstrip("0")) == 18 and digits.rstrip("0")[-1] == "5"
    assert {"1000000000000000.2", "1000000000000000.8"} <= set(
        _written(np.array([[1e15 + 0.25, 1e15 + 0.75]])).strip().split(","))
    _assert_written_exactly(_neighbours(ties, steps=2))


def test_written_text_is_printf_on_subnormals_zeros_and_rows():
    rng = np.random.default_rng(11)
    subnormals = rng.integers(1, 2 ** 52, size=4000, dtype=np.uint64).view(np.float64)
    _assert_written_exactly(np.concatenate([subnormals, [5e-324, 2.2250738585072009e-308]]))
    for rows in (np.zeros((3, 2800)), -np.zeros((2, 5)), np.zeros((0, 4)), np.zeros((2, 0)),
                 rng.standard_normal((5, 2800)), rng.standard_normal((4000, 1))):
        assert _written(rows) == _printf(rows)


def test_fixed_notation_takes_the_exact_vectorized_digits():
    # away from the decade edges every fixed-notation value takes the vectorized
    # path, with exactly the decade and the 17 digits of f"{v:.16e}"
    rng = np.random.default_rng(3)
    values = 10.0 ** rng.uniform(-4.0, 17.0, size=20000)
    values = values[np.abs(np.log10(values) - np.round(np.log10(values))) > 1e-12]
    i, d, fast = sjlt.text._significands(values)
    assert fast.all()
    mantissas, exponents = zip(*(f"{v:.16e}".split("e") for v in values.tolist()))
    assert d.tolist() == [int(m.replace(".", "")) for m in mantissas]
    assert (i - 5).tolist() == [int(e) for e in exponents]


# ---------------------------------------------------------------- apply paths

def test_single_coordinate_preserves_norm():
    spec = small_spec(d=1, k=1, c=1, bucket_seed=5, sign_seed=9)
    y = apply(spec, SparseVector(dim=1, entries=((0, 1.0),)))
    assert abs(y[0]) == 1.0


def test_forced_collision_symbolic():
    spec = small_spec(d=2, k=1, c=1, bucket_seed=5, sign_seed=9)
    a, b = 0.6, -0.35
    y = apply(spec, SparseVector(dim=2, entries=((0, a), (1, b))))
    sign_gen = sign_generator(spec)
    expected = eval_sign(sign_gen, 0) * a + eval_sign(sign_gen, 1) * b
    assert y[0] == pytest.approx(expected, rel=0, abs=1e-15)


def test_apply_matches_dense_oracle_fixed_instance():
    spec = small_spec(d=3, k=4, c=2, bucket_seed=12, sign_seed=34)
    x = SparseVector(dim=3, entries=((0, 0.6), (2, 0.8)))
    got = apply(spec, x)
    expected = dense_oracle(spec, x)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)


def random_oracle_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 7))
        spec = small_spec(d=d, k=k, c=c, bucket_seed=int(rng.integers(2**62)),
                          sign_seed=int(rng.integers(2**62)), degree=degree)
        dense = np.round(rng.standard_normal(d), 6)
        dense[rng.random(d) < 0.3] = 0.0
        yield spec, SparseVector.from_dense(dense)


def test_apply_matches_dense_oracle_random_instances():
    for spec, x in random_oracle_instances():
        got = apply_with_generators(x, spec.c, spec.k,
                                    bucket_generator(spec), sign_generator(spec))
        expected = dense_oracle(spec, x)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_materialize_matches_dense_oracle_columns():
    for spec, _ in random_oracle_instances():
        M = materialize(spec)
        for j in range(spec.d):
            e_j = SparseVector(dim=spec.d, entries=((j, 1.0),))
            assert np.allclose(M[:, j], dense_oracle(spec, e_j), rtol=0, atol=1e-15)


def long_run_oracle_instances():
    # c well above the degree, so apply_with_generators and materialize hash
    # every column by forward differences
    rng = np.random.default_rng(4051)
    for _ in range(40):
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 9))
        c = int(rng.integers(8, 41))
        degree = int(rng.integers(1, 7))
        spec = small_spec(d=d, k=k, c=c, bucket_seed=int(rng.integers(2**62)),
                          sign_seed=int(rng.integers(2**62)), degree=degree)
        dense = np.round(rng.standard_normal(d), 6)
        dense[rng.random(d) < 0.3] = 0.0
        yield spec, SparseVector.from_dense(dense)


def test_long_runs_match_dense_oracle():
    for spec, x in long_run_oracle_instances():
        got = apply_with_generators(x, spec.c, spec.k,
                                    bucket_generator(spec), sign_generator(spec))
        assert np.allclose(got, dense_oracle(spec, x), rtol=1e-12, atol=1e-15)
        M = materialize(spec)
        for j in range(spec.d):
            # up to c terms share a bucket, so sums round in the last bits;
            # a wrong bucket or sign moves an entry by 1/sqrt(c) or more
            column = dense_oracle(spec, SparseVector(dim=spec.d, entries=((j, 1.0),)))
            assert np.allclose(M[:, j], column, rtol=1e-12, atol=1e-15)


def test_indices_above_2_53_stay_exact():
    # d * c < 2^61, but a float64 detour would merge 2^53 and 2^53 + 1
    spec = derive_spec(2**55, 0.5, 0.5, 11, 22)
    assert (spec.k, spec.c) == (16, 4)
    a = SparseVector(dim=spec.d, entries=((2**53, 1.0), (2**55 - 1, 2.0)))
    b = SparseVector(dim=spec.d, entries=((2**53 + 1, 1.0), (2**55 - 1, 2.0)))
    assert a._arrays[0].tolist() == [2**53, 2**55 - 1]
    assert b._arrays[0].tolist() == [2**53 + 1, 2**55 - 1]
    assert not np.array_equal(apply(spec, a), apply(spec, b))


def test_apply_rejects_dimension_mismatch():
    spec = small_spec(d=3, k=4, c=2, bucket_seed=1, sign_seed=2)
    with pytest.raises(ValueError):
        apply(spec, SparseVector(dim=4, entries=((0, 1.0),)))


def test_apply_rows_stacks_apply():
    spec = small_spec(d=6, k=5, c=3, bucket_seed=3, sign_seed=4)
    vectors = [SparseVector(dim=6, entries=()), SparseVector(dim=6, entries=((2, -1.5),)),
               SparseVector.from_dense([0.5, 0.0, 2.0, -1.0, 0.0, 3.0])]
    rows = apply_rows(spec, vectors)
    assert rows.shape == (3, 5) and rows.dtype == np.float64
    for row, x in zip(rows, vectors):
        y = apply(spec, x)
        assert y.dtype == np.float64 and y.shape == (5,)
        assert y.tobytes() == apply_rows(spec, [x])[0].tobytes()
        assert row.tolist() == y.tolist()
    assert apply_rows(spec, []).shape == (0, 5)
    with pytest.raises(ValueError, match="does not match spec dimension"):
        apply_rows(spec, vectors + [SparseVector(dim=5, entries=((0, 1.0),))])
    with pytest.raises(ValueError, match="dense vector entries must be finite"):
        apply_rows(spec, [SparseVector(dim=6, entries=tuple((i, 1e308) for i in range(6)))])


def _random_vectors(spec, sizes, seed):
    rng = np.random.default_rng(seed)
    vectors = []
    for nnz in sizes:
        idx = np.sort(rng.choice(spec.d, size=nnz, replace=False))
        val = rng.standard_normal(nnz) * rng.lognormal(size=nnz)
        vectors.append(SparseVector(dim=spec.d, entries=tuple(zip(idx.tolist(), val.tolist()))))
    return vectors


def _bincount_row(spec, x):
    # the per-vector reference: all of one vector's replicas, one np.bincount
    indices, values = x._arrays
    points, weights = _replica_points(indices, spec.c), np.repeat(values, spec.c)
    buckets = eval_bucket_batch(bucket_generator(spec), points)
    signs = eval_sign_batch(sign_generator(spec), points)
    sums = np.bincount(buckets, weights=signs * weights, minlength=spec.k)
    return sums / math.sqrt(spec.c)


def _stream_spec(name):
    if name == "long-runs":
        # c > degree: a chunk is 16384 // 14 = 1170 coordinates, one table pass
        return derive_spec(2 ** 20, 0.1, 1e-3, 1234567, 7654321)
    # c < degree: a chunk is 16384 // 3 = 5461 coordinates, 16383 Horner points
    return small_spec(d=6000, k=37, c=3, bucket_seed=41, sign_seed=42, degree=8)


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
@pytest.mark.parametrize("name", ["long-runs", "short-runs"])
def test_apply_rows_streams_chunks_bit_for_bit(name):
    spec = _stream_spec(name)
    chunk = HORNER_BLOCK // min(spec.c, spec.independence_degree)
    files = [
        # vector 2 straddles the first chunk end, the second chunk holds its
        # tail and the head of vector 5, and empty vectors sit between them
        [chunk // 2, 0, chunk // 2 + chunk // 3, 0, 0, chunk],
        # exactly two chunks, the first ending 5 coordinates into vector 2
        [chunk - 5, 0, 5 + chunk // 2, chunk - chunk // 2],
        [0, 1, 0],
    ]
    for seed, sizes in enumerate(files):
        vectors = _random_vectors(spec, sizes, seed)
        rows = apply_rows(spec, vectors)
        assert rows.shape == (len(sizes), spec.k)
        for row, x in zip(rows, vectors):
            assert row.tobytes() == _bincount_row(spec, x).tobytes()
            assert ",".join(f"{v:.17g}" for v in row) == format_dense_vector(apply(spec, x))


def test_stream_adds_each_bucket_in_point_order():
    # k = 1: every replica lands in bucket 0. 1e16 ends the first chunk, and
    # 1.0 then -1e16 start the second: in point order 1e16 + 1.0 rounds back
    # to 1e16 and the bucket ends near 0; any other order leaves about 1.0
    spec = small_spec(d=HORNER_BLOCK + 2, k=1, c=1, bucket_seed=5, sign_seed=6, degree=2)
    targets = np.full(spec.d, 1e-300)
    targets[HORNER_BLOCK - 1:] = (1e16, 1.0, -1e16)
    signs = eval_sign_batch(sign_generator(spec), np.arange(spec.d, dtype=np.uint64))
    x = SparseVector(dim=spec.d, entries=tuple(enumerate((targets * signs).tolist())))
    total = 0.0
    for target in targets.tolist():
        total += target
    assert abs(total) < 1e-250
    (got,), = apply_rows(spec, [x])
    assert got.tobytes() == np.float64(total).tobytes()


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_apply_rows_memory_is_one_chunk():
    # 20,000 nonzeros stream through the chunks of one 1,170-nonzero vector
    spec = _stream_spec("long-runs")
    peaks = []
    for x in _random_vectors(spec, [1170, 20000], 3):
        tracemalloc.start()
        try:
            apply_rows(spec, [x])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=-3, max_value=3, allow_nan=False),
       beta=st.floats(min_value=-3, max_value=3, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**32))
def test_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    spec = small_spec(d=6, k=5, c=3, bucket_seed=77, sign_seed=88)
    xv = rng.standard_normal(6)
    zv = rng.standard_normal(6)
    x, z = SparseVector.from_dense(xv), SparseVector.from_dense(zv)
    combined = SparseVector.from_dense(alpha * xv + beta * zv)
    lhs = apply(spec, combined)
    rhs = alpha * apply(spec, x) + beta * apply(spec, z)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


# ------------------------------------------------------- structure & sparsity

# seeds searched so no column has two replicas sharing a bucket
COLLISION_FREE = [(4, 2, 4, 3), (6, 3, 8, 20), (8, 4, 8, 725)]


@pytest.mark.parametrize("d,c,k,seed", COLLISION_FREE)
def test_materialized_column_sparsity(d, c, k, seed):
    spec = small_spec(d=d, k=k, c=c, bucket_seed=seed, sign_seed=seed + 1, degree=6)
    M = materialize(spec)
    magnitude = 1.0 / math.sqrt(c)
    for col in range(d):
        nonzero = M[np.abs(M[:, col]) > 1e-15, col]
        assert len(nonzero) == c
        assert np.allclose(np.abs(nonzero), magnitude, rtol=1e-12, atol=0)


def test_mean_squared_norm_exhaustive_tiny_field():
    # enumerate every degree-2 coefficient pair for both generators over F_7 and
    # compare against the first-principles reduction-bias prediction
    field = PrimeField(7)
    p = field.modulus
    sign_of = [1 if u % 2 == 0 else -1 for u in range(p)]
    pair_sign_bias = Fraction(sum(sign_of), p) ** 2
    for d, c, k in [(2, 2, 2), (3, 2, 3), (3, 1, 2), (2, 1, 3)]:
        residues = [sum(1 for u in range(p) if u % k == j) for j in range(k)]
        collide = sum(Fraction(n, p) ** 2 for n in residues)
        values = [0.6, -0.3, 0.8][:d]
        x = SparseVector.from_dense(values)
        total = 0.0
        combos = 0
        for bucket_coeffs in product(range(p), repeat=2):
            bucket_gen = KWiseGenerator(field=field, coefficients=bucket_coeffs, range_size=k)
            for sign_coeffs in product(range(p), repeat=2):
                sign_gen = KWiseGenerator(field=field, coefficients=sign_coeffs, range_size=2)
                y = apply_with_generators(x, c, k, bucket_gen, sign_gen)
                total += float(y @ y)
                combos += 1
        replicas = [v for v in values for _ in range(c)]
        rep_sum = sum(replicas)
        rep_sq = sum(v * v for v in replicas)
        predicted = rep_sq / c + (rep_sum ** 2 - rep_sq) * float(pair_sign_bias) * float(collide) / c
        assert abs(total / combos - predicted) <= 1e-12


# ------------------------------------------------------------------ distortion

def test_distortion_trivial_instance():
    spec = small_spec(d=1, k=1, c=1, bucket_seed=4, sign_seed=8)
    ratio = distortion_trial(spec, SparseVector(dim=1, entries=((0, 2.5),)))
    assert ratio == 1.0


def test_distortion_scale_invariance():
    spec = small_spec(d=6, k=5, c=2, bucket_seed=41, sign_seed=42)
    values = [0.3, -1.2, 0.0, 0.7, 0.1, -0.4]
    x = SparseVector.from_dense(values)
    x2 = SparseVector.from_dense([2.0 * v for v in values])
    assert abs(distortion_trial(spec, x) - distortion_trial(spec, x2)) <= 1e-15


def test_distortion_rejects_zero_vector():
    spec = small_spec(d=3, k=2, c=1, bucket_seed=1, sign_seed=2)
    with pytest.raises(ValueError):
        distortion_trial(spec, SparseVector(dim=3, entries=()))
    with pytest.raises(ValueError, match="zero vector has no distortion ratio"):
        sjlt.transform.distortion_bench(spec, 10, x=SparseVector(dim=3, entries=()))


def test_wilson_interval_ends_exactly_at_0_and_1():
    # at 0 and at n successes of n the exact ends are 0 and 1; rounding the
    # center's distance to them must not leave a residue either side
    for n in range(1, 2001):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
    for n in (1, 2, 3, 10, 99, 100, 1000, 4097):
        for s in range(n + 1):
            low, high = wilson_interval(s, n)
            assert 0.0 <= low <= s / n <= high <= 1.0, (s, n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), rows=st.integers(1, 6), points=st.integers(0, 300),
       k=st.one_of(st.integers(1, 5), st.integers(6, 99)))
def test_signed_bucket_sums_rows_match_one_row_calls(seed, rows, points, k):
    # row r of a 2-D call starts r * k floats in, unaligned for odd k; the
    # trial loops take its squared norms with row_squares. Only the low bit
    # of a sign value counts, as in the kernel's values below 2^61.
    rng = np.random.default_rng(seed)
    buckets = rng.integers(0, k, size=(rows, points))
    sign_bits = rng.integers(0, 2**61, size=(rows, points))
    for weights in (rng.standard_normal((rows, points)), rng.standard_normal(points)):
        batched = signed_bucket_sums(buckets.copy(), sign_bits.copy(), weights, k)
        assert batched.shape == (rows, k)
        squares = row_squares(batched)
        for r in range(rows):
            row_weights = weights[r] if weights.ndim == 2 else weights
            signs = 1 - 2 * (sign_bits[r] & 1)
            single = np.bincount(buckets[r], weights=signs * row_weights, minlength=k)
            assert batched[r].tobytes() == single.tobytes()
            assert squares[r].tobytes() == (single @ single).tobytes()
            one_row = signed_bucket_sums(buckets[r:r + 1].copy(), sign_bits[r:r + 1].copy(),
                                         row_weights, k)
            assert one_row.shape == (1, k) and one_row.tobytes() == single.tobytes()


def test_sign_bits_negate_weights_bit_for_bit():
    # the sign bits become the signed weights' float64 bits in place: the
    # IEEE sign bit XOR the low bit is (1 - 2b) * w bit for bit, signed
    # zeros, subnormals, negative weights and the extremes included
    tiny = np.finfo(np.float64).smallest_subnormal
    weights = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2e-308, -1.5, 0.1,
                        np.finfo(np.float64).max, -np.finfo(np.float64).max])
    rng = np.random.default_rng(3)
    for low_bits in (np.zeros(weights.size, dtype=np.int64), np.ones(weights.size, dtype=np.int64),
                     rng.integers(0, 2, size=weights.size)):
        sign_bits = low_bits + 2 * rng.integers(0, 2**60, size=weights.size)
        expected = (1 - 2 * low_bits) * weights
        one_row = sign_bits[None]
        signed_bucket_sums(np.zeros(one_row.shape, dtype=np.int64), one_row, weights, 1)
        assert one_row.view(np.float64).tobytes() == expected.tobytes()
        stacked = np.tile(low_bits, (3, 1))
        signed_bucket_sums(np.zeros(stacked.shape, dtype=np.int64), stacked, weights, 1)
        assert stacked.view(np.float64).tobytes() == np.tile(expected, 3).tobytes()


def test_row_squares_match_row_dot_bit_for_bit():
    # seeded shapes up to a trial block's, odd k (unaligned rows), zero rows,
    # and scales from subnormal products to overflow
    rng = np.random.default_rng(2025)
    shapes = [(0, 5), (1, 1), (3, 4096)] + [
        (int(rng.integers(1, 130)), int(rng.integers(1, 4097))) for _ in range(150)]
    for rows, k in shapes:
        sums = rng.standard_normal((rows, k)) * 2.0 ** rng.integers(-560, 520, size=(rows, 1))
        sums[rng.random(rows) < 0.1] = 0.0
        with np.errstate(over="ignore"):
            expected = np.array([row @ row for row in sums], dtype=np.float64)
            assert row_squares(sums).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_trial_block_memory_holds_no_temporaries(monkeypatch):
    # A count call allocates one work array before its first block, and
    # each block's kernel call takes all of its arrays from it and returns
    # its values in it, where they are reduced and summed in place. So every
    # block's kernel call starts at the same traced level, and from there
    # to the block's event the memory rises by no more than the (T, k)
    # bucket sums and 64 KB, numpy's iterator buffer for a broadcast
    # operand; the T squares, 256 bytes, fit in that margin. Criterion 5's
    # setting, x the default uniform vector: 2 * 32 trials of 1024 points
    # per full kernel call, then a short block, which steps other runs in
    # the same work array. The kernel's own arrays for a full block are
    # about 1.2 MB.
    spec = derive_spec(1024, 0.25, 0.05, 1, 2**40)
    trials = max(1, 2 * HORNER_BLOCK // max(spec.d * spec.c, spec.k))
    sums_bytes = trials * spec.k * 8
    original = sjlt.transform.eval_bucket_batch
    # per block: the traced level at its kernel call, and the rise to its
    # peak by its hits; filled in place, so recording allocates nothing
    levels = np.zeros((4, 2), dtype=np.int64)
    block = [0]

    def traced(gen, flat, **kwargs):
        tracemalloc.reset_peak()
        levels[block[0], 0] = tracemalloc.get_traced_memory()[0]
        return original(gen, flat, **kwargs)

    def hit(squares, norm_sq):
        levels[block[0], 1] = tracemalloc.get_traced_memory()[1] - levels[block[0], 0]
        block[0] += 1
        return [False] * len(squares)

    monkeypatch.setattr(sjlt.transform, "eval_bucket_batch", traced)
    count = sjlt.transform.trial_counter(spec, None, hit)
    # an untraced pass first fills numpy's one-time caches
    assert count(0, 3 * trials + 5) == 0
    block[0] = 0
    tracemalloc.start()
    try:
        assert count(0, 3 * trials + 5) == 0
    finally:
        tracemalloc.stop()
    starts, rises = levels.T
    assert block[0] == 4
    # the same level up to the interpreter's own few hundred bytes
    assert starts.max() - starts.min() < 4096
    assert rises.max() <= sums_bytes + 64 * 1024


def test_bucket_generator_asserts_reduction_bias():
    # k / modulus must stay below 2^-20 on the production field; the spec refuses
    # it, so no generator, apply or trial loop ever sees such a k
    with pytest.raises(ValueError, match="bucket reduction bias"):
        TransformSpec(d=2, epsilon=0.5, delta=0.5, m=1, k=2**45, c=1,
                      bucket_seed=1, sign_seed=2, independence_degree=2)


def test_apply_rows_builds_difference_polynomials_once_per_generator():
    # one file of 3 vectors, 3,750 nonzeros: 4 kernel chunks per role (1,170
    # coordinates, the last 240), each difference-seeded, from 2 generators
    spec = TransformSpec(d=2**20, epsilon=0.1, delta=1e-3, m=7, k=2800, c=115,
                         bucket_seed=5, sign_seed=5 + 2**40, independence_degree=14)
    rng = np.random.default_rng(8)
    vectors = [SparseVector(spec.d, tuple(zip(
        np.sort(rng.choice(spec.d, size=1250, replace=False)).tolist(),
        rng.normal(size=1250).tolist()))) for _ in range(3)]
    made = []

    def recorded(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    original = sjlt.transform.new_generator
    with patch.object(sjlt.transform, "new_generator", recorded), \
            patch.object(kwise, "_difference_coefficients",
                         wraps=kwise._difference_coefficients) as built, \
            patch.object(kwise, "_difference_table", wraps=kwise._difference_table) as seeded:
        rows = apply_rows(spec, vectors)
    assert built.call_count == 2 and seeded.call_count == 8
    assert len(made) == 2
    for gen in made:
        table = gen.differences
        assert not table.flags.writeable
        assert np.array_equal(table, kwise._difference_coefficients(gen.coefficients))
        assert gen.differences is table
    for x, row in zip(vectors, rows):
        assert np.array_equal(row, apply_with_generators(x, spec.c, spec.k, *made))
