"""Tests for QUBO representation, evaluation, and the brute-force oracle."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rydqubo.compiler import AtomGraph, DataCopy, try_decode
from rydqubo.errors import CapExceeded, InputError
from rydqubo.qubo import (
    QuboInstance,
    brute_force_minima,
    check_assignment,
    evaluate,
    normalize_to_integers,
    qubo_from_dict,
    qubo_to_dict,
)
from rydqubo.sim import HamiltonianSpec, af_predicate
from test_sim import diagonal_energy

INT64_MAX = 2**63 - 1

F3 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 1})
F4 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): -1})
F7 = QuboInstance(
    n=3,
    linear={0: -2, 1: 1, 2: 2},
    quadratic={(0, 1): 1, (0, 2): 1, (1, 2): -2},
)


def naive_matrix_eval(q: QuboInstance, bits) -> int:
    """Independent oracle: dense upper-triangular matrix quadratic form."""
    Q = np.zeros((q.n, q.n), dtype=np.int64)
    for i, c in q.linear.items():
        Q[i, i] = c
    for (i, j), c in q.quadratic.items():
        Q[i, j] = c
    x = np.array(bits, dtype=np.int64)
    return int(x @ Q @ x)


class TestEvaluate:
    def test_known_minimum_of_f3(self):
        assert evaluate(F3, (1, 0)) == -2

    def test_all_zeros_is_zero(self):
        assert evaluate(F3, (0, 0)) == 0
        assert evaluate(F7, (0, 0, 0)) == 0

    def test_f7_direct_substitution(self):
        assert evaluate(F7, (1, 0, 0)) == -2
        # Cross-check every assignment against the full expansion.
        for bits in product((0, 1), repeat=3):
            x1, x2, x3 = bits
            expanded = -2 * x1 + x2 + 2 * x3 + x1 * x2 + x1 * x3 - 2 * x2 * x3
            assert evaluate(F7, bits) == expanded

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            evaluate(F3, (1, 0, 1))

    def test_non_binary_rejected(self):
        with pytest.raises(InputError):
            evaluate(F3, (1, 2))

    def test_agrees_with_matrix_expansion_on_random_pairs(self):
        rng = random.Random(404)
        for _ in range(1000):
            n = rng.randint(1, 6)
            linear = {i: rng.randint(-100, 100) for i in range(n) if rng.random() < 0.8}
            quadratic = {
                (i, j): rng.randint(-100, 100)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            }
            q = QuboInstance(n=n, linear=linear, quadratic=quadratic)
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            assert evaluate(q, bits) == naive_matrix_eval(q, bits)


def bits_id(bits) -> str:
    return f"{bits.dtype}{list(bits.shape)}" if isinstance(bits, np.ndarray) else repr(bits)


class TestBitConfigurations:
    """``check_assignment`` is the one reader behind every bit configuration."""

    N = 4
    # One bit per variable or atom; each reader's output identifies the bits.
    GRAPH = AtomGraph([DataCopy(var=v, copy_index=1) for v in range(N)], [])
    QUBO = QuboInstance(n=N, linear={i: 1 << i for i in range(N)})
    SPEC = HamiltonianSpec(n=N, detuning_weights=tuple(1 << i for i in range(N)))

    def readers(self):
        return {
            "decode": lambda bits: try_decode(self.GRAPH, bits),
            "evaluate": lambda bits: evaluate(self.QUBO, bits),
            "diagonal_energy": lambda bits: diagonal_energy(self.SPEC, -1.0, bits),
        }

    @pytest.mark.parametrize(
        "bits",
        [
            5,
            None,
            "1x00",
            "101",
            "10100",
            [2, 0, 0, 0],
            [0.5, 0, 0, 0],
            ["1", "0", "0", "0"],
            (1, 0, 1),
            np.zeros(5, dtype=np.int64),
            np.zeros((4, 2), dtype=np.int64),
        ],
        ids=bits_id,
    )
    @pytest.mark.parametrize("reader", ["decode", "evaluate", "diagonal_energy"])
    def test_malformed_configuration_rejected(self, reader, bits):
        with pytest.raises(InputError):
            self.readers()[reader](bits)

    @pytest.mark.parametrize(
        "bits",
        [
            "1011",
            (1, 0, 1, 1),
            [True, False, True, True],
            np.array([1, 0, 1, 1], dtype=np.int64),
            np.array([1, 0, 1, 1], dtype=np.uint8),
            [1.0, 0, 1, 1],
        ],
        ids=bits_id,
    )
    def test_valid_forms_read_the_same_bits(self, bits):
        expected = (1, 0, 1, 1)
        index = sum(b << i for i, b in enumerate(expected))
        assert check_assignment(self.N, bits) == expected
        assert all(type(b) is int for b in check_assignment(self.N, bits))
        readers = self.readers()
        assert readers["decode"](bits) == expected
        assert readers["evaluate"](bits) == index
        assert readers["diagonal_energy"](bits) == index

    def test_af_predicate_checks_the_length(self):
        pred = af_predicate(self.GRAPH)
        assert pred("1011") and pred((1, 0, 1, 1))
        for bits in ("101", "10110", (1, 0, 1)):
            with pytest.raises(InputError, match="does not have 4 entries"):
                pred(bits)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        q = QuboInstance(n=2, linear={0: 0, 1: 3}, quadratic={(0, 1): 0})
        assert q.linear == {1: 3}
        assert q.quadratic == {}

    def test_key_order_enforced(self):
        with pytest.raises(InputError):
            QuboInstance(n=2, quadratic={(1, 0): 1})
        with pytest.raises(InputError):
            QuboInstance(n=2, quadratic={(0, 0): 1})

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            QuboInstance(n=2, linear={2: 1})

    def test_float_coefficient_rejected(self):
        # Decimal(3) had passed through int(); it is no numbers.Integral.
        for bad in (0.5, 2.0, Fraction(2), Decimal(3), True, "1", None):
            with pytest.raises(InputError, match=r"linear\[0\] must be an integer"):
                QuboInstance(n=1, linear={0: bad})

    def test_int64_bound_is_hard_error(self):
        QuboInstance(n=1, linear={0: 2**63 - 1})
        with pytest.raises(CapExceeded):
            QuboInstance(n=1, linear={0: 2**63})


class TestNormalize:
    def test_halves_and_quarters(self):
        q = normalize_to_integers({0: Fraction(-1, 2)}, {(0, 1): Fraction(1, 4)})
        assert q.scale == 4
        assert q.linear == {0: -2}
        assert q.quadratic == {(0, 1): 1}

    def test_integer_input_is_identity(self):
        q = normalize_to_integers({0: -3, 1: 2}, {(0, 1): 5})
        assert q.scale == 1
        assert q.linear == {0: -3, 1: 2}
        assert q.quadratic == {(0, 1): 5}

    def test_thirds_and_halves_preserve_argmin(self):
        lin = {0: Fraction(-2, 3), 1: Fraction(1, 2)}
        q = normalize_to_integers(lin, {})
        assert q.scale == 6
        assert q.linear == {0: -4, 1: 3}
        # Oracle: exact rational evaluation of the unscaled function.
        def rational_value(bits):
            return sum(c * b for c, b in zip((lin[0], lin[1]), bits))

        values = {bits: rational_value(bits) for bits in product((0, 1), repeat=2)}
        best = min(values.values())
        rational_argmin = {bits for bits, v in values.items() if v == best}
        _, scaled_argmin = brute_force_minima(q)
        assert set(scaled_argmin) == rational_argmin

    def test_float_rejected(self):
        with pytest.raises(InputError):
            normalize_to_integers({0: 0.5}, {})

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            normalize_to_integers({}, {})
        with pytest.raises(InputError):
            normalize_to_integers({0: Fraction(0)}, {})

    @pytest.mark.parametrize("key", [5, (0, 1, 2)])
    def test_quadratic_key_not_a_pair(self, key):
        with pytest.raises(InputError, match="is not a pair"):
            normalize_to_integers({}, {key: 1})


class TestBruteForce:
    def test_f3_unique_minimum(self):
        value, argmin = brute_force_minima(F3)
        assert value == -2
        assert set(argmin) == {(1, 0)}

    def test_f4_degenerate_minimum(self):
        value, argmin = brute_force_minima(F4)
        assert value == -2
        assert set(argmin) == {(1, 0), (1, 1)}

    def test_constant_function_returns_everything(self):
        q = QuboInstance(n=2)
        value, argmin = brute_force_minima(q)
        assert value == 0
        assert set(argmin) == set(product((0, 1), repeat=2))

    def test_cap_enforced(self):
        q = QuboInstance(n=25, linear={0: -1})
        with pytest.raises(CapExceeded):
            brute_force_minima(q)

    def test_members_attain_minimum_and_nothing_beats_it(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            q = QuboInstance(
                n=n,
                linear={i: rng.randint(-3, 3) for i in range(n)},
                quadratic={
                    (i, j): rng.randint(-3, 3) for i in range(n) for j in range(i + 1, n)
                },
            )
            value, argmin = brute_force_minima(q)
            assert argmin
            assert all(evaluate(q, a) == value for a in argmin)
            for bits in product((0, 1), repeat=n):
                assert evaluate(q, bits) >= value
                if evaluate(q, bits) == value:
                    assert bits in argmin

    def test_huge_coefficients_use_exact_path(self):
        big = 2**62
        q = QuboInstance(n=2, linear={0: -big, 1: big}, quadratic={(0, 1): big})
        value, argmin = brute_force_minima(q)
        assert value == -big
        assert set(argmin) == {(1, 0)}

    def test_extreme_coefficients_match_an_exact_enumeration(self):
        # Coefficient sums far beyond int64 as well as ones that just fit.
        pool = (INT64_MAX, -INT64_MAX, 2**62, -(2**62), 3, -2, 1, 0)
        rng = random.Random(63)
        for _ in range(150):
            n = rng.randint(1, 6)
            q = QuboInstance(
                n=n,
                linear={i: rng.choice(pool) for i in range(n)},
                quadratic={
                    (i, j): rng.choice(pool) for i in range(n) for j in range(i + 1, n)
                },
            )
            values = {bits: evaluate(q, bits) for bits in product((0, 1), repeat=n)}
            best = min(values.values())
            expected = tuple(sorted(bits for bits, v in values.items() if v == best))
            assert brute_force_minima(q) == (best, expected)

    def test_scaling_preserves_argmin(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(1, 4)
            q = QuboInstance(
                n=n,
                linear={i: rng.randint(-4, 4) for i in range(n)},
                quadratic={
                    (i, j): rng.randint(-4, 4) for i in range(n) for j in range(i + 1, n)
                },
            )
            factor = rng.choice((2, 3, 7))
            value, argmin = brute_force_minima(q)
            scaled = QuboInstance(
                n=n,
                linear={i: factor * c for i, c in q.linear.items()},
                quadratic={pair: factor * w for pair, w in q.quadratic.items()},
            )
            scaled_value, scaled_argmin = brute_force_minima(scaled)
            assert scaled_value == factor * value
            assert scaled_argmin == argmin


class TestJson:
    def test_round_trip(self):
        doc = qubo_to_dict(F7)
        assert doc == {
            "n": 3,
            "linear": {"1": -2, "2": 1, "3": 2},
            "quadratic": [
                {"i": 1, "j": 2, "w": 1},
                {"i": 1, "j": 3, "w": 1},
                {"i": 2, "j": 3, "w": -2},
            ],
        }
        assert qubo_from_dict(doc) == F7

    def test_scale_is_written_only_when_not_one(self):
        assert "scale" not in qubo_to_dict(F7)
        for factor in (Fraction(12), Fraction(3, 2)):
            q = QuboInstance(n=1, linear={0: 1}, scale=factor)
            doc = qubo_to_dict(q)
            assert doc["scale"] == str(factor)
            assert qubo_from_dict(doc) == q

    @pytest.mark.parametrize("scale", ["0", "-2", "1/0", "x", 12, None, True], ids=repr)
    def test_malformed_scale_rejected(self, scale):
        with pytest.raises(InputError, match="scale"):
            qubo_from_dict({"n": 1, "scale": scale})

    def test_one_based_indices_enforced(self):
        with pytest.raises(InputError):
            qubo_from_dict({"n": 2, "linear": {"0": 1}, "quadratic": []})

    def test_i_less_than_j_enforced(self):
        with pytest.raises(InputError):
            qubo_from_dict({"n": 2, "linear": {}, "quadratic": [{"i": 2, "j": 1, "w": 1}]})

    def test_duplicate_entries_rejected(self):
        with pytest.raises(InputError):
            qubo_from_dict(
                {
                    "n": 2,
                    "linear": {},
                    "quadratic": [{"i": 1, "j": 2, "w": 1}, {"i": 1, "j": 2, "w": 2}],
                }
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(InputError):
            qubo_from_dict({"n": 1, "linear": {}, "quadratic": [], "offset": 3})
