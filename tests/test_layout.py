import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhekit.layout import (
    Layout,
    apply_operator,
    assemble_ket,
    embed_operator,
    reduced_from_ket,
)
from qhekit.linalg import basis_ket, kron, random_ket, random_unitary
from qhekit_reference import block_diagonal, circuit_major, partial_trace, peak_bytes, schmidt

BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
PLUS = np.array([1, 1]) / np.sqrt(2)


def two_qubits():
    return Layout((("a", 2), ("b", 2)))


def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        Layout((("a", 2), ("a", 2)))


@pytest.mark.parametrize(
    "registers, message",
    [
        (((7, 2), ("b", 3)), "register label 7 is not a string"),
        ((("a", 2.9), ("b", 3)), "register 'a' has dimension 2.9, not an integer"),
        ((("a", 2), ("b", "3")), "register 'b' has dimension '3', not an integer"),
    ],
    ids=["int-label", "float-dim", "string-dim"],
)
def test_layout_refuses_non_string_labels_and_non_integer_dims(registers, message):
    with pytest.raises(TypeError, match=message):
        Layout(registers)


def test_layout_reads_numpy_integer_dims_as_int():
    layout = Layout((("a", np.int64(2)), ("b", np.uint8(3))))
    assert layout.registers == (("a", 2), ("b", 3))
    assert all(type(dim) is int for dim in layout.dims)


def test_layout_rejects_dimension_one():
    with pytest.raises(ValueError, match="dimension 1"):
        Layout((("a", 1),))


def test_layout_rejects_oversize_total():
    with pytest.raises(ValueError, match="guard"):
        Layout((("a", 2**8), ("b", 2**7)))


def test_layout_first_register_most_significant():
    layout = Layout((("a", 2), ("b", 3)))
    psi = assemble_ket(layout, [(("a",), basis_ket(2, 1)), (("b",), basis_ket(3, 2))])
    np.testing.assert_allclose(psi, basis_ket(6, 1 * 3 + 2))


def test_partial_trace_bell_is_maximally_mixed():
    rho = np.outer(BELL, BELL.conj())
    reduced = partial_trace(rho, two_qubits(), ["a"])
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rho_a = np.diag([0.25, 0.75]).astype(complex)
    rho_b = np.outer(PLUS, PLUS.conj())
    reduced = partial_trace(kron(rho_a, rho_b), two_qubits(), ["a"])
    np.testing.assert_allclose(reduced, rho_a, atol=1e-12)


def test_partial_trace_all_registers_gives_unit_scalar():
    rho = np.outer(BELL, BELL.conj())
    out = partial_trace(rho, two_qubits(), [])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    reduced = partial_trace(rho, layout, ["b"])
    assert abs(np.trace(reduced) - 1) < 1e-12


def test_partial_trace_commutes_with_mixing():
    rng = np.random.default_rng(5)
    layout = two_qubits()
    kets = [random_ket(4, seed) for seed in range(4)]
    weights = rng.random(4)
    weights /= weights.sum()
    mixed = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    lhs = partial_trace(mixed, layout, ["a"])
    rhs = sum(
        w * partial_trace(np.outer(k, k.conj()), layout, ["a"]) for w, k in zip(weights, kets)
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_trace_rejects_unknown_label():
    with pytest.raises(ValueError, match="not in layout"):
        partial_trace(np.eye(4, dtype=complex) / 4, two_qubits(), ["nope"])


def test_reduced_from_ket_matches_dense_partial_trace():
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    psi = random_ket(12, 7)
    rho = np.outer(psi, psi.conj())
    for keep in (["a"], ["b"], ["a", "c"], ["b", "c"]):
        np.testing.assert_allclose(
            reduced_from_ket(psi, layout, keep), partial_trace(rho, layout, keep), atol=1e-12
        )


def test_apply_operator_matches_embedding():
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    op = random_unitary(6, 3)  # acts on (c, b), deliberately out of layout order
    psi = random_ket(12, 11)
    via_tensordot = apply_operator(psi, layout, op, ("c", "b"))
    via_embedding = embed_operator(op, layout, ("c", "b")) @ psi
    np.testing.assert_allclose(via_tensordot, via_embedding, atol=1e-12)


_FOUR = Layout((("a", 2), ("b", 3), ("c", 2), ("d", 2)))


@pytest.mark.parametrize(
    "labels", [("d", "a"), ("c", "a"), ("a", "c", "d"), ("d", "c", "b", "a"), ("b",)]
)
@pytest.mark.parametrize("batch", [None, 3])
def test_apply_operator_reversed_and_non_adjacent_footprints(labels, batch):
    op = random_unitary(_FOUR.dim_of(labels), 5)
    shape = (_FOUR.dim,) if batch is None else (_FOUR.dim, batch)
    psi = random_ket(math.prod(shape), 6).reshape(shape)
    out = apply_operator(psi, _FOUR, op, labels)
    assert out.shape == shape
    np.testing.assert_allclose(out, embed_operator(op, _FOUR, labels) @ psi, rtol=0, atol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_apply_operator_matches_embedding_on_random_footprints(data):
    dims = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    layout = Layout(tuple((f"r{i}", d) for i, d in enumerate(dims)))
    order = data.draw(st.permutations(layout.labels))
    labels = tuple(order[: data.draw(st.integers(1, len(order)))])
    batch = data.draw(st.one_of(st.none(), st.integers(1, 3)))
    seed = data.draw(st.integers(0, 2**16))
    shape = (layout.dim,) if batch is None else (layout.dim, batch)
    psi = random_ket(math.prod(shape), seed).reshape(shape)
    op = random_unitary(layout.dim_of(labels), seed)
    out = apply_operator(psi, layout, op, labels)
    assert out.shape == shape
    np.testing.assert_allclose(out, embed_operator(op, layout, labels) @ psi, rtol=0, atol=1e-12)


def test_layout_cached_attributes_match_registers():
    registers = (("x", 3), ("a", 2), ("m", 4))
    layout = Layout(registers)
    assert layout.labels == ("x", "a", "m")
    assert layout.dims == (3, 2, 4)
    assert layout.dim == 24 and type(layout.dim) is int
    assert [layout.position(label) for label, _ in registers] == [0, 1, 2]
    assert layout.dim_of(("m", "x")) == 12
    assert layout.ordered(("m", "x")) == ("x", "m")
    assert layout.complement(("a",)) == ("x", "m")
    # Equality, hashing and repr still see only the registers.
    assert layout == Layout(registers) and hash(layout) == hash(Layout(registers))
    assert repr(layout) == f"Layout(registers={registers!r})"


def test_layout_unknown_label_errors_unchanged():
    layout = Layout((("x", 3), ("a", 2)))
    with pytest.raises(ValueError, match=r"^label 'q' not in layout \('x', 'a'\)$"):
        layout.position("q")
    with pytest.raises(ValueError, match=r"^label 'q' not in layout \('x', 'a'\)$"):
        layout.dim_of(("a", "q"))
    with pytest.raises(ValueError, match=r"^labels \['q'\] not in layout \('x', 'a'\)$"):
        layout.ordered(("q", "a"))


def test_embed_operator_identity_complement():
    layout = two_qubits()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(embed_operator(x, layout, ("b",)), kron(np.eye(2), x))


def test_assemble_ket_multi_register_block_out_of_order():
    layout = Layout((("a", 2), ("b", 2), ("c", 2)))
    block = random_ket(4, 2)  # lives on (c, a) in that order
    psi = assemble_ket(layout, [(("c", "a"), block), (("b",), basis_ket(2, 1))])
    # amplitude of |a, b, c> must equal block[c*2 + a] when b = 1
    expect = np.zeros(8, dtype=complex)
    for a in range(2):
        for c in range(2):
            expect[a * 4 + 1 * 2 + c] = block[c * 2 + a]
    np.testing.assert_allclose(psi, expect, atol=1e-12)


def test_assemble_ket_rejects_partial_cover():
    layout = two_qubits()
    with pytest.raises(ValueError, match="cover"):
        assemble_ket(layout, [(("a",), basis_ket(2, 0))])


def test_schmidt_bell_coefficients():
    coeffs, left, right = schmidt(BELL, two_qubits(), ["a"])
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    rebuilt = sum(c * kron(left[:, k], right[:, k]) for k, c in enumerate(coeffs))
    np.testing.assert_allclose(rebuilt, BELL, atol=1e-9)


def test_schmidt_product_state_single_coefficient():
    psi = kron(basis_ket(2, 0), PLUS)
    coeffs, _, _ = schmidt(psi, two_qubits(), ["a"])
    assert coeffs.shape == (1,)
    np.testing.assert_allclose(coeffs, [1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_schmidt_squares_match_reduced_eigenvalues(seed):
    layout = Layout((("a", 3), ("b", 3)))
    psi = random_ket(9, seed)
    coeffs, left, right = schmidt(psi, layout, ["a"])
    evals = np.linalg.eigvalsh(reduced_from_ket(psi, layout, ["a"]))[::-1]
    np.testing.assert_allclose(np.sort(coeffs**2)[::-1], evals[: coeffs.size], atol=1e-9)
    assert abs(np.sum(coeffs**2) - 1) <= 1e-10
    for vecs in (left, right):
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(coeffs.size))) <= 1e-10
    rebuilt = sum(c * kron(left[:, k], right[:, k]) for k, c in enumerate(coeffs))
    assert np.max(np.abs(rebuilt - psi)) <= 1e-9


def test_schmidt_rejects_empty_side():
    with pytest.raises(ValueError, match="non-empty"):
        schmidt(BELL, two_qubits(), [])


def random_kets(dim, seeds):
    return np.stack([random_ket(dim, seed) for seed in seeds], axis=1)


def test_apply_operator_batch_matches_columns():
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    op = random_unitary(6, 3)
    kets = random_kets(12, range(5))
    batched = apply_operator(kets, layout, op, ("c", "b"))
    assert batched.shape == (12, 5)
    for k in range(5):
        np.testing.assert_allclose(
            batched[:, k], apply_operator(kets[:, k], layout, op, ("c", "b")), rtol=0, atol=1e-14
        )


@pytest.mark.parametrize("batch", [None, 3])
def test_apply_operator_stack_matches_one_call_per_operator(batch):
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    ops = np.stack([random_unitary(6, seed) for seed in range(4)])
    kets = random_kets(12, range(30, 33)) if batch else random_ket(12, 30)
    stacked = apply_operator(kets, layout, ops, ("c", "b"))
    assert stacked.shape == (12, 4) + kets.shape[1:]
    for k, op in enumerate(ops):
        assert np.array_equal(stacked[:, k], apply_operator(kets, layout, op, ("c", "b")))


def test_reduced_from_ket_batch_matches_columns():
    layout = Layout((("a", 2), ("b", 3), ("c", 2)))
    kets = random_kets(12, range(20, 24))
    for keep in ([], ["a"], ["b"], ["a", "c"], ["a", "b", "c"]):
        batched = reduced_from_ket(kets, layout, keep)
        d = layout.dim_of(keep) if keep else 1
        assert batched.shape == (4, d, d)
        for k in range(4):
            np.testing.assert_allclose(
                batched[k], reduced_from_ket(kets[:, k], layout, keep), rtol=0, atol=1e-14
            )


def test_reduced_from_ket_empty_keep_is_squared_norm():
    psi = 0.5 * random_ket(4, 1)
    np.testing.assert_allclose(reduced_from_ket(psi, two_qubits(), []), [[0.25]], atol=1e-15)


def _blocks(c, b, seed):
    return np.stack([random_unitary(b, seed + k) for k in range(c)])


@pytest.mark.parametrize(
    "control, labels",
    [("a", ("c",)), ("d", ("b",)), ("b", ("d", "a")), ("c", ("a", "d")), ("b", ("a",))],
    ids=["before", "after", "between", "around", "adjacent"],
)
@pytest.mark.parametrize("batch", [None, 3])
def test_apply_operator_with_control_matches_dense_block_diagonal(control, labels, batch):
    blocks = _blocks(_FOUR.dim_of([control]), _FOUR.dim_of(labels), 40)
    shape = (_FOUR.dim,) if batch is None else (_FOUR.dim, batch)
    psi = random_ket(math.prod(shape), 7).reshape(shape)
    out = apply_operator(psi, _FOUR, blocks, labels, control)
    assert out.shape == shape
    dense = embed_operator(block_diagonal(blocks), _FOUR, (control, *labels))
    np.testing.assert_allclose(out, dense @ psi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [None, 3])
def test_apply_operator_with_control_stacks_operators_like_one_call_each(batch):
    ops = np.stack([_blocks(2, 3, seed) for seed in (0, 10)])
    kets = random_kets(_FOUR.dim, range(3)) if batch else random_ket(_FOUR.dim, 0)
    stacked = apply_operator(kets, _FOUR, ops, ("b",), "d")
    assert stacked.shape == (_FOUR.dim, 2) + kets.shape[1:]
    for k, op in enumerate(ops):
        assert np.array_equal(stacked[:, k], apply_operator(kets, _FOUR, op, ("b",), "d"))


def _circuit_batch(n, m):
    """A (dim, n, m) batch of _FOUR kets as a stacked call returns it, circuit-major."""
    ops = np.stack([random_unitary(3, seed) for seed in range(n)])
    return apply_operator(random_kets(_FOUR.dim, range(50, 50 + m)), _FOUR, ops, ("b",))


def _operator(labels, control, seed):
    block = _FOUR.dim_of(labels)
    return _blocks(_FOUR.dim_of([control]), block, seed) if control else random_unitary(block, seed)


_FOOTPRINTS = [
    pytest.param(("a", "b"), None, id="leading"),
    pytest.param(("c", "a"), None, id="reversed-apart"),
    pytest.param(("d", "b"), None, id="reversed-apart-trailing"),
    pytest.param(("a",), "b", id="leading-controlled"),
    pytest.param(("d", "a"), "b", id="reversed-controlled-between"),
    pytest.param(("c",), "a", id="controlled-before"),
]


@pytest.mark.parametrize("contiguous", [False, True], ids=["circuit-major", "c-contiguous"])
@pytest.mark.parametrize("labels, control", _FOOTPRINTS)
def test_apply_operator_leading_batch_axis_matches_one_call_per_circuit(
    labels, control, contiguous
):
    # A (dim, n, m) batch, as a stacked call returns it or C-contiguous,
    # gives bit for bit what n (dim, m) calls give, and comes back circuit-major.
    kets = _circuit_batch(4, 3)
    assert circuit_major(kets)
    if contiguous:
        kets = np.ascontiguousarray(kets)
    op = _operator(labels, control, 60)
    out = apply_operator(kets, _FOUR, op, labels, control)
    assert out.shape == (_FOUR.dim, 4, 3) and circuit_major(out)
    for k in range(4):
        one = apply_operator(np.ascontiguousarray(kets[:, k]), _FOUR, op, labels, control)
        assert np.array_equal(out[:, k], one)


@pytest.mark.parametrize("labels, control", [(("a", "b"), None), (("a",), "b")])
def test_apply_operator_reads_a_circuit_major_batch_in_place(labels, control):
    # With the footprint and control leading the layout, the call allocates
    # its result and nothing of the batch's size besides.
    kets = _circuit_batch(16, 64)
    op = _operator(labels, control, 70)
    out, peak = peak_bytes(lambda: apply_operator(kets, _FOUR, op, labels, control))
    assert circuit_major(out)
    assert peak <= 1.1 * kets.nbytes


@pytest.mark.parametrize("labels, control", [(("c", "b"), None), (("b",), "d")])
def test_apply_operator_stack_on_a_leading_batch_axis_keeps_every_axis(labels, control):
    kets = _circuit_batch(4, 3)
    ops = np.stack([_operator(labels, control, seed) for seed in (80, 90)])
    stacked = apply_operator(kets, _FOUR, ops, labels, control)
    assert stacked.shape == (_FOUR.dim, 2, 4, 3)
    for s, op in enumerate(ops):
        assert np.array_equal(stacked[:, s], apply_operator(kets, _FOUR, op, labels, control))


@pytest.mark.parametrize(
    "op, labels, control, message",
    [
        (_blocks(3, 2, 0), ("a",), "c", r"operator shape \(3, 2, 2\) does not match"),
        (random_unitary(2, 0), ("a",), "c", r"operator shape \(2, 2\) does not match"),
        (_blocks(2, 2, 0), ("a",), "a", "repeated labels"),
    ],
    ids=["block-count", "no-control-axis", "control-in-footprint"],
)
def test_apply_operator_refuses_a_control_that_does_not_fit(op, labels, control, message):
    with pytest.raises(ValueError, match=message):
        apply_operator(random_ket(_FOUR.dim, 0), _FOUR, op, labels, control)
