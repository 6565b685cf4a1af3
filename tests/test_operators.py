import dataclasses

import numpy as np
import pytest

from varwit import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    Povm,
    PureState,
    eig_hermitian,
    expectation,
    identity,
    moment_pair,
    moments,
    projective_povm,
    spin1_components,
    tensor,
    variance,
)
from helpers import random_density, random_hermitian, random_povm, random_pure

SQ2 = 1.0 / np.sqrt(2.0)


def test_hermitian_operator_accepts_hermitian_matrix():
    op = HermitianOperator(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]]))
    assert op.dim == 2
    assert np.allclose(op.entries, op.entries.conj().T)


def test_hermitian_operator_rejects_asymmetry():
    with pytest.raises(ValueError, match="asymmetry"):
        HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_constructors_reject_a_nan_entry():
    # a tolerance check written as `x > tol` would let NaN through
    nan_diag = np.diag([np.nan, 0.5, 0.5])
    lx, _, _ = spin1_components()
    bad = (
        lambda: HermitianOperator(nan_diag),
        lambda: PureState(np.array([np.nan, 0.0, 0.0])),
        lambda: DensityMatrix(nan_diag),
        lambda: Povm(outcomes=(1.0, -1.0), elements=(nan_diag, np.eye(3) - nan_diag)),
        lambda: MomentPair(first=lx, second=nan_diag),
    )
    for build in bad:
        with pytest.raises(ValueError):
            build()


def test_hermitian_operator_rejects_dim_one():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[1.0]]))


def test_hermitian_operator_is_immutable():
    op = HermitianOperator(np.eye(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.entries = np.zeros((3, 3))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_hermitian_operator_json_round_trip():
    rng = np.random.default_rng(7)
    op = random_hermitian(rng, 4)
    payload = op.to_dict()
    assert set(payload) == {"dim", "entries"}
    assert payload["dim"] == 4
    assert len(payload["entries"]) == 4
    assert len(payload["entries"][0][0]) == 2
    back = HermitianOperator.from_dict(payload)
    assert np.array_equal(back.entries, op.entries)
    for dim in (4.5, 4.0, True, "4", 3):
        with pytest.raises(ValueError, match="dim field"):
            HermitianOperator.from_dict(dict(payload, dim=dim))


def test_pure_state_norm_validation():
    PureState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0, 0.0]))


def test_pure_state_density_and_json():
    rng = np.random.default_rng(3)
    psi = random_pure(rng, 3)
    rho = psi.density()
    assert abs(np.trace(rho.matrix.entries) - 1.0) < 1e-12
    back = PureState.from_dict(psi.to_dict())
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    for dim in (3.7, 3.0, True, "3", 2):
        with pytest.raises(ValueError, match="dim field"):
            PureState.from_dict(dict(psi.to_dict(), dim=dim))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0]))  # not PSD
    rho = DensityMatrix.from_pure(PureState(np.array([0.0, 1.0, 0.0])))
    assert rho.dim == 3


def test_povm_requires_completeness():
    with pytest.raises(ValueError):
        Povm(outcomes=(1.0, -1.0), elements=(np.eye(3) / 2, np.eye(3) / 3))


def test_povm_rejects_non_real_outcomes():
    with pytest.raises(ValueError):
        Povm(outcomes=(1.0 + 1j,), elements=(np.eye(3),))


def test_povm_single_element_identity_is_valid():
    p = Povm(outcomes=(1.0,), elements=(np.eye(3),))
    assert len(p.outcomes) == 1
    assert p.dim == 3


def test_povm_json_round_trip():
    rng = np.random.default_rng(11)
    p = random_povm(rng, 3, 4)
    payload = p.to_dict()
    assert set(payload) == {"outcomes", "elements"}
    back = Povm.from_dict(payload)
    assert list(back.outcomes) == list(p.outcomes)
    for a, b in zip(back.elements, p.elements):
        assert np.array_equal(a.entries, b.entries)


def test_moment_pair_rejects_negative_variance_operator():
    lx, _, _ = spin1_components()
    with pytest.raises(ValueError):
        MomentPair(first=lx, second=HermitianOperator(np.zeros((3, 3))))


def test_eig_hermitian_diagonal():
    vals, vecs = eig_hermitian(HermitianOperator(np.diag([1.0, 0.0, -1.0])))
    assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-14)
    for v in vecs:
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-12


def test_eig_hermitian_spin1_lx():
    lx, _, _ = spin1_components()
    vals, vecs = eig_hermitian(lx)
    assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)
    # eigenvector of +1 is (1/2, 1/sqrt2, 1/2) up to phase; compare projectors
    v = np.array([0.5, SQ2, 0.5])
    got = np.outer(vecs[2].amplitudes, vecs[2].amplitudes.conj())
    assert np.max(np.abs(got - np.outer(v, v))) < 1e-10


def test_eig_hermitian_identity():
    vals, _ = eig_hermitian(identity(3))
    assert np.allclose(vals, [1.0, 1.0, 1.0], atol=1e-14)


def test_eig_hermitian_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        dim = int(rng.integers(2, 10))
        op = random_hermitian(rng, dim)
        vals, vecs = eig_hermitian(op)
        assert np.all(np.diff(vals) >= -1e-12)
        recon = sum(
            lam * np.outer(v.amplitudes, v.amplitudes.conj())
            for lam, v in zip(vals, vecs)
        )
        assert np.linalg.norm(recon - op.entries) < 1e-10


def test_eig_hermitian_rejects_non_hermitian_input():
    with pytest.raises(ValueError, match="asymmetry"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spin1_components_match_known_matrices():
    lx, ly, lz = spin1_components()
    assert abs(lx.entries[0, 1] - SQ2) < 1e-15
    assert np.array_equal(lz.entries, np.diag([1.0, 0.0, -1.0]))
    lx2 = lx.entries @ lx.entries
    assert np.allclose(
        lx2, 0.5 * np.array([[1, 0, 1], [0, 2, 0], [1, 0, 1]]), atol=1e-15
    )


def test_spin1_commutators():
    lx, ly, lz = spin1_components()
    comm = lx.entries @ ly.entries - ly.entries @ lx.entries
    assert np.max(np.abs(comm - 1j * lz.entries)) < 1e-12
    comm = ly.entries @ lz.entries - lz.entries @ ly.entries
    assert np.max(np.abs(comm - 1j * lx.entries)) < 1e-12


def test_projective_povm_diagonal():
    p = projective_povm(HermitianOperator(np.diag([1.0, 0.0, -1.0])))
    assert sorted(p.outcomes) == [-1.0, 0.0, 1.0]
    for e in p.elements:
        assert abs(np.trace(e.entries).real - 1.0) < 1e-12


def test_projective_povm_identity_single_outcome():
    p = projective_povm(identity(3))
    assert len(p.outcomes) == 1
    assert abs(p.outcomes[0] - 1.0) < 1e-12
    assert np.allclose(p.elements[0].entries, np.eye(3), atol=1e-12)


def test_projective_povm_spin1_plus_projector():
    lx, _, _ = spin1_components()
    p = projective_povm(lx)
    idx = int(np.argmax(p.outcomes))
    v = np.array([0.5, SQ2, 0.5])
    assert np.max(np.abs(p.elements[idx].entries - np.outer(v, v))) < 1e-10


def test_projective_povm_merges_degenerate_cluster():
    op = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 0.0]))
    p = projective_povm(op)
    assert len(p.outcomes) == 2
    recon = sum(x * e.entries for x, e in zip(p.outcomes, p.elements))
    assert np.max(np.abs(recon - op.entries)) < 1e-10


def test_projective_povm_reconstructs_random_operators():
    rng = np.random.default_rng(5)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        op = random_hermitian(rng, dim)
        p = projective_povm(op)
        first, second = moments(p, 2)
        assert np.max(np.abs(first.entries - op.entries)) < 1e-10
        assert np.max(np.abs(second.entries - op.entries @ op.entries)) < 1e-10


def test_moments_projective_spin1():
    lx, _, _ = spin1_components()
    first, second = moments(projective_povm(lx), 2)
    assert np.max(np.abs(first.entries - lx.entries)) < 1e-12
    assert np.max(np.abs(second.entries - lx.entries @ lx.entries)) < 1e-12


def test_moments_coin_flip_povm():
    p = Povm(outcomes=(1.0, -1.0), elements=(np.eye(3) / 2, np.eye(3) / 2))
    first, second = moments(p, 2)
    assert np.max(np.abs(first.entries)) < 1e-15
    assert np.max(np.abs(second.entries - np.eye(3))) < 1e-15


def test_moments_requires_positive_order():
    lx, _, _ = spin1_components()
    with pytest.raises(ValueError):
        moments(projective_povm(lx), 0)


def test_random_povm_moment_pair_variance_psd():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        povm = random_povm(rng, dim, int(rng.integers(2, 5)))
        pair = moment_pair(povm)
        var_op = pair.variance_operator()
        assert np.linalg.eigvalsh(var_op.entries)[0] > -1e-10


def test_tensor_identities():
    eye3 = identity(3)
    assert np.array_equal(tensor(eye3, eye3).entries, np.eye(9))
    diag = HermitianOperator(np.diag([1.0, 0.0, -1.0]))
    got = tensor(diag, eye3)
    assert np.array_equal(
        np.diag(got.entries).real, [1, 1, 1, 0, 0, 0, -1, -1, -1]
    )


def test_tensor_spin1_trace():
    lx, _, _ = spin1_components()
    prod = tensor(lx, lx)
    assert prod.dim == 9
    assert abs(np.trace(prod.entries)) < 1e-14


def test_expectation_examples():
    lx, _, _ = spin1_components()
    mixed = DensityMatrix(np.eye(3) / 3.0)
    lx2 = HermitianOperator(lx.entries @ lx.entries)
    assert abs(expectation(mixed, lx2) - 2.0 / 3.0) < 1e-14
    rng = np.random.default_rng(1)
    psi = random_pure(rng, 3)
    assert abs(expectation(psi, identity(3)) - 1.0) < 1e-12
    _, vecs = eig_hermitian(lx)
    assert abs(expectation(vecs[2], lx) - 1.0) < 1e-12


def test_expectation_dim_mismatch():
    lx, _, _ = spin1_components()
    with pytest.raises(ValueError):
        expectation(PureState(np.array([1.0, 0.0])), lx)


def test_variance_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        povm = random_povm(rng, dim, 3)
        pair = moment_pair(povm)
        state = random_density(rng, dim)
        assert variance(state, pair) > -1e-10
