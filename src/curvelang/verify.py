"""Constructed instances for each theoretical claim, grouped into suites.

The suites are training-free: every instance is built analytically, so
``verify all`` runs in seconds with no checkpoint.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .rng import RngStream
from .splines import build_pair, identity_pair
from .theory import (
    VerificationRecord,
    lemma1_stationarity,
    lemma2_decomposition_check,
    lemma3_bound_check,
    random_fiber_spec,
    relaxation_posterior_check,
)



def _antipodal_vocab() -> np.ndarray:
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    return np.stack([e1, -e1, e2, -e2], axis=1)


def _simplex_vocab() -> np.ndarray:
    """5 unit vectors in 4 dimensions with constant pairwise inner product -1/4."""
    n = 5
    gram_offdiag = -1.0 / 4
    basis = np.eye(n) - np.full((n, n), 1.0 / n)
    u, s, _ = np.linalg.svd(basis)
    pts = (u[:, :4] * np.sqrt(s[:4])).T
    pts /= np.linalg.norm(pts, axis=0, keepdims=True)
    assert np.allclose(pts.T @ pts - np.eye(n), gram_offdiag * (1 - np.eye(n)), atol=1e-9)
    return pts


def _orthonormal_vocab() -> np.ndarray:
    return np.eye(3)


def suite_lemma1(seed: int = 0) -> list[VerificationRecord]:
    records = []
    anti = _antipodal_vocab()
    records.append(lemma1_stationarity(anti, 0))
    simplex = _simplex_vocab()
    rng = RngStream(seed, "lemma1").generator()
    target = int(rng.integers(0, simplex.shape[1]))
    records.append(lemma1_stationarity(simplex, target))
    # hypotheses fail here: reported, not asserted
    records.append(lemma1_stationarity(_orthonormal_vocab(), 0))
    return records


def suite_lemma2(seed: int = 0) -> list[VerificationRecord]:
    records = []
    base = random_fiber_spec(n_curves=4, n_sentences=2, n_conditions=3, seed=seed)
    matched = dataclasses.replace(base, model_table=base.data_table.copy())
    records.append(lemma2_decomposition_check(matched))
    injective = random_fiber_spec(n_curves=3, n_sentences=3, n_conditions=2, seed=seed + 1)
    records.append(lemma2_decomposition_check(injective))
    for i in range(100):
        spec = random_fiber_spec(
            n_curves=4 + (i % 3),
            n_sentences=2 + (i % 2),
            n_conditions=2 + (i % 3),
            seed=seed + 10 + i,
        )
        records.append(lemma2_decomposition_check(spec))
    return records


def suite_lemma3(seed: int = 0) -> list[VerificationRecord]:
    records = []
    records.extend(lemma3_bound_check(identity_pair(6), n_random=5, seed=seed))
    rng = RngStream(seed, "lemma3cfg").generator()
    for i in range(50):
        length = int(rng.integers(3, 24))
        n_points = int(rng.integers(length, 3 * length + 1))
        eta = int(rng.integers(1, min(n_points - 1, 8) + 1))
        pair = build_pair(length, n_points, eta)
        records.extend(lemma3_bound_check(pair, n_random=4, seed=seed + i))
    # rank-deficient pairs are reported but not asserted
    records.extend(lemma3_bound_check(build_pair(10, 4, 2), n_random=4, seed=seed))
    return records


def suite_relaxation(seed: int = 0) -> list[VerificationRecord]:
    records = []
    axes = np.eye(2)
    records.append(relaxation_posterior_check(axes, np.array([1.0, 0.0]), sigma2=1.0))
    same = np.tile(np.array([[0.6], [0.8]]), (1, 5))
    records.append(relaxation_posterior_check(same, np.array([0.6, 0.8]), sigma2=0.5))
    rng = RngStream(seed, "relax").generator()
    E = rng.standard_normal((6, 12))
    E /= np.linalg.norm(E, axis=0, keepdims=True)
    z = rng.standard_normal(6)
    z /= np.linalg.norm(z)
    records.append(relaxation_posterior_check(E, z, sigma2=0.7))
    # off the sphere the identity is only approximate: reported, not asserted
    records.append(relaxation_posterior_check(E, z * 1.1, sigma2=0.7))
    return records


_SUITE_FUNCTIONS = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "relaxation": suite_relaxation,
}
SUITES = (*_SUITE_FUNCTIONS, "all")


def run_suite(name: str, seed: int = 0) -> list[VerificationRecord]:
    if name == "all":
        return [record for suite in _SUITE_FUNCTIONS.values() for record in suite(seed)]
    if name not in _SUITE_FUNCTIONS:
        raise ConfigError(f"unknown suite {name!r}; choices: {SUITES}")
    return _SUITE_FUNCTIONS[name](seed)


def all_asserted_pass(records: list[VerificationRecord]) -> bool:
    return all(r.passed for r in records if r.asserted)


def render_table(records: list[VerificationRecord]) -> str:
    lines = [f"{'claim':<24} {'residual':>12} {'tolerance':>10} {'status':>10}"]
    for r in records:
        status = ("PASS" if r.passed else "FAIL") if r.asserted else "report"
        lines.append(f"{r.claim:<24} {r.residual:>12.3e} {r.tolerance:>10.1e} {status:>10}")
    n_asserted = sum(1 for r in records if r.asserted)
    n_pass = sum(1 for r in records if r.asserted and r.passed)
    lines.append(f"{n_pass}/{n_asserted} asserted checks passed ({len(records) - n_asserted} informational)")
    return "\n".join(lines)
