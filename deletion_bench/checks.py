"""Correctness checks, computed with plain numpy apart from the package.

(a) exact k-NN Shapley values from direct differences and a lexsort on
    (distance, id), and the efficiency property (values sum to the utility);
(b) the gradient residual on the remaining rows and the paper's threshold
    lam * eps1'(t);
(c) the value-to-weight map with the round-1 anchor;
(d) the accuracy of sign(x . w) on the test rows.

Every function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import re

import numpy as np

KNN_TOL = 1e-10
RESIDUAL_RTOL = 1e-9
ACCURACY_TOL = 1e-12
BLOCK = 16
KNN_VALUE_PROBLEM = re.compile(r"\(a\) \d+ of \d+ k-NN values differ from the exact "
                               r"computation, by up to (\S+)")

# (C, beta) per loss: per-sample gradient bound and Hessian Lipschitz constant
# for rows of norm <= 1, as the certification bounds use them.
CERT_CONSTANTS = {"logistic": (1.0, 0.1), "huberized_svm": (1.0, 0.5)}
HUBER_GAMMA = 2.0


def exact_knn_shapley(X, y, ids, Xr, yr, k):
    """Exact k-NN Shapley values (Jia et al., VLDB 2019), one per row of X.

    Distances are squared direct differences; ties in distance are broken by
    ascending id.  Returns (values, utility), utility being the full-set k-NN
    vote share averaged over the references.
    """
    N = len(ids)
    pos = np.arange(1, N, dtype=np.float64)          # 1-based rank j < N
    coef = np.minimum(k, pos) / (k * pos)
    totals = np.zeros(N)
    utility = 0.0
    for start in range(0, len(yr), BLOCK):
        ref, lab = Xr[start:start + BLOCK], yr[start:start + BLOCK]
        d2 = np.zeros((len(lab), N))
        for col in range(X.shape[1]):
            diff = ref[:, col, None] - X[None, :, col]
            d2 += diff * diff
        order = np.lexsort((np.broadcast_to(ids, d2.shape), d2), axis=1)
        match = (y[order] == lab[:, None]).astype(np.float64)
        step = (match[:, :-1] - match[:, 1:]) * coef
        s = np.empty_like(match)
        s[:, -1] = match[:, -1] / N
        s[:, :-1] = match[:, -1:] / N + np.cumsum(step[:, ::-1], axis=1)[:, ::-1]
        rows = np.arange(len(lab))[:, None]
        contrib = np.zeros_like(s)
        contrib[rows, order] = s
        totals += contrib.sum(axis=0)
        utility += match[:, :min(k, N)].sum() / k
    return totals / len(yr), utility / len(yr)


def check_knn(call, k):
    """(a) for one captured knn_sv call: data, reference, returned values."""
    data, ref, values = call
    ids = np.asarray(data.ids)
    exact, utility = exact_knn_shapley(np.asarray(data.features), np.asarray(data.labels),
                                       ids, np.asarray(ref.features),
                                       np.asarray(ref.labels), k)
    if sorted(values) != sorted(ids.tolist()):
        return ["(a) knn_sv returned values for other ids than its training rows"]
    got = np.array([values[int(i)] for i in ids])
    problems = []
    err = np.abs(got - exact)
    bad = int(np.sum(err > KNN_TOL))
    if bad:
        problems.append(f"(a) {bad} of {len(ids)} k-NN values differ from the exact "
                        f"computation, by up to {err.max():.3e}")
    total = float(np.sum(got))
    if abs(total - utility) > KNN_TOL:
        problems.append(f"(a) values sum to {total!r}, full-set utility is {utility!r}")
    return problems


def knn_value_error(problem):
    """The largest error named by a 'k-NN values differ' problem of (a), else None."""
    match = KNN_VALUE_PROBLEM.fullmatch(problem)
    return float(match.group(1)) if match else None


def _gradient_coefficients(loss, u):
    """d loss / d margin at margins u = y * x.w."""
    if loss == "logistic":
        return -0.5 * (1.0 - np.tanh(0.5 * u))     # -sigmoid(-u)
    if loss == "huberized_svm":
        g = HUBER_GAMMA
        return np.where(u <= 1.0 - g, -1.0, np.where(u <= 1.0, -(1.0 - u) / g, 0.0))
    raise ValueError(f"no gradient for loss {loss!r}")


def residual_norm(w, X, y, lam, loss):
    """Two-norm of the regularized objective gradient on rows X."""
    a = _gradient_coefficients(loss, y * (X @ w)) * y
    return float(np.linalg.norm(X.T @ a / len(y) + lam * w))


def paper_threshold(loss, lam, n, m_round, deleted_total):
    """lam * eps1'(t) with eps1'(t) = 4 beta C^2 m^2 t / (lam^3 (n - tm)^2)
    + 4 C m t / (lam (n - tm)), written with the running deleted count tm."""
    C, beta = CERT_CONSTANTS[loss]
    rem = n - deleted_total
    eps1 = (4.0 * beta * C * C * m_round * deleted_total / (lam ** 3 * rem ** 2)
            + 4.0 * C * deleted_total / (lam * rem))
    return lam * eps1


def check_residual(t, w, X, y, lam, loss, reported, n, m_round, deleted_total):
    """(b) for one certified round."""
    mine = residual_norm(w, X, y, lam, loss)
    problems = []
    if not abs(mine - reported) <= RESIDUAL_RTOL * abs(mine):
        problems.append(f"(b) round {t}: residual {reported!r} reported, {mine!r} recomputed")
    bound = paper_threshold(loss, lam, n, m_round, deleted_total)
    if not mine <= bound:
        problems.append(f"(b) round {t}: residual {mine!r} above lam*eps1' {bound!r}")
    return problems


def expected_weight(q, anchor, alpha, zero_tol):
    if abs(q) <= zero_tol:
        return 0.0
    if q < 0.0:
        return 1.0
    return min(1.0, alpha * anchor / q)


def check_weights(t, ids, q, weights, anchor, profile_anchor, alpha, zero_tol):
    """(c) for one round: weights given to the engine against the map."""
    problems = []
    if not profile_anchor == anchor:
        problems.append(f"(c) round {t}: anchor {profile_anchor!r}, round-1 anchor {anchor!r}")
    for i, qi in zip(ids, q):
        want = expected_weight(qi, anchor, alpha, zero_tol)
        if weights.get(int(i)) != want:
            problems.append(f"(c) round {t}: id {int(i)} has weight "
                            f"{weights.get(int(i))!r}, value {qi!r} maps to {want!r}")
    return problems


def round1_anchor(values, zero_tol):
    positives = [v for v in values.values() if v > zero_tol]
    return min(positives) if positives else float("nan")


def check_accuracy(w, X, y, reported):
    """(d) test accuracy of sign(x . w), ties predicting +1."""
    pred = np.where(X @ w >= 0.0, 1.0, -1.0)
    mine = float(np.mean(pred == y))
    if abs(mine - reported) > ACCURACY_TOL:
        return [f"(d) accuracy {reported!r} reported, {mine!r} recomputed"]
    return []
