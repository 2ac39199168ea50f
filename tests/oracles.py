"""Independent reference implementations used as test oracles.

Everything in this module is written against the mathematical definitions
with plain Python loops and math-module scalars, deliberately avoiding the
vectorized code paths in the package under test.
"""

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# scalar loss definitions (margin u = y * w.x for classifiers)
# ---------------------------------------------------------------------------

def logistic_value(u):
    if u < -30.0:
        return -u + math.log1p(math.exp(u))
    return math.log1p(math.exp(-u))


def logistic_d1(u):
    # derivative of log(1 + e^{-u}) wrt u
    if u >= 0:
        return -math.exp(-u) / (1.0 + math.exp(-u))
    return -1.0 / (1.0 + math.exp(u))


def logistic_d2(u):
    p = 1.0 / (1.0 + math.exp(-abs(u)))
    return p * (1.0 - p)


def huber_value(u, gamma):
    if u > 1.0:
        return 0.0
    if u > 1.0 - gamma:
        return (1.0 - u) ** 2 / (2.0 * gamma)
    return 1.0 - u - gamma / 2.0


def huber_d1(u, gamma):
    if u > 1.0:
        return 0.0
    if u > 1.0 - gamma:
        return -(1.0 - u) / gamma
    return -1.0


def huber_d2(u, gamma):
    if u > 1.0:
        return 0.0
    if u > 1.0 - gamma:
        return 1.0 / gamma
    return 0.0


def _per_sample_terms(w, x, y, kind, gamma):
    """Return (loss, grad, hess) for one sample, loops only."""
    d = len(w)
    if kind == "squared_error":
        s = sum(w[j] * x[j] for j in range(d))
        r = s - y
        loss = 0.5 * r * r
        grad = np.array([r * x[j] for j in range(d)])
        hess = np.array([[x[i] * x[j] for j in range(d)] for i in range(d)])
        return loss, grad, hess
    u = y * sum(w[j] * x[j] for j in range(d))
    if kind == "logistic":
        lv, d1, d2 = logistic_value(u), logistic_d1(u), logistic_d2(u)
    elif kind == "huberized_svm":
        lv, d1, d2 = huber_value(u, gamma), huber_d1(u, gamma), huber_d2(u, gamma)
    else:
        raise ValueError(kind)
    grad = np.array([d1 * y * x[j] for j in range(d)])
    hess = np.array([[d2 * x[i] * x[j] for j in range(d)] for i in range(d)])
    return lv, grad, hess


def naive_objective(w, features, labels, lam, kind, gamma=2.0, b=None):
    n = len(labels)
    total = 0.0
    for i in range(n):
        lv, _, _ = _per_sample_terms(w, features[i], labels[i], kind, gamma)
        total += lv
    reg = 0.5 * lam * sum(float(wj) ** 2 for wj in w)
    lin = 0.0 if b is None else float(np.dot(b, w))
    return total / n + reg + lin


def naive_gradient(w, features, labels, lam, kind, gamma=2.0, b=None):
    n, d = features.shape
    g = np.zeros(d)
    for i in range(n):
        _, gi, _ = _per_sample_terms(w, features[i], labels[i], kind, gamma)
        g += gi
    g = g / n + lam * np.asarray(w, dtype=float)
    if b is not None:
        g = g + b
    return g


def naive_hessian(w, features, labels, lam, kind, gamma=2.0):
    n, d = features.shape
    h = np.zeros((d, d))
    for i in range(n):
        _, _, hi = _per_sample_terms(w, features[i], labels[i], kind, gamma)
        h += hi
    return h / n + lam * np.eye(d)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_gradient(f, w, h=1e-5):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def fd_jacobian(g, w, h=1e-5):
    """Central difference Jacobian of a vector function, symmetrized."""
    w = np.asarray(w, dtype=float)
    d = w.size
    jac = np.zeros((d, d))
    for j in range(d):
        e = np.zeros_like(w)
        e[j] = h
        jac[:, j] = (g(w + e) - g(w - e)) / (2.0 * h)
    return 0.5 * (jac + jac.T)


# ---------------------------------------------------------------------------
# exact minimizers
# ---------------------------------------------------------------------------

def ridge_closed_form(features, labels, lam, b=None):
    """Exact minimizer of the squared-error objective (plus optional b.w)."""
    n, d = features.shape
    a = features.T @ features / n + lam * np.eye(d)
    rhs = features.T @ labels / n
    if b is not None:
        rhs = rhs - b
    return np.linalg.solve(a, rhs)


def gd_minimize(features, labels, lam, kind, gamma=2.0, b=None,
                tol=1e-9, max_iter=5000):
    """Backtracking gradient descent plus a Newton finish, loops only.

    Gradient descent alone stalls near the floating-point noise floor, so
    the last digits come from a handful of Newton steps computed with the
    naive derivatives.
    """
    w = np.zeros(features.shape[1])
    fw = naive_objective(w, features, labels, lam, kind, gamma, b)
    for _ in range(max_iter):
        g = naive_gradient(w, features, labels, lam, kind, gamma, b)
        gn2 = float(g @ g)
        if math.sqrt(gn2) <= max(tol, 1e-6):
            break
        step = 1.0
        while True:
            cand = w - step * g
            fc = naive_objective(cand, features, labels, lam, kind, gamma, b)
            if fc <= fw - 0.5 * step * gn2 or step < 1e-16:
                break
            step *= 0.5
        if step < 1e-16:
            break
        w, fw = cand, fc
    for _ in range(20):
        g = naive_gradient(w, features, labels, lam, kind, gamma, b)
        if math.sqrt(float(g @ g)) <= tol:
            return w
        h = naive_hessian(w, features, labels, lam, kind, gamma)
        w = w - np.linalg.solve(h, g)
    raise RuntimeError("oracle minimizer did not converge")


# ---------------------------------------------------------------------------
# exact Shapley values for the k-nearest-neighbor utility
# ---------------------------------------------------------------------------

def _knn_utility(subset, d2, labels, ids, test_label, k):
    if not subset:
        return 0.0
    order = sorted(subset, key=lambda i: (d2[i], ids[i]))
    top = order[: min(k, len(order))]
    return sum(1.0 for i in top if labels[i] == test_label) / k


def knn_shapley_enumeration(train_features, train_labels, train_ids,
                            test_features, test_labels, k):
    """Exact Shapley values via full subset enumeration, averaged over tests.

    Exponential in the training set size; only use for n <= ~10.
    """
    n = len(train_labels)
    fact = [math.factorial(i) for i in range(n + 1)]
    values = np.zeros(n)
    for tx, ty in zip(test_features, test_labels):
        diff = train_features - tx
        d2 = np.einsum("ij,ij->i", diff, diff)
        for i in range(n):
            rest = [j for j in range(n) if j != i]
            phi = 0.0
            for r in range(n):
                weight = fact[r] * fact[n - r - 1] / fact[n]
                for combo in itertools.combinations(rest, r):
                    s = list(combo)
                    gain = (_knn_utility(s + [i], d2, train_labels, train_ids, ty, k)
                            - _knn_utility(s, d2, train_labels, train_ids, ty, k))
                    phi += weight * gain
            values[i] += phi
    return values / len(test_labels)


def knn_shapley_recursion(train_features, train_labels, train_ids,
                          test_features, test_labels, k):
    """Exact Shapley values by the closed-form recursion (Jia et al., VLDB
    2019), averaged over tests, plus the full-set utility.

    Squared distances are summed column by column from direct differences, so
    identical rows get identical distances; ties are broken by ascending id
    with a lexsort on (distance, id).
    """
    n = len(train_labels)
    values = np.zeros(n)
    utility = 0.0
    for tx, ty in zip(test_features, test_labels):
        d2 = np.zeros(n)
        for col in range(train_features.shape[1]):
            diff = train_features[:, col] - tx[col]
            d2 += diff * diff
        order = np.lexsort((train_ids, d2))
        match = [1.0 if train_labels[i] == ty else 0.0 for i in order]
        s = match[n - 1] / n
        values[order[n - 1]] += s
        for j in range(n - 1, 0, -1):          # 1-based rank of order[j - 1]
            s += (match[j - 1] - match[j]) / k * min(k, j) / j
            values[order[j - 1]] += s
        utility += sum(match[:k]) / k
    return values / len(test_labels), utility / len(test_labels)
