"""Independent reference implementations used to cross-check the package.

Everything here is written against plain dicts and lists, deliberately
avoiding the package's own data structures and algorithms: division is
classical long division, lattice sums enumerate the full subset lattice,
series arithmetic is naive convolution.
"""

from fractions import Fraction
from itertools import combinations


def dict_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def dict_scale(a, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def dict_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def cyclo_dict(m):
    """(uv)^m - 1 as a bivariate dict."""
    return {(m, m): 1, (0, 0): -1}


def long_divide_by_cyclo(terms, m):
    """Classical long division of a bivariate dict by (uv)^m - 1.

    Splits into univariate slices of constant shift i - j, runs dense
    long division on each slice, and reassembles.  Returns (quotient,
    remainder) as dicts.
    """
    slices = {}
    for (i, j), c in terms.items():
        base = min(i, j)
        slices.setdefault(i - j, {})[base] = c
    quo, rem = {}, {}
    for shift, sl in slices.items():
        deg = max(sl)
        dense = [sl.get(k, 0) for k in range(deg + 1)]
        q = [0] * (len(dense))
        r = list(dense)
        for k in range(deg, m - 1, -1):
            if r[k]:
                q[k - m] = r[k]
                r[k - m] += r[k]  # divisor is t^m - 1, so subtracting c*t^{k-m}*(t^m-1) adds c below
                r[k] = 0
        for k, c in enumerate(q):
            if c:
                pair = (k + shift, k) if shift >= 0 else (k, k - shift)
                quo[pair] = c
        for k, c in enumerate(r):
            if c:
                pair = (k + shift, k) if shift >= 0 else (k, k - shift)
                rem[pair] = c
    return quo, rem


def dense_long_divide(num, den):
    """Classical long division of dense coefficient lists (lowest power
    first) by a monic divisor.  Returns (quotient, remainder) as lists."""
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        if c:
            quo[k] = c
            for i, dc in enumerate(den):
                rem[k + i] -= c * dc
    return quo, rem[:len(den) - 1]


def cyclotomic(k):
    """Phi_k(t) as a dense coefficient list: t^k - 1 divided by Phi_d for
    every proper divisor d of k."""
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            poly, rem = dense_long_divide(poly, cyclotomic(d))
            assert not any(rem)
    return poly


def divide_by_t_poly(terms, tpoly):
    """Divide a bivariate dict by a monic polynomial in t = uv, given as a
    dense coefficient list.  Slices of constant shift i - j are divided
    separately.  Returns the quotient dict, or None if the division leaves
    a remainder."""
    slices = {}
    for (i, j), c in terms.items():
        slices.setdefault(i - j, {})[min(i, j)] = c
    quo = {}
    for shift, sl in slices.items():
        dense = [sl.get(k, 0) for k in range(max(sl) + 1)]
        q, r = dense_long_divide(dense, tpoly)
        if any(r):
            return None
        for k, c in enumerate(q):
            if c:
                quo[(k + shift, k) if shift >= 0 else (k, k - shift)] = c
    return quo


def full_lattice_closed_from_open(labels, open_table):
    """closed(I) = sum of open(J) over all J containing I, J over the full lattice."""
    out = {}
    n = len(labels)
    for size in range(1, n + 1):
        for combo in combinations(sorted(labels), size):
            key = tuple(combo)
            acc = {}
            for other, poly in open_table.items():
                if set(key) <= set(other):
                    acc = dict_add(acc, poly)
            if acc:
                out[key] = acc
    return out


def full_lattice_open_from_closed(labels, closed_table):
    """Inclusion-exclusion over the full subset lattice."""
    out = {}
    n = len(labels)
    for size in range(1, n + 1):
        for combo in combinations(sorted(labels), size):
            key = tuple(combo)
            acc = {}
            for osize in range(size, n + 1):
                for osc in combinations(sorted(labels), osize):
                    if not set(key) <= set(osc):
                        continue
                    poly = closed_table.get(tuple(osc), {})
                    sign = (-1) ** (osize - size)
                    acc = dict_add(acc, dict_scale(poly, sign))
            if acc:
                out[key] = acc
    return out


def inverse_cyclo_series(m, horizon):
    """1/((uv)^m - 1) = -1 - (uv)^m - (uv)^{2m} - ..., as a diagonal dict."""
    out = {}
    k = 0
    while k <= horizon:
        out[(k, k)] = -1
        k += m
    return out


def truncate_total_degree(terms, horizon):
    return {(i, j): c for (i, j), c in terms.items() if i + j <= horizon}


def series_expand(num_terms, dens, horizon):
    """Naive expansion of num / prod((uv)^m - 1) to total degree <= horizon."""
    acc = truncate_total_degree(dict(num_terms), horizon)
    for m in dens:
        acc = truncate_total_degree(dict_mul(acc, inverse_cyclo_series(m, horizon // 2)), horizon)
    return acc


def rational_equal(num1, dens1, num2, dens2):
    """Cross-multiplied equality of two rationals given as (dict, list-of-m)."""
    lhs = dict(num1)
    for m in dens2:
        lhs = dict_mul(lhs, cyclo_dict(m))
    rhs = dict(num2)
    for m in dens1:
        rhs = dict_mul(rhs, cyclo_dict(m))
    return lhs == rhs


def stringy_series_oracle(dimension, ambient, components, open_table, horizon):
    """Open-stratum formula, expanded term by term with naive series arithmetic.

    ambient and the open_table values are bivariate dicts; components maps
    label -> discrepancy.  The empty stratum is ambient minus every stored
    open stratum.
    """
    interior = dict(ambient)
    for poly in open_table.values():
        interior = dict_add(interior, dict_scale(poly, -1))
    total = truncate_total_degree(interior, horizon)
    for key, poly in open_table.items():
        dens = []
        num = dict(poly)
        for label in key:
            a = components[label]
            if a == 0:
                continue  # (uv-1)/((uv)^1-1) = 1
            num = dict_mul(num, {(1, 1): 1, (0, 0): -1})
            dens.append(a + 1)
        total = dict_add(total, series_expand(num, dens, horizon))
    return total


def hodge_numbers_from_polynomial(terms, d):
    """h^{p,q} = (-1)^{p+q} * coefficient, the sign convention for compact supports."""
    return {(p, q): ((-1) ** (p + q)) * c for (p, q), c in terms.items() if 0 <= p <= d and 0 <= q <= d}


def binomial_series_check(series, dens, num, horizon):
    """series * prod((uv)^m - 1) should reproduce num up to the guarded degree."""
    prod = dict(series)
    for m in dens:
        prod = dict_mul(prod, cyclo_dict(m))
    guard = horizon  # beyond this, truncation artifacts are expected
    lhs = truncate_total_degree(prod, guard)
    rhs = truncate_total_degree(dict(num), guard)
    return lhs == rhs


def exact_fraction_pair(num, dens, u, v):
    """num / prod((uv)^m - 1) at exact rational points with uv != 1, as an
    unreduced pair of ints (numerator, denominator).

    With u = a/b and v = c/e the value is put over one integer denominator,
    b^I e^J prod((ac)^m - (be)^m) / (be)^(sum m) for I, J the top powers
    of u and v.  Nothing is reduced: a gcd of the huge values costs far
    more than the sums, so compare pairs with :func:`same_fraction`.
    """
    u, v = Fraction(u), Fraction(v)
    a, b, c, e = u.numerator, u.denominator, v.numerator, v.denominator
    top_i = max((i for i, _ in num), default=0)
    top_j = max((j for _, j in num), default=0)
    total = sum(coeff * a ** i * b ** (top_i - i) * c ** j * e ** (top_j - j)
                for (i, j), coeff in num.items())
    den = b ** top_i * e ** top_j
    for m in dens:
        total *= (b * e) ** m
        den *= (a * c) ** m - (b * e) ** m
    return total, den


def same_fraction(x, y):
    """Whether two unreduced (numerator, denominator) pairs are equal."""
    return x[0] * y[1] == y[0] * x[1]


def exact_fraction_eval(num, dens, u, v):
    """num / prod((uv)^m - 1) at exact rational points, as a Fraction
    reduced once at the end: summing Fractions term by term takes a gcd of
    the huge partial values at every step."""
    return Fraction(*exact_fraction_pair(num, dens, u, v))
