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

    The sum is taken per diagonal offset s = i - j, where the term at
    n = min(i, j) is a^(i-n) c^(j-n) (ac)^n b^(I-i) e^(J-j), by a sparse
    Horner walk down n (:func:`_descending_horner`): products by small
    powers per gap, and large powers only once per offset.
    """
    u, v = Fraction(u), Fraction(v)
    a, b, c, e = u.numerator, u.denominator, v.numerator, v.denominator
    top_i = max((i for i, _ in num), default=0)
    top_j = max((j for _, j in num), default=0)
    classes = {}  # per offset s = i - j, {n: coefficient} with n = min(i, j)
    for (i, j), coeff in num.items():
        classes.setdefault(i - j, {})[min(i, j)] = coeff
    total = 0
    for s, coeffs in classes.items():
        du, dv = max(s, 0), max(-s, 0)  # i = n + du, j = n + dv
        p, q = top_i - du, top_j - dv  # b^(p - n) e^(q - n) = b^(p - low) e^(q - low) (be)^(low - n)
        low, top = min(p, q), max(coeffs)
        total += (a ** du * c ** dv * b ** (p - low) * e ** (q - low) * (b * e) ** (low - top)
                  * _descending_horner(coeffs, a * c, b * e))
    den = b ** top_i * e ** top_j
    for m in dens:
        total *= (b * e) ** m
        den *= (a * c) ** m - (b * e) ** m
    return total, den


def _descending_horner(coeffs, x, y):
    """sum c x^n y^(top - n) over coeffs = {n: c}, top the largest n, walking
    down the exponents: acc x^gap + c y^(top - n), with y^(top - n) kept
    up to date by y^gap, so each gap costs products by small powers."""
    acc, y_power, prev = 0, 1, None
    for n in sorted(coeffs, reverse=True):
        if prev is not None:
            acc *= x ** (prev - n)
            y_power *= y ** (prev - n)
        acc += coeffs[n] * y_power
        prev = n
    return acc * x ** prev


def same_fraction(x, y):
    """Whether two unreduced (numerator, denominator) pairs are equal."""
    return x[0] * y[1] == y[0] * x[1]


def exact_fraction_eval(num, dens, u, v):
    """num / prod((uv)^m - 1) at exact rational points, as a Fraction
    reduced once at the end: summing Fractions term by term takes a gcd of
    the huge partial values at every step."""
    return Fraction(*exact_fraction_pair(num, dens, u, v))


def _bounded_vectors(length, top, total):
    """How many vectors in [0, top]^length have entries summing to total."""
    counts = [1]  # counts[s]: vectors so far whose entries sum to s
    for _ in range(length):
        counts = [sum(counts[max(0, s - top):s + 1]) for s in range(len(counts) + top)]
    return counts[total] if 0 <= total < len(counts) else 0


def fermat_hodge_deligne(N, k):
    """H(Y) of the smooth Fermat hypersurface Y of degree k in P^N, as a dict
    {(p, q): coefficient} with coefficient (-1)^(p+q) h^{p,q}.

    Y has dimension n = N - 1.  Its cohomology is the powers of the
    hyperplane class, h^{p,p} = 1 for p <= n, plus the primitive middle
    part, where by Griffiths' Jacobian-ring description (P. Griffiths, On
    the periods of certain rational integrals, Ann. of Math. 90, 1969)
    h^{n-q,q}_prim counts the exponent vectors in [0, k-2]^(N+1) with sum
    (q+1)k - N - 1.
    """
    n = N - 1
    terms = {(p, p): 1 for p in range(n + 1)}
    for q in range(n + 1):
        count = _bounded_vectors(N + 1, k - 2, (q + 1) * k - N - 1)
        terms[(n - q, q)] = terms.get((n - q, q), 0) + (-1) ** n * count
    return {pair: c for pair, c in terms.items() if c}


def fermat_cone_config(N, k):
    """The interchange mapping of the projective cone X over the Fermat
    hypersurface Y of degree k <= N in P^N.

    X has dimension N and one isolated singularity, the vertex.  Blowing it
    up gives P(O_Y + O_Y(1)), with ambient H(Y)(1 + uv) and one exceptional
    divisor E = Y of discrepancy a = N - k, so the closed stratum of E is
    H(Y).  By the open-strata formula E_st = H(Y) (uv + (uv - 1)/((uv)^(a+1) - 1)).
    """
    fermat = fermat_hodge_deligne(N, k)
    ambient = dict_mul(fermat, {(0, 0): 1, (1, 1): 1})
    return {
        "dimension": N,
        "ambient": [[i, j, c] for (i, j), c in sorted(ambient.items())],
        "components": [{"label": "E", "discrepancy": N - k}],
        "strata_convention": "closed",
        "strata": {"E": [[i, j, c] for (i, j), c in sorted(fermat.items())]},
        "singular_locus": [[0, 0, 1]],
    }


# the deep-cancellation probes: (components, ambient reach, largest a + 1)
DEEP_PROBES = {"11x9-offsets": (11, 4, 2 ** 14 - 1), "16x5-offsets": (16, 2, 2 ** 14 - 1),
               "24x3-offsets": (24, 1, 10879)}


# the shared-discrepancy probes: (components, ambient reach, a)
SHARED_PROBES = {"24x9-offsets": (24, 4, 8000), "24x3-offsets": (24, 1, 11000)}


def shared_discrepancy_config(components, reach, a):
    """A closed-convention curve config whose components all have the
    discrepancy a, each alone in a stratum of two points, over an ambient
    1 + sum_{k <= reach} (u^k + v^k).  No stored key brings two factors
    (uv)^(a+1) - 1 together, so either formula's common denominator has
    the one factor, however many components share it."""
    fan = [[0, 0, 1]] + [[k, 0, 1] for k in range(1, reach + 1)] + [[0, k, 1] for k in range(1, reach + 1)]
    return {
        "dimension": 1, "ambient": fan,
        "components": [{"label": f"E{k}", "discrepancy": a} for k in range(components)],
        "strata_convention": "closed",
        "strata": {f"E{k}": [[0, 0, 2]] for k in range(components)},
    }


def deep_cancellation_config(components, reach, below):
    """A closed-convention curve config whose components have the largest
    distinct prime a + 1 <= below, each with the table (uv)^(a+1) - 1, over
    an ambient 1 + sum_{k <= reach} (u^k + v^k).  E_st is a polynomial with
    small coefficients, and every stratum lacks the others' factors, so the
    formula sums merge many terms of distinct denominators at full size."""
    primes = [m for m in range(below, 128, -1) if all(m % d for d in range(2, 128))][:components]
    fan = [[0, 0, 1]] + [[k, 0, 1] for k in range(1, reach + 1)] + [[0, k, 1] for k in range(1, reach + 1)]
    return {
        "dimension": 1, "ambient": fan,
        "components": [{"label": f"E{k}", "discrepancy": m - 1} for k, m in enumerate(primes)],
        "strata_convention": "closed",
        "strata": {f"E{k}": [[0, 0, -1], [m, m, 1]] for k, m in enumerate(primes)},
    }


def lenient_findings_multipass(cfg):
    """Lenient validation findings of a ``stringy.resolution.ResolutionConfig``
    as the package computed them before it scanned each table once: every
    table is walked separately for its u<->v symmetry, its degree in u, its
    degree in v, its support, its offsets and its norm.  The budgets are
    read from ``stringy.resolution`` at call time, so a test may lower them.
    The discrepancy and packed-size budgets follow the rule of one multiset
    K (:func:`factor_multiset_multipass`): the walk below names the
    component at which the degree of K, counted at the first component of
    each m in K, passes its budget.
    """
    from stringy import resolution
    from stringy.exact_poly import BivariatePolynomial
    from stringy.validation import Finding

    findings = []
    seen_labels = set()
    most = factor_multiset_multipass(cfg)
    met = set()
    degree = 0
    for comp in cfg.components:
        label = comp.label
        if not isinstance(label, str) or not label or "," in label:
            findings.append(Finding("error", "bad-label",
                                    f"label must be a nonempty string without commas, got {label!r}",
                                    repr(label)))
            continue
        if label in seen_labels:
            findings.append(Finding("error", "duplicate-label",
                                    f"component label {label!r} declared twice", label))
        seen_labels.add(label)
        a = comp.discrepancy
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            findings.append(Finding("error", "bad-discrepancy",
                                    f"discrepancy of {label!r} must be an integer >= 0, got {a!r}",
                                    label))
        elif a + 1 in most and a + 1 not in met and degree <= resolution.DISCREPANCY_BUDGET:
            met.add(a + 1)
            degree += (a + 1) * most[a + 1]
            if degree > resolution.DISCREPANCY_BUDGET:
                findings.append(Finding("error", "discrepancy-cost",
                                        f"the factors (uv)^(a+1) - 1 that the labels of one stored key "
                                        f"bring together pass the degree budget of "
                                        f"{resolution.DISCREPANCY_BUDGET} at {label!r}", label))

    if len(cfg.components) > resolution.DEFAULT_COMPONENT_CAP:
        findings.append(Finding("error", "too-many-components",
                                f"{len(cfg.components)} components exceed the cap of "
                                f"{resolution.DEFAULT_COMPONENT_CAP} (subset enumeration cost)", ""))

    walk = sum(2 ** len(key) for key in cfg.strata)
    if walk > resolution.SUBSET_WALK_BUDGET:
        findings.append(Finding("error", "subset-walk-cost",
                                f"the stored strata keys span {walk} label subsets, over the budget "
                                f"of {resolution.SUBSET_WALK_BUDGET}", ""))

    used_labels = set()
    for key in cfg.strata:
        used_labels.update(key)
        unknown = [label for label in key if label not in seen_labels]
        if unknown:
            findings.append(Finding("error", "unknown-label",
                                    f"stratum key {','.join(key)} references undeclared {unknown}",
                                    ",".join(key)))
    for comp in cfg.components:
        if comp.label in seen_labels and comp.label not in used_labels:
            findings.append(Finding("warning", "unused-component",
                                    f"component {comp.label!r} appears in no stratum", comp.label))

    named = [("ambient", cfg.ambient)] + [(",".join(k), v) for k, v in sorted(cfg.strata.items())]
    if cfg.singular_locus is not None:
        named.append(("singular_locus", cfg.singular_locus))
    for name, h in named:
        terms = dict(h.poly.items())
        if any(terms.get((j, i), 0) != c for (i, j), c in terms.items()):
            findings.append(Finding("error", "uv-asymmetry",
                                    f"polynomial of {name} is not symmetric in u and v", name))
        if max((max(pair) for pair in terms), default=0) > resolution.EXPONENT_BUDGET:
            findings.append(Finding("error", "exponent-cost",
                                    f"polynomial of {name} has an exponent over the budget of "
                                    f"{resolution.EXPONENT_BUDGET}", name))

    if not any(f.code in ("exponent-cost", "discrepancy-cost") for f in findings):
        bits = packed_sum_bits_multipass(cfg)
        if bits > resolution.PACKED_BIT_BUDGET:
            findings.append(Finding("error", "packed-size-cost",
                                    f"the formulas' packed numerators take up to {bits} bits, over the "
                                    f"budget of {resolution.PACKED_BIT_BUDGET}", ""))

    if cfg.singular_locus is not None and not cfg.singular_locus.poly.is_zero:
        if cfg.singular_locus.poly != BivariatePolynomial.constant(
                cfg.singular_locus.poly.coefficient(0, 0)):
            findings.append(Finding("warning", "nonisolated-locus",
                                    "singular locus is not a finite set of points; local-contribution "
                                    "reporting follows the isolated-case convention only",
                                    "singular_locus"))

    return tuple(findings)


def reflection_pairs_scan(terms, reflect, sign, size):
    """The pairs {p, q = reflect(p)} with c(p) != sign * c(q), as
    (p, q, c(p), c(q)), found by scanning every exponent pair of the box
    [0, size]^2 in order of total degree, then i, then j; each pair is named
    by its member met first.  c reads the dict ``terms`` and is 0 off it.
    The box must hold the support and every mirror of it with no negative
    entry."""
    box = sorted(((i, j) for i in range(size + 1) for j in range(size + 1)),
                 key=lambda ij: (ij[0] + ij[1], ij[0], ij[1]))
    met, out = set(), []
    for p in box:
        if p in met:
            continue
        q = reflect(p)
        met.update((p, q))
        here, there = terms.get(p, 0), terms.get(q, 0)
        if here != sign * there:
            out.append((p, q, here, there))
    return out


def strict_findings_both_walks(cfg, lenient):
    """``stringy.resolution._strict_findings`` as the package computed it
    before strict validation checked the Serre reflection alone: the whole
    of ``validate_smooth_projective``, its u<->v walk and its Serre walk
    with no comparison ahead, each a scan of the box
    (:func:`reflection_pairs_scan`), on the ambient and every closed
    stratum, keeping the Serre findings."""
    from stringy.exact_poly import decimal_str
    from stringy.resolution import convert_strata
    from stringy.validation import Finding

    def validate_smooth_projective(h, d):
        terms = dict(h.poly.items())
        size = max([d, *(max(pair) for pair in terms)])

        def serre(ij):
            return d - ij[0], d - ij[1]

        out = []
        for (b, a), _, here, there in reflection_pairs_scan(terms, lambda ij: (ij[1], ij[0]), 1, size):
            out.append(Finding("error", "uv-asymmetry",
                               f"coefficient {decimal_str(there)} at ({a},{b}) vs "
                               f"{decimal_str(here)} at ({b},{a})", f"({a},{b}) vs ({b},{a})"))
        for (i, j), (mi, mj), here, there in reflection_pairs_scan(terms, serre, 1, size):
            out.append(Finding("error", "serre-reflection",
                               f"coefficient {decimal_str(here)} at ({i},{j}) vs {decimal_str(there)} at "
                               f"({mi},{mj}) for dimension {d}", f"({i},{j}) vs ({mi},{mj})"))
        return out

    findings = []
    d = cfg.dimension
    if d < 3:
        findings.append(Finding("error", "dimension-too-small",
                                f"strict mode requires dimension >= 3, got {d}", ""))
    bound = (d - 4) // 2
    for comp in cfg.components:
        a = comp.discrepancy
        if isinstance(a, int) and not isinstance(a, bool) and a >= 0 and a <= bound:
            findings.append(Finding("error", "discrepancy-bound",
                                    f"discrepancy {a} of {comp.label!r} violates the bound "
                                    f"> floor((d-4)/2) = {bound} at dimension {d}", comp.label))
    if lenient.accepted and d >= 3:
        closed = convert_strata(cfg, "closed")
        for name, h, dim in [("ambient", cfg.ambient, d)] + [
            (",".join(k), v, d - len(k)) for k, v in sorted(closed.strata.items())
        ]:
            if dim < 0:
                findings.append(Finding("error", "serre-reflection",
                                        f"stratum {name} is an intersection deeper than the dimension",
                                        name))
                continue
            for f in validate_smooth_projective(h, dim):
                if f.code == "serre-reflection":
                    findings.append(Finding("error", "serre-reflection",
                                            f"closed stratum {name} at dimension {dim}: {f.message}",
                                            name))
    return tuple(findings)


def factor_multiset_multipass(cfg):
    """K of a ``stringy.resolution.ResolutionConfig`` from a plain walk of
    its stored keys: per m = a + 1, the most factors (uv)^m - 1 that the
    labels of one key give.  A label counts at its first declaration that
    is well formed with an integer a > 0, as lenient validation reads it."""
    factor = {}
    for comp in cfg.components:
        label, a = comp.label, comp.discrepancy
        if (isinstance(label, str) and label and "," not in label and label not in factor
                and type(a) is not bool and isinstance(a, int) and a > 0):
            factor[label] = a + 1
    most = {}
    for key in cfg.strata:
        for m in {factor[label] for label in key if label in factor}:
            most[m] = max(most.get(m, 0), sum(1 for label in key if factor.get(label) == m))
    return most


def packed_sum_bits_multipass(cfg):
    """The size in bits of the formulas' packed layout, which lenient
    validation bounds, from the tables' supports and a walk of the stored
    keys for K: one slot per offset i - j present and per power of uv up to
    the largest min(i, j) plus the degree of K, each as wide as digits up
    to N 2^|K| need, where N = |ambient|_1 + sum over keys J of
    2^|J| |H_J|_1."""
    from stringy.exact_poly import packed_bits

    most = factor_multiset_multipass(cfg)
    tables = [(0, cfg.ambient.poly)] + [(len(key), h.poly) for key, h in cfg.strata.items()]
    norm = sum(sum(abs(c) for _, c in p.items()) << size for size, p in tables)
    pairs = [pair for _, p in tables for pair in p.support()]
    offsets = len({i - j for i, j in pairs})
    powers = max((min(pair) for pair in pairs), default=0) + sum(m * n for m, n in most.items()) + 1
    return packed_bits(offsets * powers, norm << sum(most.values()))


def merge_by_levels_tuples(terms, width, offsets):
    """``stringy.exact_poly._merge`` as it was computed before it grouped
    the terms by key, with every need a tuple of counts: packed terms
    (value, top, factors, gains, lift) multiplied out one distinct m at a
    time, as (value, degree bound, the common denominator's factors)."""
    keys = {(factors, gains) for _, _, factors, gains, _ in terms}
    distinct = sorted({m for key in keys for part in key for m in part})
    largest = dict.fromkeys(distinct, 0)
    for factors, _ in keys:
        for m in factors:
            largest[m] = max(largest[m], factors.count(m))
    common = tuple(m for m in distinct for _ in range(largest[m]))
    index = {m: k for k, m in enumerate(distinct)}
    needs = {}
    for factors, gains in keys:
        need = list(largest.values())
        for m in factors:
            need[index[m]] -= 1
        for m in gains:
            need[index[m]] += 1
        needs[factors, gains] = (tuple(need), sum(common) - sum(factors) + sum(gains))
    step = width * len(offsets)
    pending = {}
    degree = 0
    for value, top, factors, gains, lift in terms:
        if value:
            need, gained = needs[factors, gains]
            degree = max(degree, top + lift + gained)
            pending[need] = pending.get(need, 0) + ((-value if lift & 1 else value) << lift * step)
    for m in distinct:
        merged = {}
        for at, part in pending.items():
            for _ in range(at[0]):
                part = (part << step * m) - part
            merged[at[1:]] = merged.get(at[1:], 0) + part
        pending = merged
    return pending.get((), 0), degree, common
