"""Per-function oracles for the batched code paths.

The per-instance checkers of the screened claims, one function per claim,
that the screens' records are compared with: each takes one row (a
multiset spec, or a raw table for ``lemma2_3``, ``willard`` and ``thm2_6``)
and returns None when the row is outside the claim's hypothesis, else
(subcase counts, violation records). With ``hypothesis=False`` a checker
evaluates its conclusion on any row where that conclusion is defined.
``ORACLES`` maps every screened suite to its checker. ``lemma2_1_records``
walks the subfunction closure of one table breadth first, the order in
which the ``lemma2_1`` screen writes its records; ``slice_flags``, which
slices tables at every fixing of positions and constants, is the
table-level oracle of that screen, which reads the restrictions of specs
instead.

``thm2_1_records`` checks ``thm2_1``'s forms and its sampled converse one
table at a time, and ``lemma3_1_equality_witnesses`` the equality
witnesses of ``lemma3_1`` one closure at a time; the suite decides both on
arrays. ``restrict_table`` fixes a position block by block, for the
breadth-first closures below and the kernels' tests, and
``recompose_loop`` recomposes a decomposition pair point by point.

Also here: the classifications by construction member by member, their
forms built point by point (``gap_n_images``, ``gap2_ternary_images``,
``constructive_records``), that the array images and records of
``thm2_2`` and ``thm2_3`` are tested against; the two breadth-first
subfunction closures the closure kernel is tested against, the tuple
listing of the cells of the gap >= 2 class, the groups of multisets on
which a spec is constant iff y or z is fictive (``_fictive_groups``) and
their union-find components (``union_find_reps``), that the closed-form
components of ``enumeration`` are tested against, the (essential count,
gap) of one spec (``spec_ess_gap``, read off those components) that the
checkers read and the batched ``facts`` are tested against, and the
identification-shape walk over every shape (``full_shape_walk``) that the
census's walk of the reached shapes is tested against.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, deque
from math import comb

import numpy as np

from aritygap import FiniteFunction, PreconditionError
from aritygap.core import index_of, is_all_distinct, iter_points, range_size
from aritygap.enumeration import (
    _nontrivial_gap_array,
    _seeded_rows,
    _shape_dag,
    _shape_gather,
    _tuples,
    spec_to_function,
    symmetry_index,
)
from aritygap.minors import (
    _essential_mask,
    _essential_positions,
    _values,
    all_minors,
    essential_count,
    essential_variables,
    gap,
    gap_index,
    gap_profile,
    identify,
)
from aritygap.subfunctions import (
    _build_records,
    _Closure,
    dominants,
    restrict,
    separable_sets,
    sub_bound,
    subfunction_closure,
    weak_dominants,
)
from aritygap.screens import _asymmetric, _lemma2_1
from aritygap.suites import VIOLATION_CAP, _violation
from aritygap.symmetric import compress, diagonal_values, is_symmetric, multisets


# ---------------------------------------------------------------------------
# listings and closures


def cell_specs(k: int, n: int, gaps: set, *, budget: int = 10**8) -> list[tuple[int, ...]]:
    """The rows of ``enumeration._nontrivial_gap_array`` that lists only the
    cells with a gap in ``gaps``, as tuples."""
    return _tuples(_nontrivial_gap_array(k, n, budget, gaps=gaps))


@functools.lru_cache(maxsize=16)
def _gap_n_slots(k: int, n: int) -> operator.itemgetter:
    """The table of the full-gap form from its coefficients (a0, then one
    per n-subset), read point by point: a0 on a point with a repeated
    coordinate, the coefficient of its value set on an all-distinct one."""
    subsets = {s: 1 + r for r, s in enumerate(itertools.combinations(range(k), n))}
    return operator.itemgetter(*(subsets.get(tuple(sorted(p)), 0)
                                 for p in itertools.product(range(k), repeat=n)))


def gap_n_images(k: int, n: int) -> set[tuple[int, ...]]:
    """Tables of every valid full-gap construction at (k, n), deduplicated:
    the coefficients not all equal."""
    if not 2 <= n <= k:
        return set()
    get = _gap_n_slots(k, n)
    return {get(coeffs) for coeffs in itertools.product(range(k), repeat=1 + comb(k, n))
            if len(set(coeffs)) > 1}


@functools.lru_cache(maxsize=16)
def _ternary_slots(k: int, family: str) -> operator.itemgetter:
    """The table of a ternary gap-2 family member from its coefficients
    (a_0, ..., a_{k-1}, then one per 3-subset), read point by point."""
    subsets = {s: k + r for r, s in enumerate(itertools.combinations(range(k), 3))}
    slots = []
    for p in itertools.product(range(k), repeat=3):
        counts = Counter(p).most_common()
        if len(counts) == 3:
            slots.append(subsets[tuple(sorted(p))])
        elif len(counts) == 1 or family == "majority":
            slots.append(counts[0][0])
        else:
            slots.append(counts[1][0])
    return operator.itemgetter(*slots)


@functools.lru_cache(maxsize=8)
def gap2_ternary_images(k: int, families=("minority", "majority")) -> set[tuple[int, ...]]:
    """Tables of every valid ternary gap-2 construction of the families,
    deduplicated: the diagonal coefficients not all equal."""
    images: set[tuple[int, ...]] = set()
    for family in families:
        get = _ternary_slots(k, family)
        for a in itertools.product(range(k), repeat=k):
            if len(set(a)) > 1:
                images.update(get(a + b) for b in itertools.product(range(k), repeat=comb(k, 3)))
    return images


def constructive_records(name: str, k: int, n: int, bucket: set) -> tuple[int, int, list]:
    """(instances, violations, records) of ``thm2_2`` or ``thm2_3`` over a
    set of cell tables, member by member: the record that the images are
    not the bucket first, its witness the least bucket table outside the
    images, else the least image outside the bucket; then a read-off record
    per member, in ascending order, whose coefficients read off it do not
    rebuild it, until ``VIOLATION_CAP`` are kept."""
    images = gap_n_images(k, n) if name == "thm2_2" else gap2_ternary_images(k)
    records = []
    if bucket != images:
        witness = min(bucket - images, default=None) or min(images - bucket)
        records.append(_violation(FiniteFunction(k, n, witness), f"{name}.image-equals-bucket",
                                  bucket=len(bucket), image=len(images)))
    total = len(records)
    b_points = [sum(c * k ** (n - 1 - i) for i, c in enumerate(s))
                for s in itertools.combinations(range(k), n)]
    for tab in sorted(bucket):
        b = [tab[m] for m in b_points]
        if name == "thm2_2":
            fits = _gap_n_slots(k, n)((tab[0], *b)) == tab
        else:
            a = [tab[i * (k * k + k + 1)] for i in range(k)]
            fits = len(set(a)) > 1 and any(
                _ternary_slots(k, family)((*a, *b)) == tab
                for family in ("minority", "majority"))
        if not fits:
            total += 1
            if len(records) < VIOLATION_CAP:
                records.append(_violation(FiniteFunction(k, n, tab), f"{name}.read-off"))
    return len(bucket), total, records


def restrict_table(k: int, n: int, table: tuple, i: int, c: int) -> tuple:
    """The table with the 1-based position i fixed to c and dropped, block
    by block."""
    step = k ** (n - i)
    block = step * k
    out = []
    for base in range(0, len(table), block):
        s = base + c * step
        out.extend(table[s : s + step])
    return tuple(out)


def recompose_loop(g: FiniteFunction, h: FiniteFunction) -> FiniteFunction:
    """``symmetric.recompose`` point by point: h(p) plus g at p without its
    coordinates i and j, for every pair i < j with p_i = p_j, mod k; h must
    vanish on every point with a repeated coordinate."""
    k, n = h.k, h.n
    for m, p in enumerate(iter_points(k, n)):
        if not is_all_distinct(p) and h.table[m] != 0:
            raise PreconditionError(
                f"h must vanish on repeated-coordinate points, h{p} = {h.table[m]}"
            )
    table = []
    for p in iter_points(k, n):
        s = h.table[index_of(p, k)]
        for i, j in itertools.combinations(range(n), 2):
            if p[i] == p[j]:
                s += g.table[index_of(p[:i] + p[i + 1 : j] + p[j + 1 :], k)]
        table.append(s % k)
    return FiniteFunction(k, n, table)


def canonical_key(k: int, arity: int, table: tuple):
    first = table[0]
    if all(v == first for v in table):
        return ("const", first)
    return ("table", arity, table)


def closure_generic(f: FiniteFunction) -> _Closure:
    """The subfunction closure of f, one state per (remaining positions,
    table), breadth first."""
    k, n = f.k, f.n
    root = (tuple(range(1, n + 1)), f.table)
    seen = {root}
    queue = deque([root])
    separable = {frozenset()}
    found: dict = {}  # canonical key -> [max_order, representative remaining]
    while queue:
        remaining, table = queue.popleft()
        arity = len(remaining)
        order = n - arity
        ess_local = _essential_positions(k, arity, table)
        separable.add(frozenset(remaining[p - 1] for p in ess_local))
        if order > 0:
            key = canonical_key(k, arity, table)
            entry = found.get(key)
            if entry is None:
                found[key] = [order, remaining]
            elif order > entry[0]:
                entry[0] = order
                entry[1] = remaining
        for p in ess_local:
            rest = remaining[: p - 1] + remaining[p:]
            for c in range(k):
                child = (rest, restrict_table(k, arity, table, p, c))
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return _Closure(functools.partial(_build_records, k, found), frozenset(separable),
                    len(found))


def closure_symmetric(f: FiniteFunction) -> _Closure:
    """Closure over multisets of substituted constants.

    Valid only for multiset-determined tables, where restrictions do not
    depend on the position fixed and every non-constant state has all of
    its remaining variables essential.
    """
    k, n = f.k, f.n
    states: dict[tuple, tuple] = {(): f.table}
    queue = deque([()])
    separable = {frozenset()}
    found: dict = {}
    all_positions = tuple(range(1, n + 1))
    while queue:
        mu = queue.popleft()
        table = states[mu]
        arity = n - len(mu)
        order = len(mu)
        first = table[0]
        constant = all(v == first for v in table)
        if not constant:
            m = n - order
            for combo in itertools.combinations(all_positions, m):
                separable.add(frozenset(combo))
        if order > 0:
            key = canonical_key(k, arity, table)
            rep = tuple(range(order + 1, n + 1))
            entry = found.get(key)
            if entry is None:
                found[key] = [order, rep]
            elif order > entry[0]:
                entry[0] = order
                entry[1] = rep
        if constant or arity == 0:
            continue
        for c in range(k):
            child = tuple(sorted(mu + (c,)))
            if child not in states:
                states[child] = restrict_table(k, arity, table, 1, c)
                queue.append(child)
    return _Closure(functools.partial(_build_records, k, found), frozenset(separable),
                    len(found))


# ---------------------------------------------------------------------------
# the exact claims, one instance at a time


def _fictive_groups(k: int, n: int):
    """The groups of multiset indices on which a spec is constant iff y is
    fictive, {y, y} + alpha over y for each alpha, and iff z is fictive,
    {y, y, z} + alpha over z for each y and alpha."""
    index = symmetry_index(k, n).index
    y_groups = tuple(
        tuple(index[tuple(sorted(alpha + (y, y)))] for y in range(k))
        for alpha in (multisets(k, n - 2) if n >= 2 else ())
    )
    z_groups = tuple(
        tuple(index[tuple(sorted(alpha + (y, y, z)))] for z in range(k))
        for y in range(k)
        for alpha in (multisets(k, n - 3) if n >= 3 else ())
    )
    return y_groups, z_groups


def _component_reps(m: int, groups) -> tuple[int, ...]:
    """For each of m positions, the first position of its union-find
    component under "equal within each group"."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for grp in groups:
        root = find(grp[0])
        for t in grp[1:]:
            parent[find(t)] = root
    first: dict[int, int] = {}
    return tuple(first.setdefault(find(j), j) for j in range(m))


@functools.lru_cache(maxsize=64)
def union_find_reps(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The component representatives of "y fictive", "z fictive" and both,
    by union-find over their groups: a spec satisfies a condition iff
    spec[j] == spec[rep[j]] for every j."""
    y_groups, z_groups = _fictive_groups(k, n)
    m = comb(k + n - 1, n)
    return tuple(
        _component_reps(m, groups) for groups in (y_groups, z_groups, y_groups + z_groups)
    )


@functools.lru_cache(maxsize=64)
def _fictive_getters(k: int, n: int):
    """Gathers of the "y fictive" and "z fictive" representatives (n >= 2,
    so a spec has at least 3 entries and each getter returns a tuple): a
    spec satisfies a condition iff its gather equals the spec."""
    y_rep, z_rep, _ = union_find_reps(k, n)
    return operator.itemgetter(*y_rep), operator.itemgetter(*z_rep)


def spec_ess_gap(k: int, n: int, spec: tuple[int, ...]) -> tuple[int, int | None]:
    """(essential count, gap) of the symmetric function with this spec."""
    if spec.count(spec[0]) == len(spec):
        return 0, None
    if n < 2:
        return n, None
    y_get, z_get = _fictive_getters(k, n)
    spec = tuple(spec)
    y_ess = y_get(spec) != spec
    z_ess = z_get(spec) != spec
    return n, n - y_ess - (n - 2) * z_ess


def fast_profile_of(f: FiniteFunction) -> tuple[int, int | None]:
    return spec_ess_gap(f.k, f.n, compress(f).as_tuple())


def check_lemma2_2(k, n, spec, hypothesis=True):
    """A symmetric function with gap p, 2 <= p <= min(n, k), has p in {2, n}."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None):
        return None
    if g is not None and 2 <= g <= min(n, k) and g not in (2, n):
        f = spec_to_function(k, n, spec)
        return Counter(), [_violation(f, "lemma2_2.dichotomy", gap=g)]
    return Counter(), []


def check_lemma2_4(k, n, spec, hypothesis=True):
    """For symmetric gap-2 functions with n > 3, every identification minor
    loses the substituted variable as well."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (n <= 3 or ess != n or g != 2):
        return None
    f = spec_to_function(k, n, spec)
    violations = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                continue
            if v in essential_variables(identify(f, u, v)):
                violations.append(
                    _violation(f, "lemma2_4.substituted-var-fictive", u=u, v=v)
                )
    return Counter(), violations


def check_thm2_4(k, n, spec, hypothesis=True):
    """Diagonal rules for symmetric functions with non-trivial gap."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None or g < 2):
        return None
    f = spec_to_function(k, n, spec)
    diag = diagonal_values(f)
    all_equal = len(set(diag)) == 1
    subcounts = Counter()
    violations = []
    ind = gap_index(f)
    if g == n or (g == 2 and n % 2 == 0) or (g == 2 and 2 * ind < n - 1):
        subcounts["diagonal-equal"] += 1
        if not all_equal:
            violations.append(_violation(f, "thm2_4.i.diagonal-equal", diag=list(diag)))
    if n % 2 == 1 and 3 <= n <= k and g == 2 and 2 * ind == n - 1:
        subcounts["diagonal-differs"] += 1
        if all_equal:
            violations.append(_violation(f, "thm2_4.ii.diagonal-differs", diag=list(diag)))
    return subcounts, violations


def check_thm3_1(k, n, spec, hypothesis=True):
    """Full-gap symmetric, non-dominant constant: the restriction is
    symmetric with full arity and full gap at n - 1."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g != n or n <= 2):
        return None
    f = spec_to_function(k, n, spec)
    dom = dominants(f)
    violations = []
    for i in range(1, n + 1):
        for c in range(k):
            if c in dom:
                continue
            t = restrict(f, i, c)
            p = gap_profile(t)
            if not (
                is_symmetric(t) and p.ess == n - 1 and p.gap == n - 1
            ):
                violations.append(
                    _violation(f, "thm3_1.restriction-class", i=i, c=c,
                               ess=p.ess, gap=p.gap)
                )
    return Counter(), violations


def check_lemma3_1(k, n, spec, hypothesis=True):
    """Full-gap symmetric with n <= k: sub(f) <= sub_k^n + range(f)."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g != n or n > k):
        return None
    f = spec_to_function(k, n, spec)
    closure = subfunction_closure(f)
    bound = sub_bound(n, k) + range_size(f)
    if closure.sub_count > bound:
        return Counter(), [
            _violation(f, "lemma3_1.bound", sub=closure.sub_count, bound=bound)
        ]
    return Counter(), []


def check_thm3_2(k, n, spec, hypothesis=True):
    """Restriction classes for symmetric gap-2 with 3 <= min(n, k)."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g != 2 or min(n, k) < 3):
        return None
    f = spec_to_function(k, n, spec)
    subcounts = Counter()
    violations = []
    ind = gap_index(f) if n >= 4 else 1
    props = {}

    def prof(t):
        key = t.table
        if key not in props:
            props[key] = fast_profile_of(t)
        return props[key]

    if ind > 2:
        for c in range(k):
            t = restrict(restrict(f, 1, c), 1, c)
            subcounts["i"] += 1
            e, tg = prof(t)
            if not (e == n - 2 and tg == 2):
                violations.append(_violation(f, "thm3_2.i", c=c, ess=e, gap=tg))
    if ind == 2:
        for c in range(k):
            t = restrict(restrict(f, 1, c), 1, c)
            subcounts["ii"] += 1
            e, tg = prof(t)
            ok = e == n - 2 and (e < 2 or tg == e)
            if not ok:
                violations.append(_violation(f, "thm3_2.ii", c=c, ess=e, gap=tg))
    wdom = weak_dominants(f)
    for c in range(k):
        t = restrict(f, 1, c)
        e, tg = prof(t)
        if c in wdom:
            subcounts["iii"] += 1
            if not (e == n - 1 and tg == n - 1):
                violations.append(_violation(f, "thm3_2.iii", c=c, ess=e, gap=tg))
        else:
            subcounts["iv"] += 1
            if not (e == n - 1 and tg == 2):
                violations.append(_violation(f, "thm3_2.iv", c=c, ess=e, gap=tg))
    return subcounts, violations


def check_cor3_1(k, n, spec, hypothesis=True):
    """Symmetric with non-trivial gap: restricting the last variable to a
    non-dominant constant keeps the gap non-trivial."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None or g < 2):
        return None
    f = spec_to_function(k, n, spec)
    dom = dominants(f)
    violations = []
    for c in range(k):
        if c in dom:
            continue
        t = restrict(f, n, c)
        e, tg = fast_profile_of(t)
        if tg is None or tg < 2:
            violations.append(
                _violation(f, "cor3_1.restriction-gap", c=c, ess=e, gap=tg)
            )
    return Counter(), violations


def check_thm4_1(k, n, spec, hypothesis=True):
    """Symmetric with non-trivial gap: every variable subset is separable."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None or g < 2):
        return None
    f = spec_to_function(k, n, spec)
    report = separable_sets(f)
    expected = {
        frozenset(s)
        for r in range(n + 1)
        for s in itertools.combinations(range(1, n + 1), r)
    }
    if report.separable_sets != frozenset(expected):
        missing = sorted(tuple(sorted(s)) for s in expected - report.separable_sets)
        return Counter(), [_violation(f, "thm4_1.all-subsets", missing=missing)]
    return Counter(), []


def check_cor4_1(k, n, spec, hypothesis=True):
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None or g < 2):
        return None
    f = spec_to_function(k, n, spec)
    report = separable_sets(f)
    if report.sep_count != 2**n:
        return Counter(), [_violation(f, "cor4_1.sep-count", sep=report.sep_count)]
    return Counter(), []


def check_cor4_2(k, n, spec, hypothesis=True):
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None or g < 2):
        return None
    f = spec_to_function(k, n, spec)
    closure = subfunction_closure(f)
    if closure.sub_count < 2**n:
        return Counter(), [_violation(f, "cor4_2.sub-count", sub=closure.sub_count)]
    return Counter(), []


def check_willard(k, n, table, hypothesis=True):
    """Sanity bounds: gap <= min(n, k), and gap <= 2 when n exceeds k."""
    f = FiniteFunction(k, n, table)
    if hypothesis and (essential_count(f) != n or n < 2):
        return None
    g = gap(f)
    violations = []
    if g > min(n, k):
        violations.append(_violation(f, "willard.min-bound", gap=g))
    if k < n and g > 2:
        violations.append(_violation(f, "willard.two-bound", gap=g))
    return Counter(), violations


def check_thm2_6(k, n, table, hypothesis=True):
    """Linear functions: no all-essential one has a gap of 2 or more at odd
    k, and at even k only the all-k/2 maps, with gap 2. The coefficients
    are read off the table as off a linear one: c = t[0], a_i = t[e_i] - c
    mod k."""
    f = FiniteFunction(k, n, table)
    if hypothesis and (essential_count(f) != n or n < 2):
        return None
    g = gap(f)
    coeffs = [(table[k ** (n - 1 - i)] - table[0]) % k for i in range(n)]
    if k % 2 == 1:
        violations = [_violation(f, "thm2_6.odd-radix-gap", coeffs=coeffs)] if g >= 2 else []
        return Counter(odd=1), violations
    if g >= 2 and not (g == 2 and all(c == k // 2 for c in coeffs)):
        return Counter(even=1), [_violation(f, "thm2_6.even-witness-form", coeffs=coeffs, gap=g)]
    return Counter(even=1), []


def _keep(violations: list, record: dict) -> int:
    """Keep a violation record while fewer than ``VIOLATION_CAP`` are kept;
    returns 1, the record's share of the violation total."""
    if len(violations) < VIOLATION_CAP:
        violations.append(record)
    return 1


def thm2_1_records(k: int, n: int, seed: int, sample: int | None = None):
    """``thm2_1`` form by form and table by table: (instances, violation
    total, the first ``VIOLATION_CAP`` records). Every form (a0 on the
    repeated points, a value per all-distinct point, not all equal to a0)
    has full gap, and every all-essential sampled table has full gap
    exactly when it is constant on the repeated points."""
    dis_index = [(index_of(p, k), p) for p in iter_points(k, n) if is_all_distinct(p)]
    eq_index = [m for m, p in enumerate(iter_points(k, n)) if not is_all_distinct(p)]
    violations = []
    total = 0
    instances = 0
    for a0 in range(k):
        for dis_vals in itertools.product(range(k), repeat=len(dis_index)):
            if all(v == a0 for v in dis_vals):
                continue
            tab = [a0] * k**n
            for (m, _), v in zip(dis_index, dis_vals):
                tab[m] = v
            f = FiniteFunction(k, n, tab)
            instances += 1
            p = gap_profile(f)
            if not (p.ess == n and p.gap == n):
                total += _keep(violations, _violation(f, "thm2_1.form-has-full-gap"))
    for tab in _seeded_rows(k, k**n, sample or 2000, seed, 20).tolist():
        f = FiniteFunction(k, n, tab)
        if essential_count(f) != n:
            continue
        instances += 1
        eq_const = len({f.table[m] for m in eq_index}) == 1
        if (gap(f) == n) != eq_const:
            total += _keep(violations, _violation(f, "thm2_1.converse-eq-constant"))
    return instances, total, violations


def lemma3_1_equality_witnesses(report):
    """Lemma 3.1's equality witnesses added to the report construction by
    construction: each full-gap table with a zero repeated-point
    coefficient and nonzero distinct-point ones, its sub off its closure."""
    k, n = report.k, report.n
    if n > k:
        report.notes.append("bound hypothesis needs n <= k; vacuous here")
        return
    if (k - 1) ** comb(k, n) > 100_000:
        report.notes.append(
            "equality-witness family too large to sweep; skipped"
        )
        report.subcases["equality-witness"] = {"instances": 0, "vacuous": True}
        return
    eq_checked = 0
    slots = _gap_n_slots(k, n)
    for combo in itertools.product(range(1, k), repeat=comb(k, n)):
        f = FiniteFunction(k, n, slots((0, *combo)))
        eq_checked += 1
        closure = subfunction_closure(f)
        expected = sub_bound(n, k) + range_size(f)
        if closure.sub_count != expected:
            report.violations_total += _keep(report.violations, _violation(
                f, "lemma3_1.equality-witness", sub=closure.sub_count, expected=expected))
    report.subcases["equality-witness"] = {
        "instances": eq_checked,
        "vacuous": eq_checked == 0,
    }


def lemma2_1_records(f: FiniteFunction) -> list:
    """Lemma 2.1's violation records of f: every state of its subfunction
    closure below f, breadth first, is symmetric and has no essential
    variable or as many as its arity."""
    k, n = f.k, f.n
    violations = []
    # Per distinct table: (symmetric, essential positions, the k restrictions
    # at each of them). Many BFS states share a table; each state still
    # reports its own violations.
    facts = {}
    root = (tuple(range(1, n + 1)), f.table)
    seen = {root}
    queue = deque([root])
    while queue:
        remaining, table = queue.popleft()
        arity = len(remaining)
        order = n - arity
        fact = facts.get(table)
        if fact is None:
            ess_local = _essential_positions(k, arity, table)
            fact = facts[table] = (
                order > 0 and is_symmetric(FiniteFunction(k, arity, table)),
                ess_local,
                [(p, [restrict_table(k, arity, table, p, c) for c in range(k)])
                 for p in ess_local],
            )
        symmetric, ess_local, children = fact
        if order > 0:
            if not symmetric:
                violations.append(
                    _violation(f, "lemma2_1.subfunction-symmetric", order=order)
                )
            e = len(ess_local)
            if e > 0 and e != arity:
                violations.append(
                    _violation(
                        f, "lemma2_1.ess-equals-n-minus-order", order=order, ess=e
                    )
                )
        for p, tables in children:
            rest = remaining[: p - 1] + remaining[p:]
            for child_table in tables:
                child = (rest, child_table)
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return violations


def slice_flags(k: int, n: int, tables) -> np.ndarray:
    """Rows of an (N, k^n) array of value tables with a restriction, fixing
    o of the n positions to constants (1 <= o < n), that violates
    ``screens._lemma2_1``. Every state of a subfunction closure below its
    root is such a restriction or a constant, so a row that is not flagged
    has no violation."""
    t = _values(k, tables)
    rows = len(t)
    t = t.reshape((rows,) + (k,) * n)
    flagged = np.zeros(rows, dtype=bool)
    for o in range(1, n):
        arity = n - o
        for fixed in itertools.combinations(range(n), o):
            free = [p for p in range(n) if p not in fixed]
            s = t.transpose([0] + [1 + p for p in fixed] + [1 + p for p in free])
            s = s.reshape(rows * k**o, k**arity)
            ess = _essential_mask(k, arity, s)
            pairs = itertools.combinations(range(arity), 2)
            wrong = _lemma2_1(arity, _asymmetric(k, s, ess, pairs), ess.sum(axis=1))
            flagged |= wrong.reshape(rows, -1).any(axis=1)
    return flagged


def full_shape_walk(k: int, n: int, specs) -> dict:
    """The identification-shape walk that gathers and masks every shape of
    the DAG, the root's whole k^n table too: per shape, (depth, ess, gap),
    each (N,), the depth -1 where the shape is not reached and the gap -1
    below 2 essential parts. ``enumeration._shape_walk`` gathers only the
    reached shapes and reads the masks of the root and its one child off
    the representation."""
    specs = _values(k, specs).reshape(-1, comb(k + n - 1, n))
    root = (1,) * n
    rows = len(specs)

    def gather(shape):  # the root's is the multiset index of every point
        if shape == root:
            return np.array(symmetry_index(k, n).orbit_of_point, dtype=np.intp)
        return _shape_gather(k, n, shape)

    masks = {shape: _essential_mask(k, len(shape), specs[:, gather(shape)])
             for shape, _ in _shape_dag(n)}
    count = {shape: e.sum(axis=1) for shape, e in masks.items()}
    depth = {shape: np.full(rows, -1, dtype=np.int64) for shape in masks}
    depth[root][:] = 0
    out = {}
    for shape, merges in _shape_dag(n):
        d, e = depth[shape], masks[shape]
        best = np.full(rows, -1, dtype=np.int64)
        for i, j, child in merges:
            active = (d >= 0) & e[:, i] & e[:, j]
            depth[child] = np.maximum(depth[child], np.where(active, d + 1, -1))
            best = np.maximum(best, np.where(active, count[child], -1))
        out[shape] = d, count[shape], np.where(count[shape] >= 2, count[shape] - best, -1)
    return out


def check_lemma2_1(k, n, spec, hypothesis=True):
    """Every subfunction of a symmetric all-essential function is symmetric,
    and a subfunction with essential variables has as many as its arity."""
    f = spec_to_function(k, n, spec)
    if hypothesis and essential_count(f) != n:
        return None
    return Counter(), lemma2_1_records(f)


def check_lemma2_3(k, n, table, hypothesis=True):
    """An all-essential function with gap 2 and n > 3 has a pair (u, v) whose
    identification drops to n-2 essential variables, loses x_v, and behaves
    the same against every third variable. Without the hypothesis, any
    all-essential table with n >= 2."""
    f = FiniteFunction(k, n, table)
    if hypothesis and (n <= 3 or essential_count(f) != n or gap(f) != 2):
        return None
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                continue
            minor = identify(f, u, v)
            ess_m = essential_variables(minor)
            if len(ess_m) != n - 2 or v in ess_m:
                continue
            ok = True
            for m in range(1, n + 1):
                if m in (u, v):
                    continue
                if (
                    essential_count(identify(f, u, m)) != n - 2
                    or essential_count(identify(f, v, m)) != n - 2
                ):
                    ok = False
                    break
            if ok:
                return Counter(), []
    return Counter(), [_violation(f, "lemma2_3.pair-exists")]


def check_lemma2_5(k, n, spec, hypothesis=True):
    """Symmetric gap-2: 1 <= ind <= n/2 and every minor at depth l has
    exactly n - 2l essential variables. Without the hypothesis, any
    all-essential spec with n >= 2."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g != 2):
        return None
    f = spec_to_function(k, n, spec)
    ind = gap_index(f)
    violations = []
    if not (1 <= ind and 2 * ind <= n):
        violations.append(_violation(f, "lemma2_5.index-bounds", ind=ind))
    for rec in all_minors(f):
        e = essential_count(rec.function)
        if e != n - 2 * rec.depth:
            violations.append(
                _violation(f, "lemma2_5.chain-ess", depth=rec.depth, ess=e)
            )
    return Counter(), violations


def check_remark2_1(k, n, spec, hypothesis=True):
    """Symmetric with non-trivial gap: all identification minors symmetric.
    Without the hypothesis, any spec."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g is None or g < 2):
        return None
    f = spec_to_function(k, n, spec)
    violations = []
    for rec in all_minors(f):
        if not is_symmetric(rec.function):
            violations.append(
                _violation(f, "remark2_1.minor-symmetric", depth=rec.depth)
            )
    return Counter(), violations


def check_remark2_2(k, n, spec, hypothesis=True):
    """Symmetric gap-2: a depth-l minor has gap 2 below the gap index and
    full gap (or no essential variables) at the gap index. Without the
    hypothesis, any all-essential spec with n >= 2."""
    ess, g = spec_ess_gap(k, n, spec)
    if hypothesis and (ess != n or g != 2):
        return None
    f = spec_to_function(k, n, spec)
    ind = gap_index(f)
    violations = []
    for rec in all_minors(f):
        h = rec.function
        l = rec.depth
        e = essential_count(h)
        if e != n - 2 * l:
            violations.append(_violation(f, "remark2_2.minor-ess", depth=l, ess=e))
            continue
        if l < ind:
            if e < 2 or gap(h) != 2:
                violations.append(
                    _violation(f, "remark2_2.below-index-class", depth=l)
                )
        else:
            if e >= 2 and gap(h) != e:
                violations.append(
                    _violation(f, "remark2_2.at-index-class", depth=l)
                )
    return Counter(), violations


ORACLES = {
    "lemma2_1": check_lemma2_1,
    "lemma2_2": check_lemma2_2,
    "lemma2_3": check_lemma2_3,
    "lemma2_5": check_lemma2_5,
    "remark2_1": check_remark2_1,
    "remark2_2": check_remark2_2,
    "lemma2_4": check_lemma2_4,
    "thm2_4": check_thm2_4,
    "thm3_1": check_thm3_1,
    "lemma3_1": check_lemma3_1,
    "thm3_2": check_thm3_2,
    "cor3_1": check_cor3_1,
    "thm4_1": check_thm4_1,
    "cor4_1": check_cor4_1,
    "cor4_2": check_cor4_2,
    "willard": check_willard,
    "thm2_6": check_thm2_6,
}
