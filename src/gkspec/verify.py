"""One-shot verification: every finite computation the argument rests on.

Each check has a stable id and a citation key so the report can be audited
line by line.  Each check is a function of the run's one input, its Corpus:
the record database at a path (None for the embedded one), whose J4 record
is J4's one source; the rest comes from embedded data, memoized library
builders and a fixed RNG seed, so output is identical across runs.  A check
either returns a detail string (pass) or raises CheckFailure (fail);
unexpected exceptions are reported as failures too, never swallowed.
"""

from __future__ import annotations

import random
from functools import cache, partial, reduce
from itertools import accumulate, cycle
from math import lcm

from . import atlasdb, groups, primegraph
from ._record import Record
from .gf import make_field, subgroup_generator, element_order
from .linact import (
    LinearAction,
    fixed_space_dim,
    is_fixed_point_free,
    minpoly_equals_xs_minus_1,
    semidirect_element_order,
    semidirect_spectrum,
)
from .orderset import OrderSet, product_spectrum, wreath2_spectrum

PI_1 = (5, 11, 23, 29, 31, 37, 43)
PI_2 = (7, 11, 23, 29, 31, 37, 43)
RHO = (29, 31, 37, 43)

# Lemma 13's contradiction orders p*m as (p, (m, ...)) batches, one per
# prime p of the extending module: an element of order m in spec(J4 x J4)
# acting on a p-module with a nonzero fixed vector gives an element of
# order p*m.  Grouping the orders by p, with every m a member of the
# product, is this repository's reading of the lemma.  13717 = 11*29*43 and
# 28681 = 23*29*43 are claimed for both p = 29 and p = 43.
CONTRADICTION_ORDERS = (
    (2, (28 * 37, 29 * 37)),
    (3, (28 * 37, 29 * 37)),
    (5, (11 * 31,)),
    (7, (7, 29 * 43)),
    (11, (11, 7 * 23, 23 * 43)),
    (23, (5 * 28, 5 * 29, 11 * 28, 11 * 29)),
    (29, (7 * 11, 7 * 23, 11 * 43, 23 * 43)),
) + tuple((p, (7 * 11, 7 * 23, 11 * 29, 23 * 29)) for p in (31, 37, 43))

SAMPLE_SEED = 20260808


class CheckFailure(Exception):
    pass


class CheckResult(Record):
    _fields = ("check_id", "citation", "status", "detail")  # status: "pass" | "fail"


class VerificationReport(Record):
    _fields = ("results",)

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_obj(self) -> list[dict]:
        return [
            {"id": r.check_id, "citation": r.citation, "status": r.status, "detail": r.detail}
            for r in self.results
        ]


class Corpus:
    """One verify run's record database: records(), J4's stored spectrum j4()
    and its square j4xj4(), each built on first call and kept for the run.
    A call that raises keeps nothing, so every check reading a database that
    cannot be read fails with the same message."""

    def __init__(self, db_path=None):
        records = self.records = cache(lambda: tuple(atlasdb.load(db_path)))
        j4 = self.j4 = cache(lambda: atlasdb.stored_spectrum(records(), "J4"))
        self.j4xj4 = cache(lambda: product_spectrum(j4(), j4()))


def _remark_spectrum() -> OrderSet:
    """The witness spectrum, read by three checks."""
    return reduce(product_spectrum, map(semidirect_spectrum, groups.build_remark_group()))


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


# -- spectrum data -----------------------------------------------------------

def _check_spectrum_count(corpus):
    members = corpus.j4().members()
    _require(len(members) == 31, f"expected 31 members, found {len(members)}")
    return "spectrum from 14 generators expands to exactly 31 members"


def _check_spectrum_membership(corpus):
    j4 = corpus.j4()
    for n in (66, 44):
        _require(j4.contains(n), f"{n} missing from the spectrum")
    for n in (9, 25, 46, 55):
        _require(not j4.contains(n), f"{n} wrongly present in the spectrum")
    return "contains 66 and 44; excludes 9, 25, 46 and 55"


def _check_spectrum_primes(corpus):
    got = corpus.j4().pi()
    order = atlasdb.record(corpus.records(), "J4").order
    _require(order is not None, "record J4 stores no order")
    _require(len(got) == 10, f"expected ten primes, found {len(got)}")
    _require(got == order.primes, f"prime set {got} differs from the order's {order.primes}")
    return "ten primes, matching the factored group order"


# -- product spectrum --------------------------------------------------------

def _check_product_membership(corpus):
    product = corpus.j4xj4()
    _require(product.contains(2310), "2310 = lcm(66,35) missing from the product")
    for n in (9, 25, 32):
        _require(not product.contains(n), f"{n} wrongly present in the product")
    return "2310 present; 9, 25 and 32 absent"


def _check_product_oracle(corpus):
    members = corpus.j4().members()
    brute: set[int] = set()
    for v in {lcm(x, y) for x in members for y in members}:
        d = 1
        while d * d <= v:
            if v % d == 0:
                brute.add(d)
                brute.add(v // d)
            d += 1
    _require(
        sorted(brute) == corpus.j4xj4().members(),
        "lcm-closure differs from the double-enumeration oracle",
    )
    return f"matches the brute-force oracle on all {len(brute)} members"


def _check_product_sigma(corpus):
    s = corpus.j4xj4().sigma()
    _require(s == 5, f"sigma of the product is {s}, expected 5")
    return "no member has more than five prime divisors; five is attained"


def _check_restricted_sigma(corpus):
    product = corpus.j4xj4()
    for name, primes in (("pi1", PI_1), ("pi2", PI_2)):
        v = product.restricted_sigma(primes)
        _require(v == 2, f"restricted sigma over {name} is {v}, expected 2")
    return "every member meets each odd-prime block in at most two primes"


# -- prime graphs ------------------------------------------------------------

def _check_graph_cocliques(corpus):
    g = primegraph.build_gk(corpus.j4())
    _require(g.adjacent(2, 11), "2 and 11 should be adjacent (44 is a member)")
    _require(not g.adjacent(29, 31), "29 and 31 should not be adjacent")
    _require(g.is_coclique(RHO), "29, 31, 37, 43 should be pairwise non-adjacent")
    cocliques = g.max_cocliques()
    _require(
        cocliques == [PI_1, PI_2],
        f"maximum cocliques {cocliques} differ from the two seven-prime sets",
    )
    return "independence number 7; the two seven-prime sets are the maximum cocliques"


def _check_graph_product_complete(corpus):
    g = primegraph.build_gk(corpus.j4xj4())
    n = len(g.vertices)
    _require(n == 10, f"product graph has {n} vertices, expected 10")
    _require(
        len(g.edges) == n * (n - 1) // 2,
        "product graph is not complete",
    )
    _require(
        g.max_cocliques() == [(v,) for v in g.vertices],
        "independence number of the complete graph is not 1",
    )
    return "complete on ten vertices; independence number 1"


# -- excluded orders and the wreath distinguisher -----------------------------

def _check_excluded_orders(corpus):
    product = corpus.j4xj4()
    pairs = [(p, m) for p, batch in CONTRADICTION_ORDERS for m in batch]
    absent = [(p, m) for p, m in pairs if not product.contains(m)]
    _require(not absent, f"(p, m) pairs with m outside the product: {absent}")
    present = [p * m for p, m in pairs if product.contains(p * m)]
    _require(not present, f"contradiction orders unexpectedly present: {present}")
    return f"all {len(pairs)} contradiction orders are outside the product"


def _check_wreath(corpus):
    wr = wreath2_spectrum(corpus.j4())
    _require(wr.contains(32), "32 missing from the wreath spectrum")
    _require(32 not in corpus.j4xj4(), "32 wrongly present in the product")
    return "32 separates the wreath spectrum from the product spectrum"


# -- the three-prime witness --------------------------------------------------

def _check_remark_spectrum(corpus):
    s = _remark_spectrum()
    _require(
        s.members() == [1, 3, 5, 15, 17, 51, 85],
        f"witness spectrum is {s.members()}",
    )
    _require(s.pi() == (3, 5, 17), f"witness primes are {s.pi()}")
    _require(s.sigma() == 2, f"witness sigma is {s.sigma()}")
    return "spectrum {1,3,5,15,17,51,85}; primes {3,5,17}; sigma 2"


def _check_remark_hypotheses(corpus):
    s = _remark_spectrum()
    cond1, cond2 = groups.check_proposition_hypotheses(s)
    _require(not cond1, f"divisibility condition fails: {cond1}")
    _require(not cond2, f"pair-membership condition fails: {cond2}")
    _require(len(s.pi()) == 3, "prime-count bound not met with equality")
    return "both hypotheses hold and the three-prime bound is attained"


def _factor_orders(h) -> list[list[int]]:
    """orders[i][z]: the order of (z, g^i) in field x| <g>, h the
    multiplication by g and z the vector 0 or 1, for i until g^i is one.

    The powers g^0, g^1, ... are listed once, multiplying by g until one
    comes back.  Each row then walks the powers of (1, u), u = g^i, once, by
    the group law (w, x)(1, u) = (w + x, x*u), reading x*u off the list:
    the first power with x one gives the order of (0, u), and the first with
    x one and w zero the order of (1, u).  No plan, T-sum or element_order
    is read.
    """
    field = h.field
    powers = [field.one]
    while not (x := powers[-1] * h.mult).is_one:
        powers.append(x)
    m = len(powers)
    orders = []
    for i in range(m):
        w, j, n, order_0 = field.one, i, 1, 0
        while not (w.is_zero and j == 0):
            if not order_0 and j == 0:
                order_0 = n
            w, j, n = w + powers[j], (j + i) % m, n + 1
        orders.append([order_0 or n, n])
    return orders


def _check_remark_sampling(corpus):
    # Actor j multiplies summand j only, so the group is the direct product
    # of the factors summand x| <generator>, and an element's order is the
    # lcm of its two factor orders.  In each factor (v, h) -> (c*v, h), for
    # a nonzero scalar c, is an automorphism (multiplications commute), so a
    # factor order depends only on h and on whether v is zero: the table
    # holds every order in the group, at 4*i + 2*(a != 0) + (b != 0) for
    # actor i (multiplying by g1^(i // 5) and g2^(i % 5)) and vector
    # components a and b.
    actions = groups.build_remark_group()
    structural = set(_remark_spectrum().members())
    big, small = map(_factor_orders, actions)
    table = [lcm(x, y) for row in big for other in small for x in row for y in other]
    # 10^4 uniform draws from the whole group, each read as its element's
    # order.  Entry 4*i + 2*(a != 0) + (b != 0) stands for 1, S - 1, L - 1
    # and (L - 1)(S - 1) elements, L and S the orders of the large and small
    # summands; summed per order they count the elements of each of the
    # seven orders, so cum numbers the n = 85 * 3^20 elements order by
    # order, ascending.  That re-indexes the elements, so each draw is still
    # the order of a uniform element, and bisect searches 7 blocks, not 340.
    # choices takes the order whose block holds random() * n, and random()
    # has 2^53 equally likely values, so each element is drawn with
    # probability within a relative n / 2^53 (about 3 * 10^-5) of 1/n.  cum
    # holds floats, exact below 2^53: bisect compares them faster than ints.
    big_order, small_order = (h.field.order for h in actions)
    sizes = (1, small_order - 1, big_order - 1, (big_order - 1) * (small_order - 1))
    every = set(table)
    counts = dict.fromkeys(sorted(every), 0)
    for order, size in zip(table, cycle(sizes)):
        counts[order] += size
    cum = list(accumulate(map(float, counts.values())))
    seen = set(random.Random(SAMPLE_SEED).choices(list(counts), cum_weights=cum, k=10**4))
    outside = seen - structural
    if outside:
        raise CheckFailure(f"sampled element order {min(outside)} outside the structural spectrum")
    # orders 1 and 5 need an exactly-zero component in the large summand, so
    # only the positive-density orders are required to show up
    if not {3, 15, 51, 85} <= seen:
        raise CheckFailure(f"sampling missed expected orders: observed {sorted(seen)}")
    _require(
        every == structural, f"element orders {sorted(every)} differ from the structural spectrum"
    )
    return "10000 sampled element orders all lie in the structural spectrum"


# -- PSL2 spectra from Dickson's closed form -----------------------------------

def _check_psl2_23(corpus):
    s = groups.psl2_spectrum(23)
    _require(
        s.members() == [1, 2, 3, 4, 6, 11, 12, 23],
        f"PSL2(23) spectrum is {s.members()}",
    )
    order = groups.psl2_order_formula(23)
    _require(order == 6072, f"PSL2(23) order is {order}")
    return "spectrum {1,2,3,4,6,11,12,23}; order 6072"


def _check_psl2_targets(q, lemma, expected, corpus):
    got = tuple(sorted(set(groups.psl2_spectrum(q).pi()) & set(atlasdb.LEMMA_QUERIES[lemma])))
    _require(got == expected, f"PSL2({q}) target primes {got}, expected {expected}")
    order = groups.psl2_order_formula(q)
    return f"target primes {{{','.join(map(str, expected))}}}; order {order}"


# -- linear actions at desk scale ----------------------------------------------

def _check_linact_galois(corpus):
    f = make_field(2, 11)
    phi = LinearAction.galois(f)
    _require(fixed_space_dim(phi) == 1, "Galois fixed space should be the prime subfield")
    _require(minpoly_equals_xs_minus_1(phi, 11), "Galois minimal polynomial should be x^11 - 1")
    return "Galois map: fixed dimension 1, minimal polynomial x^11 - 1"


def _check_linact_order22(corpus):
    f = make_field(2, 11)
    phi = LinearAction.galois(f)
    spec = semidirect_spectrum(phi)
    _require(spec.contains(22), "order 22 missing from the Galois semidirect spectrum")
    _require(
        semidirect_element_order(f.one, phi) == 22,
        "the vector 1 has trace 1 and should give order 22",
    )
    return "the field extended by its Galois group has elements of order 22"


def _check_linact_kernel(corpus):
    f = make_field(2, 11)
    zeta = subgroup_generator(f, 23)
    _require(element_order(zeta) == 23, "kernel generator should have order 23")
    mult = LinearAction.multiplication(zeta)
    _require(is_fixed_point_free(mult), "unit multiplication should be fixed-point free")
    _require(
        all(semidirect_element_order(b, mult) == 23 for b in f.basis()),
        "T_23 of the multiplication should vanish",
    )
    spec = semidirect_spectrum(mult)
    _require(not spec.contains(46), "no order 46: the T-sum vanishes")
    _require(spec.members() == [1, 2, 23], f"kernel semidirect spectrum is {spec.members()}")
    _require(
        groups.gamma_frobenius_config(2, 11, 23, 11), "23:11 should be a Frobenius configuration"
    )
    return "23 acts freely: spectrum {1,2,23}, no 46; 23:11 is Frobenius"


def _check_frobenius_arithmetic(corpus):
    for kernel, complement in ((2048, 23), (23, 11), (3**16, 17)):
        _require((kernel - 1) % complement == 0, f"{complement} should divide {kernel} - 1")
    return "complement orders divide kernel orders minus one in all three instances"


# -- database filters ----------------------------------------------------------

def _check_db_load(corpus):
    db = corpus.records()
    _require(len(db) >= 16, f"corpus has {len(db)} records, expected at least 16")
    verified = 0
    for record in db:
        report = atlasdb.crosscheck_record(record)
        if report.status == "verified":
            verified += 1
    _require(verified >= 4, f"only {verified} records verified by the enumeration oracle")
    return f"{len(db)} records load; {verified} verified against the enumeration oracle"


_LEMMA8_EXPECTED = (
    ("J4", (11, 23, 29, 31, 37, 43)),
    ("L2(23)", (11, 23)),
    ("L2(32)", (11, 31)),
    ("L2(43)", (11, 43)),
    ("M23", (11, 23)),
    ("M24", (11, 23)),
    ("U3(11)", (11, 37)),
)

_LEMMA9_EXPECTED = (
    ("J4", (5, 23, 29, 37, 43)),
    ("L2(29)", (5, 29)),
    ("M23", (5, 23)),
    ("M24", (5, 23)),
    ("U3(11)", (5, 37)),
)


def _check_db_lemma(lemma, expected, count, corpus):
    result = atlasdb.run_filter(corpus.records(), atlasdb.LEMMA_QUERIES[lemma])
    _require(result.matches == expected, f"filter returned {result.matches}")
    _require(not result.insufficient, f"undecidable records: {result.insufficient}")
    return f"exactly the {count} listed groups with the stated prime intersections"


def _check_db_insufficient(corpus):
    stripped = [
        r._replace(has9=None, has25=None, mu=None) if r.name == "M23" else r
        for r in corpus.records()
    ]
    result = atlasdb.run_filter(stripped, atlasdb.LEMMA_QUERIES["8"])
    _require(
        "M23" in result.insufficient,
        "a record without flags or generators must be reported, not passed",
    )
    _require(
        all(name != "M23" for name, _ in result.matches),
        "a record without exclusion data slipped through the filter",
    )
    return "removing the flags yields 'insufficient data' rather than a pass"


CHECKS = (
    ("spectrum.count", "Lemma 9(2)", _check_spectrum_count),
    ("spectrum.membership", "Lemma 9(2)", _check_spectrum_membership),
    ("spectrum.primes", "Lemma 9(1)", _check_spectrum_primes),
    ("product.membership", "Lemma 9(3)", _check_product_membership),
    ("product.oracle", "Lemma 9(3)", _check_product_oracle),
    ("product.sigma", "Lemma 9(3)", _check_product_sigma),
    ("product.restricted-sigma", "Lemma 12", _check_restricted_sigma),
    ("graph.cocliques", "Section 4", _check_graph_cocliques),
    ("graph.product-complete", "Section 2", _check_graph_product_complete),
    ("excluded.orders", "Lemma 13", _check_excluded_orders),
    ("wreath.distinguisher", "Section 4", _check_wreath),
    ("remark.spectrum", "Remark", _check_remark_spectrum),
    ("remark.hypotheses", "Proposition 1", _check_remark_hypotheses),
    ("remark.sampling", "Remark", _check_remark_sampling),
    ("psl2.q23", "Lemma 8(1)", _check_psl2_23),
    ("psl2.q32", "Lemma 8(4)", partial(_check_psl2_targets, 32, "8", (11, 31))),
    ("psl2.q43", "Lemma 8(6)", partial(_check_psl2_targets, 43, "8", (11, 43))),
    ("psl2.q29", "Lemma 9(3)", partial(_check_psl2_targets, 29, "9", (5, 29))),
    ("linact.galois", "Lemma 2", _check_linact_galois),
    ("linact.order22", "Lemma 1", _check_linact_order22),
    ("linact.kernel", "Lemma 3", _check_linact_kernel),
    ("frobenius.arithmetic", "Lemma 3(1)", _check_frobenius_arithmetic),
    ("db.load", "Lemmas 8-9", _check_db_load),
    ("db.lemma8", "Lemma 8", partial(_check_db_lemma, "8", _LEMMA8_EXPECTED, "seven")),
    ("db.lemma9", "Lemma 9", partial(_check_db_lemma, "9", _LEMMA9_EXPECTED, "five")),
    ("db.insufficient", "Lemma 8", _check_db_insufficient),
)


def run_checks(only: str | None = None, db_path=None) -> VerificationReport:
    """Run the registered checks (optionally those whose id contains `only`).

    db_path names the record database of the checks' one Corpus; None reads
    the embedded corpus.
    """
    corpus = Corpus(db_path)
    results = []
    for check_id, citation, fn in CHECKS:
        if only and only not in check_id:
            continue
        try:
            detail = fn(corpus)
            results.append(CheckResult(check_id, citation, "pass", detail))
        except CheckFailure as exc:
            results.append(CheckResult(check_id, citation, "fail", str(exc)))
        except Exception as exc:  # defensive: report, never crash the report
            results.append(
                CheckResult(check_id, citation, "fail", f"{type(exc).__name__}: {exc}")
            )
    return VerificationReport(tuple(results))
