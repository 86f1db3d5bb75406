"""One-shot verification: every finite computation the argument rests on.

Each check has a stable id and a citation key so the report can be audited
line by line.  Each check is a function of the run's one input, the record
database path (None for the embedded corpus); everything else comes from
embedded data, memoized library builders and a fixed RNG seed, so output
is identical across runs.  A check either returns a detail string (pass)
or raises CheckFailure (fail); unexpected exceptions are reported as
failures too, never swallowed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from . import atlasdb, groups, orderset, primegraph
from .gf import make_field, subgroup_generator, element_order
from .linact import (
    ActionGroupElement,
    LinearAction,
    fixed_space_dim,
    frobenius_arith_check,
    is_fixed_point_free,
    minpoly_equals_xs_minus_1,
    semidirect_element_order,
    semidirect_spectrum,
)
from .orderset import OrderSet, j4_spectrum, j4xj4_spectrum, wreath2_spectrum

PI_1 = (5, 11, 23, 29, 31, 37, 43)
PI_2 = (7, 11, 23, 29, 31, 37, 43)
RHO = (29, 31, 37, 43)

# Orders whose presence would contradict the product spectrum, one batch per
# characteristic of the extending module (prime powers 49 and 121 included).
CONTRADICTION_ORDERS = (
    2 * 28 * 37, 2 * 29 * 37,
    3 * 28 * 37, 3 * 29 * 37,
    5 * 11 * 31,
    49, 7 * 29 * 43,
    121, 7 * 11 * 23, 11 * 23 * 43,
    5 * 23 * 28, 5 * 23 * 29, 11 * 23 * 28, 11 * 23 * 29,
    7 * 11 * 29, 7 * 23 * 29, 11 * 29 * 43, 23 * 29 * 43,
) + tuple(
    f * p for p in (31, 37, 43) for f in (7 * 11, 7 * 23, 11 * 29, 23 * 29)
)

SAMPLE_SEED = 20260808


class CheckFailure(Exception):
    pass


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    citation: str
    status: str  # "pass" | "fail"
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_obj(self) -> list[dict]:
        return [
            {"id": r.check_id, "citation": r.citation, "status": r.status, "detail": r.detail}
            for r in self.results
        ]


@cache
def _remark_spectrum() -> OrderSet:
    """The witness spectrum, read by three checks and built once per process."""
    return groups.build_remark_group().spectrum()


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


# -- spectrum data -----------------------------------------------------------

def _check_spectrum_count(db_path):
    j4 = j4_spectrum()
    members = j4.members()
    _require(len(members) == 31, f"expected 31 members, found {len(members)}")
    _require(
        j4.maximal_elements == orderset.J4_SPECTRUM_GENERATORS,
        "the generator list is not its own divisibility antichain",
    )
    return "spectrum from 14 generators expands to exactly 31 members"


def _check_spectrum_membership(db_path):
    j4 = j4_spectrum()
    for n in (66, 44):
        _require(j4.contains(n), f"{n} missing from the spectrum")
    for n in (9, 25, 46, 55):
        _require(not j4.contains(n), f"{n} wrongly present in the spectrum")
    return "contains 66 and 44; excludes 9, 25, 46 and 55"


def _check_spectrum_primes(db_path):
    got = j4_spectrum().pi()
    want = orderset.J4_ORDER.primes
    _require(got == want, f"prime set {got} differs from the order primes {want}")
    return "ten primes, matching the factored group order"


# -- product spectrum --------------------------------------------------------

def _check_product_membership(db_path):
    product = j4xj4_spectrum()
    _require(product.contains(2310), "2310 = lcm(66,35) missing from the product")
    for n in (9, 25, 32):
        _require(not product.contains(n), f"{n} wrongly present in the product")
    return "2310 present; 9, 25 and 32 absent"


def _check_product_oracle(db_path):
    from math import gcd

    members = j4_spectrum().members()
    brute: set[int] = set()
    for x in members:
        for y in members:
            v = x // gcd(x, y) * y
            d = 1
            while d * d <= v:
                if v % d == 0:
                    brute.add(d)
                    brute.add(v // d)
                d += 1
    _require(
        sorted(brute) == j4xj4_spectrum().members(),
        "lcm-closure differs from the double-enumeration oracle",
    )
    return f"matches the brute-force oracle on all {len(brute)} members"


def _check_product_sigma(db_path):
    s = j4xj4_spectrum().sigma()
    _require(s == 5, f"sigma of the product is {s}, expected 5")
    return "no member has more than five prime divisors; five is attained"


def _check_restricted_sigma(db_path):
    product = j4xj4_spectrum()
    for name, primes in (("pi1", PI_1), ("pi2", PI_2)):
        v = product.restricted_sigma(primes)
        _require(v == 2, f"restricted sigma over {name} is {v}, expected 2")
    return "every member meets each odd-prime block in at most two primes"


# -- prime graphs ------------------------------------------------------------

def _check_graph_cocliques(db_path):
    g = primegraph.build_gk(j4_spectrum())
    _require(g.adjacent(2, 11), "2 and 11 should be adjacent (44 is a member)")
    _require(not g.adjacent(29, 31), "29 and 31 should not be adjacent")
    _require(g.is_coclique(RHO), "29, 31, 37, 43 should be pairwise non-adjacent")
    cocliques = g.max_cocliques()
    _require(
        cocliques == [PI_1, PI_2],
        f"maximum cocliques {cocliques} differ from the two seven-prime sets",
    )
    return "independence number 7; the two seven-prime sets are the maximum cocliques"


def _check_graph_product_complete(db_path):
    g = primegraph.build_gk(j4xj4_spectrum())
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

def _check_excluded_orders(db_path):
    product = j4xj4_spectrum()
    present = [n for n in CONTRADICTION_ORDERS if product.contains(n)]
    _require(not present, f"contradiction orders unexpectedly present: {present}")
    return f"all {len(CONTRADICTION_ORDERS)} contradiction orders are outside the product"


def _check_wreath(db_path):
    wr = wreath2_spectrum(j4_spectrum())
    _require(wr.contains(32), "32 missing from the wreath spectrum")
    _require(not j4xj4_spectrum().contains(32), "32 wrongly present in the product")
    return "32 separates the wreath spectrum from the product spectrum"


# -- the three-prime witness --------------------------------------------------

def _check_remark_spectrum(db_path):
    s = _remark_spectrum()
    _require(
        s.members() == [1, 3, 5, 15, 17, 51, 85],
        f"witness spectrum is {s.members()}",
    )
    _require(s.pi() == (3, 5, 17), f"witness primes are {s.pi()}")
    _require(s.sigma() == 2, f"witness sigma is {s.sigma()}")
    return "spectrum {1,3,5,15,17,51,85}; primes {3,5,17}; sigma 2"


def _check_remark_hypotheses(db_path):
    s = _remark_spectrum()
    cond1, cond2 = groups.check_proposition_hypotheses(s)
    _require(not cond1, f"divisibility condition fails: {cond1}")
    _require(not cond2, f"pair-membership condition fails: {cond2}")
    _require(len(s.pi()) == 3, "prime-count bound not met with equality")
    return "both hypotheses hold and the three-prime bound is attained"


def _check_remark_sampling(db_path):
    rng = random.Random(SAMPLE_SEED)
    spec = groups.build_remark_group()
    structural = set(_remark_spectrum().members())
    actors = spec.acting_elements()
    big, small = spec.summands
    module_order = big.order * small.order
    seen = set()
    for _ in range(10**4):
        # one uniform draw from the whole group: (actor, vector) in mixed radix
        i, n = divmod(rng.randrange(len(actors) * module_order), module_order)
        a, b = divmod(n, small.order)
        o = semidirect_element_order((big.element_at(a), small.element_at(b)), actors[i])
        if o not in structural:
            raise CheckFailure(f"sampled element order {o} outside the structural spectrum")
        seen.add(o)
    # orders 1 and 5 need an exactly-zero component in the large summand, so
    # only the positive-density orders are required to show up
    if not {3, 15, 51, 85} <= seen:
        raise CheckFailure(f"sampling missed expected orders: observed {sorted(seen)}")
    return "10000 sampled element orders all lie in the structural spectrum"


# -- PSL2 spectra from the torus census ----------------------------------------

def _check_psl2_23(db_path):
    s = groups.psl2_spectrum(23)
    _require(
        s.members() == [1, 2, 3, 4, 6, 11, 12, 23],
        f"PSL2(23) spectrum is {s.members()}",
    )
    order = groups.psl2_order_formula(23)
    _require(order == 6072, f"PSL2(23) order is {order}")
    return "spectrum {1,2,3,4,6,11,12,23}; order 6072"


def _psl2_intersection_check(q, targets, expected):
    got = tuple(sorted(set(groups.psl2_spectrum(q).pi()) & set(targets)))
    _require(got == expected, f"PSL2({q}) target primes {got}, expected {expected}")
    return (
        f"target primes {{{','.join(map(str, expected))}}}; "
        f"order {groups.psl2_order_formula(q)}"
    )


def _check_psl2_32(db_path):
    return _psl2_intersection_check(32, (11, 23, 29, 31, 37, 43), (11, 31))


def _check_psl2_43(db_path):
    return _psl2_intersection_check(43, (11, 23, 29, 31, 37, 43), (11, 43))


def _check_psl2_29(db_path):
    return _psl2_intersection_check(29, (5, 23, 29, 37, 43), (5, 29))


# -- linear actions at desk scale ----------------------------------------------

def _check_linact_galois(db_path):
    f = make_field(2, 11)
    phi = LinearAction.galois(f)
    _require(fixed_space_dim(phi) == 1, "Galois fixed space should be the prime subfield")
    _require(minpoly_equals_xs_minus_1(phi, 11), "Galois minimal polynomial should be x^11 - 1")
    return "Galois map: fixed dimension 1, minimal polynomial x^11 - 1"


def _check_linact_order22(db_path):
    f = make_field(2, 11)
    phi = LinearAction.galois(f)
    gal = [ActionGroupElement((phi.power(j),)) for j in range(11)]
    spec = semidirect_spectrum((f,), gal)
    _require(spec.contains(22), "order 22 missing from the Galois semidirect spectrum")
    _require(
        semidirect_element_order(f.one, phi) == 22,
        "the vector 1 has trace 1 and should give order 22",
    )
    return "the field extended by its Galois group has elements of order 22"


def _check_linact_kernel(db_path):
    f = make_field(2, 11)
    zeta = subgroup_generator(f, 23)
    _require(element_order(zeta) == 23, "kernel generator should have order 23")
    mult = LinearAction.multiplication(zeta)
    _require(is_fixed_point_free(mult), "unit multiplication should be fixed-point free")
    _require(
        all(semidirect_element_order(b, mult) == 23 for b in f.basis()),
        "T_23 of the multiplication should vanish",
    )
    cyc = [ActionGroupElement((mult.power(j),)) for j in range(23)]
    spec = semidirect_spectrum((f,), cyc)
    _require(not spec.contains(46), "no order 46: the T-sum vanishes")
    _require(spec.members() == [1, 2, 23], f"kernel semidirect spectrum is {spec.members()}")
    gamma = groups.build_gamma_frobenius(2, 11, 23)
    _require(gamma.frobenius_config, "23:11 should be a Frobenius configuration")
    return "23 acts freely: spectrum {1,2,23}, no 46; 23:11 is Frobenius"


def _check_frobenius_arithmetic(db_path):
    for kernel, complement in ((2048, 23), (23, 11), (3**16, 17)):
        _require(
            frobenius_arith_check(kernel, complement),
            f"{complement} should divide {kernel} - 1",
        )
    return "complement orders divide kernel orders minus one in all three instances"


# -- database filters ----------------------------------------------------------

def _check_db_load(db_path):
    db = atlasdb.load(db_path)
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


def _check_db_lemma8(db_path):
    result = atlasdb.run_filter(atlasdb.load(db_path), atlasdb.LEMMA_QUERIES["8"])
    _require(result.matches == _LEMMA8_EXPECTED, f"filter returned {result.matches}")
    _require(not result.insufficient, f"undecidable records: {result.insufficient}")
    return "exactly the seven listed groups with the stated prime intersections"


def _check_db_lemma9(db_path):
    result = atlasdb.run_filter(atlasdb.load(db_path), atlasdb.LEMMA_QUERIES["9"])
    _require(result.matches == _LEMMA9_EXPECTED, f"filter returned {result.matches}")
    _require(not result.insufficient, f"undecidable records: {result.insufficient}")
    return "exactly the five listed groups with the stated prime intersections"


def _check_db_insufficient(db_path):
    from dataclasses import replace

    stripped = [
        replace(r, has9=None, has25=None, mu=None) if r.name == "M23" else r
        for r in atlasdb.load(db_path)
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
    ("psl2.q32", "Lemma 8(4)", _check_psl2_32),
    ("psl2.q43", "Lemma 8(6)", _check_psl2_43),
    ("psl2.q29", "Lemma 9(3)", _check_psl2_29),
    ("linact.galois", "Lemma 2", _check_linact_galois),
    ("linact.order22", "Lemma 1", _check_linact_order22),
    ("linact.kernel", "Lemma 3", _check_linact_kernel),
    ("frobenius.arithmetic", "Lemma 3(1)", _check_frobenius_arithmetic),
    ("db.load", "Lemmas 8-9", _check_db_load),
    ("db.lemma8", "Lemma 8", _check_db_lemma8),
    ("db.lemma9", "Lemma 9", _check_db_lemma9),
    ("db.insufficient", "Lemma 8", _check_db_insufficient),
)


def run_checks(only: str | None = None, db_path=None) -> VerificationReport:
    """Run the registered checks (optionally those whose id contains `only`).

    db_path names a record database; None reads the embedded corpus.
    """
    results = []
    for check_id, citation, fn in CHECKS:
        if only and only not in check_id:
            continue
        try:
            detail = fn(db_path)
            results.append(CheckResult(check_id, citation, "pass", detail))
        except CheckFailure as exc:
            results.append(CheckResult(check_id, citation, "fail", str(exc)))
        except Exception as exc:  # defensive: report, never crash the report
            results.append(
                CheckResult(check_id, citation, "fail", f"{type(exc).__name__}: {exc}")
            )
    return VerificationReport(tuple(results))
