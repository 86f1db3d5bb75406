"""Record database: parser, invariants, selection filters, crosschecks."""

import random
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkspec import atlasdb, verify
from gkspec.atlasdb import (
    CrosscheckError,
    GroupRecord,
    ParseError,
    RecordError,
    crosscheck_record,
    load,
    parse_records,
    record,
    run_filter,
    stored_spectrum,
)
from gkspec.orderset import Factorization, OrderSet, factorize, product_spectrum
from test_kernels import PRIME_POWERS_TO_64, enumerated_order_counts, field_tables, orders_present

J4_PRIMES = (2, 3, 5, 7, 11, 23, 29, 31, 37, 43)

EXPECTED_NAMES = {
    "J4", "L2(23)", "M23", "M24", "Co3", "Co2", "L2(32)", "U3(11)",
    "L2(43)", "U7(2)", "L2(43^2)", "S4(43)", "L2(29)", "U4(7)", "M22", "Sz(128)",
}

LEMMA8_EXPECTED = (
    ("J4", (11, 23, 29, 31, 37, 43)),
    ("L2(23)", (11, 23)),
    ("L2(32)", (11, 31)),
    ("L2(43)", (11, 43)),
    ("M23", (11, 23)),
    ("M24", (11, 23)),
    ("U3(11)", (11, 37)),
)

LEMMA9_EXPECTED = (
    ("J4", (5, 23, 29, 37, 43)),
    ("L2(29)", (5, 29)),
    ("M23", (5, 23)),
    ("M24", (5, 23)),
    ("U3(11)", (5, 37)),
)


# -- parsing ---------------------------------------------------------------------

def test_embedded_corpus_loads():
    db = load()
    assert {r.name for r in db} == EXPECTED_NAMES
    assert len(db) == 16


def test_embedded_corpus_loads_are_fresh_lists():
    first, second = load(), load()
    assert first == second
    assert first is not second
    first.pop()
    first[0] = first[0]._replace(mu=None, has9=None, has25=None)
    assert load() == second
    assert len(load()) == 16


def test_database_file_is_read_on_every_load(tmp_path):
    db = tmp_path / "one.db"
    db.write_text("group A\npi 2\n")
    assert [r.name for r in load(db)] == ["A"]
    db.write_text("group B\npi 3\n")
    assert [r.name for r in load(db)] == ["B"]


def test_parse_single_record():
    text = """
# comment line
group L2(23)
order 2^3 3 11 23   # trailing comment
mu 11,12,23
pi 2,3,11,23
flag has9 false
flag has25 false
note spectrum verified by psl2 oracle

group L2(8)
mu 2,7,9
pi 2,3,7
flag has9 true
"""
    r, r8 = parse_records(text)
    assert r.name == "L2(23)"
    assert r.order == factorize(6072)
    assert r.mu == OrderSet.from_generators([11, 12, 23])
    assert r.has9 is False and r.has25 is False
    assert r.notes == ("spectrum verified by psl2 oracle",)
    assert r8.name == "L2(8)"
    assert r8.order is None and r8.has25 is None and r8.notes == ()
    assert r8.mu == OrderSet.from_generators([2, 7, 9])
    assert r8.pi == (2, 3, 7)
    assert r8.has9 is True


def test_comment_line_inside_record_does_not_end_it():
    body = "order 2^3 3 11 23\n{}mu 11,12,23\npi 2,3,11,23\n"
    (plain,) = parse_records("group L2(23)\n" + body.format(""))
    (commented,) = parse_records(
        "group L2(23)\n" + body.format("# spectrum from the trace census\n")
    )
    assert commented == plain
    # a blank line still separates records, with or without trailing spaces
    a, b = parse_records("group A\npi 2\n   \ngroup B\npi 3\n")
    assert (a.name, a.pi, b.name, b.pi) == ("A", (2,), "B", (3,))
    with pytest.raises(ParseError, match="line 1: record A lacks pi"):
        parse_records("group A\n\npi 2\n")


def test_a_tab_may_end_a_key_or_a_flag_name():
    text = (Path(atlasdb.__file__).parent / "data" / "simple_groups.db").read_text("utf-8")
    tabbed = "\n".join(line.replace(" ", "\t", 1) for line in text.splitlines())
    assert tabbed.count("\t") > 100
    assert parse_records(tabbed) == load()
    (a,) = parse_records("group\tA\npi\t2,3\nflag has9\tfalse\nflag  has25 \t true\n")
    assert (a.name, a.pi, a.has9, a.has25) == ("A", (2, 3), False, True)


def test_repeated_key_is_rejected_with_its_line():
    head = "group L2(23)\norder 2^3 3 11 23\nmu 11,12,23\npi 2,3,11,23\n"
    for extra, key in (
        ("order 2^3 3 11 23", "order"),
        ("mu 2", "mu"),
        ("pi 2,3,11,23", "pi"),
        ("flag has9 false\nflag has9 false", "flag has9"),
        ("flag has25 false\nflag has25 true", "flag has25"),
    ):
        line = 4 + extra.count("\n") + 1
        with pytest.raises(ParseError, match=f"^line {line}: repeated key '{key}'$"):
            parse_records(head + extra + "\n")
    # notes repeat, and each record has its own keys
    a, b = parse_records(head + "note x\nnote y\n\n" + head.replace("L2(23)", "B"))
    assert a.notes == ("x", "y") and b.mu == a.mu


def test_parse_positions_errors():
    with pytest.raises(ParseError, match="line 3"):
        parse_records("group A\npi 2,3\nbogus key\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_records("pi 2,3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_records("group A\nflag has9 maybe\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_records("group A\norder 2^x\n")
    with pytest.raises(ParseError):
        parse_records("group A\nmu 4,x\npi 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_records("group A\nmu 9223372036854775808\npi 2\n")  # 2^63
    with pytest.raises(ParseError):
        parse_records("group A\n")  # record without pi
    # psi_12 passes Miller-Rabin on all twelve bases but lies above 2^63, so
    # it is refused by name, never loaded as a prime
    psi_12 = "318665857834031151167461"
    with pytest.raises(RecordError, match=psi_12):
        parse_records(f"group A\npi 2,{psi_12}\n")
    with pytest.raises(ParseError, match=f"line 2: {psi_12}"):
        parse_records(f"group A\norder 2 {psi_12}\npi 2,{psi_12}\n")
    # int() alone read each of these as a record of the group 2: numerals
    # are ASCII digits, and a power has digits on both sides of the ^
    for line in (
        "order 2^", "order 2^+1", "order +2", "order 2^\u0661", "order 2^0_1",
        "mu +2", "mu 0_2", "mu \u0662",
    ):
        with pytest.raises(ParseError, match="^line 3: bad (order token|integer list) "):
            parse_records(f"group A\npi 2\n{line}\n")
    for line in ("pi +2", "pi 0_2", "pi \u0662"):
        with pytest.raises(ParseError, match="^line 2: bad integer list "):
            parse_records(f"group A\n{line}\n")


def test_mu_line_must_be_an_antichain():
    # a mu line lists maximal elements: one dividing another, or a repeat,
    # is an error at that line, not a silently shortened spectrum
    for mu in ("4,8", "2,2", "8,4", "3,6,5"):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_records(f"group A\nmu {mu}\npi 2,3,5\n")
    (a,) = parse_records("group A\nmu 6,4,5\npi 2,3,5\n")
    assert a.mu.maximal_elements == (4, 5, 6)


# database-shaped text: lines of a known (or unknown) key followed by tokens
# that are near misses of valid values, mixed with arbitrary text
_TOKENS = st.one_of(
    st.integers(-5, 2**70).map(str),
    st.sampled_from(["has9", "has25", "true", "false", "2^3", "3^0", "^", "#", "X"]),
    st.text(max_size=6),
)
_LINES = st.builds(
    lambda key, sep, tokens: key + " " + sep.join(tokens),
    st.sampled_from(["group", "order", "mu", "pi", "flag", "note", "bogus", ""]),
    st.sampled_from([" ", ",", "^"]),
    st.lists(_TOKENS, max_size=4),
)
_DB_TEXT = st.one_of(st.text(), st.lists(_LINES, max_size=12).map("\n".join))


@settings(max_examples=200, deadline=500)
@given(_DB_TEXT)
def test_parse_records_raises_only_parse_or_record_errors(text):
    try:
        parse_records(text)
    except (ParseError, RecordError):
        pass


def test_record_invariants():
    # mu contains 9 but the flag denies it
    with pytest.raises(RecordError, match="has9"):
        parse_records("group X\nmu 9,5\npi 2,3,5\nflag has9 false\n")
    # pi must match the primes of order
    with pytest.raises(RecordError, match="pi"):
        parse_records("group X\norder 2^2 3\npi 2,5\n")
    # mu primes must lie inside pi
    with pytest.raises(RecordError, match="mu"):
        parse_records("group X\nmu 7\npi 2,3\n")
    # a prime listed twice in pi is rejected by name, not merged
    with pytest.raises(RecordError, match="pi lists 3 twice"):
        parse_records("group X\npi 2,3,3\n")
    with pytest.raises(RecordError, match="pi lists 3 twice"):
        parse_records("group X\npi 3,2,3\n")
    with pytest.raises(RecordError, match="pi lists 2 3 times"):
        parse_records("group X\npi 2,2,3,2\n")
    # built directly, pi must also come sorted
    with pytest.raises(RecordError, match="pi must be sorted and distinct"):
        GroupRecord("X", (3, 2), None, None, None, None, ())
    # duplicate names rejected
    with pytest.raises(RecordError, match="duplicate"):
        parse_records("group X\npi 2\n\ngroup X\npi 3\n")


def test_record_lagrange_invariants():
    # a true flag needs r^2 to divide the order; 3 and 5 appear only once here
    with pytest.raises(RecordError, match="has9"):
        parse_records("group X\norder 2^3 3 5\npi 2,3,5\nflag has25 true\nflag has9 true\n")
    with pytest.raises(RecordError, match="has25"):
        parse_records("group X\norder 2^3 3^2 5\npi 2,3,5\nflag has25 true\n")
    (r,) = parse_records("group X\norder 2^3 3^2 5^2\npi 2,3,5\nflag has25 true\nflag has9 true\n")
    assert r.spectrum_has(9) and r.spectrum_has(25)
    # a false flag is always consistent with the order
    parse_records("group X\norder 2^3 3 5\npi 2,3,5\nflag has25 false\nflag has9 false\n")
    # every mu generator divides the order
    with pytest.raises(RecordError, match="mu generator 16"):
        parse_records("group X\norder 2^3 3 5\npi 2,3,5\nmu 16,15\n")
    with pytest.raises(RecordError, match="mu generator 45"):
        parse_records("group X\norder 2^3 3 5\npi 2,3,5\nmu 8,45\n")
    parse_records("group X\norder 2^3 3 5\npi 2,3,5\nmu 8,15\n")
    # exponents are compared, so orders beyond 2^63 (|J4| is about 8.7e19) work
    big = "order 2^21 3^3 5 7 11^3 23 29 31 37 43\npi 2,3,5,7,11,23,29,31,37,43\n"
    (j4,) = parse_records("group Y\n" + big + "mu 2097152,1331\n")
    assert prod(p**e for p, e in j4.order.pairs) > 2**63
    with pytest.raises(RecordError, match="mu generator 4194304"):
        parse_records("group Y\n" + big + "mu 4194304\n")


def test_record_flag_consistent_with_mu_accepted():
    (r,) = parse_records("group X\nmu 9,5\npi 2,3,5\nflag has9 true\n")
    assert r.spectrum_has(9) is True
    assert r.spectrum_has(25) is False  # decidable from mu alone


# -- filters ----------------------------------------------------------------------

def test_lemma_8_filter():
    result = run_filter(load(), atlasdb.LEMMA_QUERIES["8"])
    assert result.matches == LEMMA8_EXPECTED
    assert result.insufficient == ()


def test_lemma_9_filter():
    result = run_filter(load(), atlasdb.LEMMA_QUERIES["9"])
    assert result.matches == LEMMA9_EXPECTED
    assert result.insufficient == ()


def test_filter_stable_under_permutation():
    db = load()
    rng = random.Random(21)
    for _ in range(20):
        shuffled = db[:]
        rng.shuffle(shuffled)
        assert run_filter(shuffled, atlasdb.LEMMA_QUERIES["8"]).matches == LEMMA8_EXPECTED


def test_filter_empty_db():
    # pi(J4), the filter's ambient prime set, comes from the database itself
    with pytest.raises(ValueError, match="no record named J4"):
        run_filter([], atlasdb.LEMMA_QUERIES["8"])


def test_missing_flags_mean_insufficient_not_pass():
    db = load()
    stripped = [
        r._replace(has9=None, has25=None) if r.name in ("M23", "M24") else r
        for r in db
    ]
    result = run_filter(stripped, atlasdb.LEMMA_QUERIES["8"])
    assert set(result.insufficient) == {"M23", "M24"}
    assert all(name not in ("M23", "M24") for name, _ in result.matches)


def test_single_missing_flag_is_already_insufficient():
    # removing only has25 leaves 25-membership undecidable for a record
    # without stored generators
    db = load()
    stripped = [r._replace(has25=None) if r.name == "U3(11)" else r for r in db]
    result = run_filter(stripped, atlasdb.LEMMA_QUERIES["8"])
    assert "U3(11)" in result.insufficient
    assert all(name != "U3(11)" for name, _ in result.matches)


def test_mu_decides_exclusion_when_flags_absent():
    # J4 keeps its stored generators, so stripping the flags stays decidable
    db = load()
    stripped = [r._replace(has9=None, has25=None) if r.name == "J4" else r for r in db]
    result = run_filter(stripped, atlasdb.LEMMA_QUERIES["8"])
    assert result.matches == LEMMA8_EXPECTED
    assert result.insufficient == ()


def test_excluded_order_true_flag_rejects():
    db = load()
    by_name = {r.name: r for r in db}
    assert by_name["Co3"].has9 is True
    result = run_filter(db, atlasdb.LEMMA_QUERIES["8"])
    assert all(name not in ("Co3", "Co2", "U7(2)", "L2(43^2)", "S4(43)") for name, _ in result.matches)


def test_ambient_pi_excludes_foreign_primes():
    by_name = {r.name: r for r in load()}
    assert not set(by_name["Sz(128)"].pi) <= set(J4_PRIMES)


def test_embedded_j4_record_matches_orderset_constants():
    # the J4 record against J4's ATLAS data built with orderset's own types
    j4 = record(load(), "J4")
    generators = (16, 23, 24, 28, 29, 30, 31, 35, 37, 40, 42, 43, 44, 66)
    assert j4.mu.maximal_elements == generators
    assert j4.mu == OrderSet.from_generators(generators)
    assert j4.order == Factorization(
        ((2, 21), (3, 3), (5, 1), (7, 1), (11, 3), (23, 1), (29, 1), (31, 1), (37, 1), (43, 1))
    )
    assert j4.pi == J4_PRIMES == j4.order.primes == j4.mu.pi()


def test_embedded_j4_record_holds_atlas_data():
    j4 = record(load(), "J4")
    assert stored_spectrum(load(), "J4") == j4.mu
    assert verify.Corpus().j4xj4() == product_spectrum(j4.mu, j4.mu)


def test_record_lookup_by_name():
    db = load()
    assert record(db, "M23").name == "M23"
    with pytest.raises(ValueError, match="^no record named M99$"):
        record(db, "M99")


def test_stored_spectrum_is_the_records_mu():
    db = load()
    assert stored_spectrum(db, "L2(23)") == OrderSet((11, 12, 23))
    with pytest.raises(ValueError, match="^record M23 stores no spectrum generators$"):
        stored_spectrum(db, "M23")
    with pytest.raises(ValueError, match="^no record named M99$"):
        stored_spectrum(db, "M99")


def test_j4_spectra_follow_the_database_file(tmp_path):
    # 33 in place of 66: both spectra come from the file, and the product is
    # built for that J4 rather than the embedded one
    db = tmp_path / "j4.db"
    db.write_text(
        "group J4\norder 2^21 3^3 5 7 11^3 23 29 31 37 43\n"
        "mu 16,23,24,28,29,30,31,35,37,40,42,43,44,33\n"
        "pi 2,3,5,7,11,23,29,31,37,43\n"
    )
    embedded, corpus = verify.Corpus(), verify.Corpus(db)
    j4 = stored_spectrum(load(db), "J4")
    assert embedded.j4xj4().contains(2310)
    assert 66 not in j4 and 33 in j4
    assert corpus.j4() == j4
    assert not corpus.j4xj4().contains(2310)
    assert corpus.j4xj4() == product_spectrum(j4, j4)
    db.write_text("group J4\npi 2,3,5,7,11,23,29,31,37,43\n")
    # a corpus keeps what it read for its run; a new read sees the new file
    assert corpus.j4() == j4
    with pytest.raises(ValueError, match="record J4 stores no spectrum generators"):
        stored_spectrum(load(db), "J4")
    with pytest.raises(ValueError, match="record J4 stores no spectrum generators"):
        verify.Corpus(db).j4()


# -- crosschecks ---------------------------------------------------------------------

def test_crosscheck_l2_records_verified():
    db = load()
    statuses = {r.name: crosscheck_record(r).status for r in db}
    assert statuses["L2(23)"] == "verified"
    assert statuses["L2(29)"] == "verified"
    assert statuses["L2(32)"] == "verified"
    assert statuses["L2(43)"] == "verified"
    assert statuses["J4"] == "cited"
    assert statuses["L2(43^2)"] == "partial"  # it stores no mu


def test_crosscheck_detects_tampering():
    good = next(r for r in load() if r.name == "L2(23)")
    # each tampered record is partial too (order or mu absent), and still raises
    bad = good._replace(mu=OrderSet.from_generators([11, 12, 23, 5]), pi=(2, 3, 5, 11, 23), order=None)
    with pytest.raises(CrosscheckError, match=r"torus census: pi, mu$"):
        crosscheck_record(bad)
    bad = good._replace(
        order=factorize(2**3 * 3 * 25 * 11 * 23), pi=(2, 3, 5, 11, 23), mu=None, has25=True
    )
    with pytest.raises(CrosscheckError, match=r"torus census: order, pi, has25$"):
        crosscheck_record(bad)
    # facts a record does not store are not compared, and it is not verified
    sparse = good._replace(order=None, mu=None, has9=None, has25=None)
    assert crosscheck_record(sparse).status == "partial"


def test_crosscheck_partial_record_is_not_verified():
    good = next(r for r in load() if r.name == "L2(23)")
    stripped = parse_records("group L2(23)\npi 2,3,11,23\n")[0]
    report = crosscheck_record(stripped)
    assert (report.name, report.status) == ("L2(23)", "partial")
    assert report.detail == (
        "matches the PSL2(23) torus census; stores no order, mu, has9, has25"
    )
    assert crosscheck_record(good._replace(has25=None)).detail.endswith("stores no has25")
    assert crosscheck_record(good).status == "verified"



def test_record_from_psl2_consistent():
    # every fact from the matrix enumeration: a valid record, and verified
    for q in PRIME_POWERS_TO_64:
        counts = enumerated_order_counts(q, *field_tables(q))
        mu = OrderSet.from_generators(orders_present(counts))
        record = GroupRecord(
            name=f"L2({q})",
            pi=mu.pi(),
            order=factorize(sum(counts) // gcd(2, q - 1)),
            mu=mu,
            has9=mu.contains(9),
            has25=mu.contains(25),
            notes=(),
        )
        assert crosscheck_record(record).status == "verified", q
