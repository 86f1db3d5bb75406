"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkspec import atlasdb, cli, verify
from gkspec.atlasdb import LEMMA_QUERIES
from gkspec.cli import main
from gkspec.orderset import OrderSet

J4_GENS = "16,23,24,28,29,30,31,35,37,40,42,43,44,66"
J4_ORDER = "order 2^21 3^3 5 7 11^3 23 29 31 37 43\n"
# the checks that read J4 from the record database, and those that read
# every record
J4_CHECKS = (
    "spectrum.count", "spectrum.membership", "spectrum.primes", "product.membership",
    "product.oracle", "product.sigma", "product.restricted-sigma", "graph.cocliques",
    "graph.product-complete", "excluded.orders", "wreath.distinguisher",
)
DB_CHECKS = ("db.load", "db.lemma8", "db.lemma9", "db.insufficient")
EMBEDDED_DB = Path(atlasdb.__file__).resolve().parent / "data" / "simple_groups.db"
EXPECTED_VERIFY = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_summary(capsys):
    code, out, _ = run(capsys, "spectrum", J4_GENS)
    assert code == 0
    assert out == (
        f"maximal: {J4_GENS}\n"
        "members: 31\n"
        "pi: 2,3,5,7,11,23,29,31,37,43\n"
        "sigma: 3\n"
    )


def test_spectrum_trivial(capsys):
    code, out, _ = run(capsys, "spectrum", "1")
    assert code == 0
    assert out == "maximal: 1\nmembers: 1\npi: -\nsigma: 0\n"


def test_spectrum_rejects_zero(capsys):
    code, _, err = run(capsys, "spectrum", "0")
    assert code == 2
    assert "error" in err
    # int() would read 2_3 as 23
    code, _, err = run(capsys, "spectrum", "2_3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "n, members, pi, sigma",
    [
        (1000000000000000003, 2, "1000000000000000003", 1),  # prime
        (4611686014132420609, 3, "2147483647", 1),  # (2^31 - 1)^2
        (4611685975477714963, 4, "2147483629,2147483647", 2),
    ],
)
def test_spectrum_of_large_values_in_bounded_time(capsys, n, members, pi, sigma):
    # trial division needed minutes for these; the bound leaves a wide margin
    start = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", str(n))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == f"maximal: {n}\nmembers: {members}\npi: {pi}\nsigma: {sigma}\n"
    assert elapsed < 2.0


def test_product(capsys):
    code, out, _ = run(capsys, "product", "2,3", "5")
    assert code == 0
    assert "maximal: 10,15\n" in out
    assert "members: 6\n" in out


def test_wreath2_contains_32(capsys):
    code, out, _ = run(capsys, "wreath2", J4_GENS)
    assert code == 0
    maximal = out.splitlines()[0].removeprefix("maximal: ").split(",")
    assert any(int(m) % 32 == 0 for m in maximal)


def test_gk_named_group(capsys):
    code, out, _ = run(capsys, "gk", "--group", "J4")
    assert code == 0
    assert out.splitlines()[0] == "vertices: 2,3,5,7,11,23,29,31,37,43"
    assert out.splitlines()[1] == "edges: 2-3 2-5 2-7 2-11 3-5 3-7 3-11 5-7"


def test_gk_trivial(capsys):
    # no primes: both lines print "-", as the pi line of spectrum does
    code, out, _ = run(capsys, "gk", "--gens", "1")
    assert code == 0
    assert out == "vertices: -\nedges: -\n"


def test_gk_dot_output(capsys):
    code, out, _ = run(capsys, "gk", "--group", "J4", "--dot")
    assert code == 0
    assert out.startswith("graph gk {")
    assert "29 -- 31" not in out
    assert "2 -- 11;" in out


def test_gk_unknown_group(capsys):
    code, _, err = run(capsys, "gk", "--group", "Nope")
    assert code == 2
    assert "no record" in err


def test_gk_group_without_mu(capsys):
    code, _, err = run(capsys, "gk", "--group", "Co3")
    assert code == 2
    assert "no spectrum generators" in err


def test_coclique(capsys):
    code, out, _ = run(capsys, "coclique", "--group", "J4")
    assert code == 0
    assert out == (
        "independence number: 7\n"
        "coclique: 5,11,23,29,31,37,43\n"
        "coclique: 7,11,23,29,31,37,43\n"
    )


def _first_primes(n):
    primes = []
    m = 2
    while len(primes) < n:
        if all(m % p for p in primes):
            primes.append(m)
        m += 1
    return primes


def test_coclique_beyond_64_vertices(capsys):
    primes = _first_primes(70)
    code, out, err = run(capsys, "coclique", "--gens", ",".join(map(str, primes)))
    assert code == 0
    assert err == ""
    assert out == (
        "independence number: 70\n" f"coclique: {','.join(map(str, primes))}\n"
    )


def test_db_check_library_value_error_exits_2(tmp_path, capsys):
    # q is no prime power; the message names the record that held it
    db = tmp_path / "l2_6.db"
    db.write_text("group L2(6)\norder 2 3\npi 2,3\n")
    code, out, err = run(capsys, "db", "check", "--db", str(db))
    assert code == 2
    assert out == ""
    assert err == "error: record L2(6): 6 is not a prime power\n"
    for q in (1, 0):
        db.write_text(f"group L2({q})\npi 2,3\n")
        code, out, err = run(capsys, "db", "check", "--db", str(db))
        assert (code, out) == (2, "")
        assert err == f"error: record L2({q}): {q} is not a prime power\n"


def test_db_check_huge_psl2_name_is_cited(tmp_path, capsys):
    # q = 7^300000000 is far out of range; deciding so must not build the
    # power, nor convert a base or exponent past int()'s 4300-digit limit.
    # Below 2^64, |PSL2(q)| leaves the 64-bit range from about q = 2^21 on,
    # and the order is factored first
    nines = "9" * 5000
    names = ("L2(7^300000000)", f"L2(7^{nines})", f"L2({nines})", "L2(2^61)",
             "L2(9223372036854775783)", "L2(2^63)")
    for name in names:
        db = tmp_path / "huge.db"
        db.write_text(f"group {name}\npi 2,3,7\n")
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "db", "check", "--db", str(db))
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        assert out.startswith(f"{name}: cited")


def test_product_overflow_exits_2(capsys):
    code, out, err = run(capsys, "product", "4611686018427387847", "3")
    assert code == 2
    assert out == ""
    assert err == "error: lcm(4611686018427387847,3) exceeds the 64-bit range\n"


def test_wreath2_overflow_exits_2(capsys):
    # the input is in range; its double, the order of a swapping element, is not
    code, out, err = run(capsys, "wreath2", "9223372036854775807")
    assert (code, out) == (2, "")
    assert err == "error: 2*9223372036854775807 exceeds the 64-bit range\n"


def test_db_query_lemma8(capsys):
    code, out, _ = run(capsys, "db", "query", "--lemma", "8")
    assert code == 0
    assert out == (
        "J4 11,23,29,31,37,43\n"
        "L2(23) 11,23\n"
        "L2(32) 11,31\n"
        "L2(43) 11,43\n"
        "M23 11,23\n"
        "M24 11,23\n"
        "U3(11) 11,37\n"
    )


def test_db_query_lemma9(capsys):
    code, out, _ = run(capsys, "db", "query", "--lemma", "9")
    assert code == 0
    assert out.splitlines() == [
        "J4 5,23,29,37,43",
        "L2(29) 5,29",
        "M23 5,23",
        "M24 5,23",
        "U3(11) 5,37",
    ]


def test_db_list_and_check(capsys):
    code, out, _ = run(capsys, "db", "list")
    assert code == 0
    assert len(out.splitlines()) == 16
    code, out, _ = run(capsys, "db", "check")
    assert code == 0
    assert "L2(23): verified" in out
    assert "J4: cited" in out


def test_db_list_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    db = tmp_path / "bom.db"
    db.write_bytes(b"\xef\xbb\xbf" + EMBEDDED_DB.read_bytes())
    embedded = run(capsys, "db", "list")
    assert embedded[0] == 0 and embedded[1]
    assert run(capsys, "db", "list", "--db", str(db)) == embedded


def test_db_check_output_on_embedded_corpus(capsys):
    cited = "cited (no in-range oracle; cited data, internally consistent)"
    code, out, err = run(capsys, "db", "check")
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in [
        f"Co2: {cited}",
        f"Co3: {cited}",
        f"J4: {cited}",
        "L2(23): verified (matches the PSL2(23) torus census)",
        "L2(29): verified (matches the PSL2(29) torus census)",
        "L2(32): verified (matches the PSL2(32) torus census)",
        "L2(43): verified (matches the PSL2(43) torus census)",
        "L2(43^2): partial (matches the PSL2(1849) torus census; stores no mu)",
        f"M22: {cited}",
        f"M23: {cited}",
        f"M24: {cited}",
        f"S4(43): {cited}",
        f"Sz(128): {cited}",
        f"U3(11): {cited}",
        f"U4(7): {cited}",
        f"U7(2): {cited}",
    ])


def test_db_check_fails_on_a_wrong_flag_of_l2_43_squared(tmp_path, capsys):
    # L2(43^2) stores no mu, but its has25 is computed and compared
    db = tmp_path / "has25.db"
    text = EMBEDDED_DB.read_text(encoding="utf-8")
    start = text.index("group L2(43^2)")
    flag = text.index("flag has25 true", start)
    assert flag < text.index("\n\n", start)
    db.write_text(text[:flag] + "flag has25 false" + text[flag + len("flag has25 true"):])
    code, _, err = run(capsys, "db", "check", "--db", str(db))
    assert code == 1
    assert err == (
        "crosscheck failed: record L2(43^2) disagrees with the torus census: has25\n"
    )


def test_db_check_marks_an_incomplete_l2_record_partial(tmp_path, capsys):
    db = tmp_path / "stripped.db"
    db.write_text("group L2(23)\npi 2,3,11,23\n")
    code, out, err = run(capsys, "db", "check", "--db", str(db))
    assert (code, err) == (0, "")
    assert out == "L2(23): partial (matches the PSL2(23) torus census; stores no order, mu, has9, has25)\n"


def test_db_override_with_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.db"
    bad.write_text("group X\nmu 9\npi 2,3\nflag has9 false\n")
    code, _, err = run(capsys, "db", "query", "--lemma", "8", "--db", str(bad))
    assert code == 2
    assert "cannot load database" in err


def test_db_list_accepts_comment_line_inside_record(tmp_path, capsys):
    db = tmp_path / "commented.db"
    db.write_text(
        "group L2(23)\norder 2^3 3 11 23\n# spectrum from the trace census\n"
        "mu 11,12,23\npi 2,3,11,23\n"
    )
    code, out, err = run(capsys, "db", "list", "--db", str(db))
    assert (code, err) == (0, "")
    assert out == "L2(23) pi=2,3,11,23 mu=11,12,23\n"


def test_db_list_rejects_repeated_key(tmp_path, capsys):
    db = tmp_path / "repeated.db"
    db.write_text("group L2(23)\norder 2^3 3 11 23\nmu 11,12,23\nmu 2\npi 2,3,11,23\n")
    code, out, err = run(capsys, "db", "list", "--db", str(db))
    assert (code, out) == (2, "")
    assert err == "error: cannot load database: line 4: repeated key 'mu'\n"


@pytest.mark.parametrize("command", ["gk", "coclique"])
def test_gens_and_group_together_exit_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "J4", "--gens", "2,3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_verify_only_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only", "wreath")
    assert code == 0
    assert "PASS" in out
    assert "overall: PASS (1/1 checks)" in out


def test_verify_only_no_match(capsys):
    code, _, err = run(capsys, "verify", "--only", "zzz")
    assert code == 2
    assert "no checks match" in err


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--only", "spectrum", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert "generated_at" not in payload
    for check in payload["checks"]:
        assert set(check) == {"id", "citation", "status", "detail"}
        assert check["status"] == "pass"


def test_verify_json_timestamp_only_behind_flag(capsys):
    code, out, _ = run(capsys, "verify", "--only", "wreath", "--json", "--timestamp")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_verify_timestamp_without_json_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "wreath", "--timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify --timestamp needs --json" in captured.err


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--only", "db")
    _, second, _ = run(capsys, "verify", "--only", "db")
    assert first == second


def test_verify_corrupt_db_fails_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.db"
    bad.write_text("this is not a database\n")
    code, out, _ = run(capsys, "verify", "--only", "db.load", "--db", str(bad))
    assert code == 1
    assert "FAIL" in out
    assert "overall: FAIL" in out


def test_verify_db_reads_j4_from_the_file(tmp_path, capsys):
    # the embedded corpus with 33 in place of 66 in J4's mu: every J4 check
    # must see the file's J4, so the spectrum checks fail
    text = EMBEDDED_DB.read_text("utf-8")
    assert text.count(f"mu {J4_GENS}\n") == 1
    db = tmp_path / "j4_33.db"
    db.write_text(text.replace(f"mu {J4_GENS}\n", f"mu {J4_GENS[:-3]},33\n"))
    code, out, _ = run(capsys, "verify", "--db", str(db))
    assert code == 1
    lines = {line.split()[1]: line for line in out.splitlines()[:-1]}
    assert lines["spectrum.membership"].startswith("FAIL")
    assert lines["spectrum.membership"].endswith("66 missing from the spectrum")
    assert lines["product.membership"].startswith("FAIL")
    assert lines["db.lemma8"].startswith("PASS")
    assert out.splitlines()[-1].startswith("overall: FAIL")


def _embedded_copy(tmp_path, old=None, new=""):
    # the embedded corpus, with its one copy of old replaced by new
    text = EMBEDDED_DB.read_text("utf-8")
    if old is not None:
        assert text.count(old) == 1
        text = text.replace(old, new)
    db = tmp_path / "copy.db"
    db.write_text(text)
    return db


def _statuses(out):
    # check id -> (status, detail) from the JSON report
    return {c["id"]: (c["status"], c["detail"]) for c in json.loads(out)["checks"]}


def test_verify_spectrum_primes_needs_j4_order(tmp_path, capsys):
    db = _embedded_copy(tmp_path, J4_ORDER)
    code, out, _ = run(capsys, "verify", "--json", "--db", str(db))
    assert code == 1
    statuses = _statuses(out)
    assert statuses.pop("spectrum.primes") == ("fail", "record J4 stores no order")
    assert all(status == "pass" for status, _ in statuses.values())
    # a J4 without 43 anywhere is consistent, but has nine primes
    j4 = J4_ORDER + f"mu {J4_GENS}\npi 2,3,5,7,11,23,29,31,37,43\n"
    db = _embedded_copy(tmp_path, j4, j4.replace(",43", "").replace(" 43", ""))
    code, out, _ = run(capsys, "verify", "--json", "--db", str(db))
    assert code == 1
    assert _statuses(out)["spectrum.primes"] == ("fail", "expected ten primes, found 9")


def test_verify_parses_the_database_once(tmp_path, monkeypatch):
    db = _embedded_copy(tmp_path)
    calls = []
    parse = atlasdb.parse_records
    monkeypatch.setattr(atlasdb, "parse_records", lambda text: calls.append(1) or parse(text))
    assert verify.run_checks(db_path=db).ok
    assert len(calls) == 1


def test_verify_db_failures_stay_per_check(tmp_path, capsys):
    # J4 without mu: the J4 checks fail alike, the database checks pass
    db = _embedded_copy(tmp_path, f"mu {J4_GENS}\n")
    code, out, _ = run(capsys, "verify", "--json", "--db", str(db))
    assert code == 1
    statuses = _statuses(out)
    failed = ("fail", "ValueError: record J4 stores no spectrum generators")
    assert {cid for cid, result in statuses.items() if result == failed} == set(J4_CHECKS)
    assert all(statuses[cid][0] == "pass" for cid in DB_CHECKS)
    # a file that cannot be read fails each check that reads it the same way
    missing = tmp_path / "missing.db"
    code, out, _ = run(capsys, "verify", "--json", "--db", str(missing))
    assert code == 1
    statuses = _statuses(out)
    failed = ("fail", f"FileNotFoundError: [Errno 2] No such file or directory: '{missing}'")
    assert {cid for cid, result in statuses.items() if result == failed} == {
        *J4_CHECKS, *DB_CHECKS
    }
    # checks that read no record never open the file
    code, out, _ = run(capsys, "verify", "--only", "psl2", "--db", str(missing))
    assert code == 0
    assert out.splitlines()[-1] == "overall: PASS (4/4 checks)"


def test_excluded_orders_needs_each_m_in_the_product(monkeypatch):
    # 2 * 56 * 37 lies outside spec(J4 x J4), but so does 56 * 37: no element
    # of order m = 56 * 37 exists for the module to extend
    first, *rest = verify.CONTRADICTION_ORDERS
    assert first == (2, (28 * 37, 29 * 37))
    monkeypatch.setattr(verify, "CONTRADICTION_ORDERS", ((2, (56 * 37, 29 * 37)), *rest))
    (result,) = verify.run_checks(only="excluded.orders").results
    assert result.status == "fail"
    assert result.detail == "(p, m) pairs with m outside the product: [(2, 2072)]"


def test_product_oracle_fails_on_a_wrong_closure():
    corpus = verify.Corpus()
    detail = verify._check_product_oracle(corpus)
    assert detail == "matches the brute-force oracle on all 208 members"
    maxima = corpus.j4xj4().maximal_elements
    # the closure less its largest maximal element, and with one non-member
    for gens in (maxima[:-1], (*maxima, 9 * maxima[-1])):
        wrong = OrderSet.from_generators(gens)
        corpus.j4xj4 = lambda: wrong
        with pytest.raises(verify.CheckFailure, match="^lcm-closure differs from the double"):
            verify._check_product_oracle(corpus)


def test_db_query_without_j4_record_exits_2(tmp_path, capsys):
    db = tmp_path / "no_j4.db"
    db.write_text("group L2(23)\norder 2^3 3 11 23\nmu 11,12,23\npi 2,3,11,23\n")
    code, out, err = run(capsys, "db", "query", "--lemma", "8", "--db", str(db))
    assert (code, out) == (2, "")
    assert err == "error: no record named J4\n"


@pytest.mark.parametrize(
    "group, message",
    [("M99", "no record named M99"), ("M23", "record M23 stores no spectrum generators")],
)
def test_group_lookup_errors_exit_2(group, message, capsys):
    code, out, err = run(capsys, "gk", "--group", group)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gk", "coclique", "verify", "db query", "db list", "db check"])
def test_every_db_flag_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--db DB database file overriding the embedded records" in help_text


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize(
    "argv",
    [
        "", "-h", "bogus", "Verify", "--db x verify",
        *(f"{command} -h" for command in cli.COMMANDS),
        "verify extra", "verify --timestamp", "db", "db bogus", "db query --lemma 7",
        "gk", "gk --gens 1 --group J4", "spectrum 12 extra",
    ],
)
def test_one_command_parser_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    got = _outcome(capsys, argv.split())
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert got == _outcome(capsys, argv.split())


def test_commands_are_the_full_parsers_choices_in_order():
    (sub,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert tuple(sub.choices) == cli.COMMANDS


def _parsers_built(monkeypatch, argv):
    built = []
    true_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        true_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        main(argv)
    except SystemExit:
        pass
    return len(built)


def test_a_named_command_builds_only_its_own_parser(monkeypatch, capsys):
    # the top-level parser, the --db parent and the verify subparser
    assert _parsers_built(monkeypatch, ["verify", "--only", "frobenius"]) == 3
    assert "PASS  frobenius.arithmetic" in capsys.readouterr().out
    # help names every command, so it still builds all 12
    assert _parsers_built(monkeypatch, ["-h"]) == 12


@pytest.mark.parametrize("argv", [("spectrum", "720720"), ("verify",)])
def test_closed_stdout_exits_2_quietly(argv):
    # a reader that is gone before the first write, as `| head` leaves it
    # once it has read its line
    src = Path(atlasdb.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gkspec", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


def test_full_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("overall: PASS")
    # the JSON report, less its backend line, is the one the benchmark gates on
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    report = "".join(
        line for line in out.splitlines(keepends=True) if '"backend"' not in line
    )
    assert report == EXPECTED_VERIFY.read_text("utf-8")


# -- exit-code contract under generated argv --------------------------------------

NUMBER = st.one_of(
    st.integers(-3, 2**16), st.integers(2**62, 2**64), st.sampled_from(["", "x", "1.5", " 7"])
).map(str)
GENS = st.lists(NUMBER, min_size=1, max_size=4).map(",".join)
OPTIONAL = st.one_of(st.just([]), st.sampled_from([["--bogus"], ["-h"], ["extra"]]))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def cli_argv(draw):
    """argv from the subcommand grammar, with values and flags that are
    sometimes wrong, missing or extra."""
    command = draw(st.sampled_from(["spectrum", "product", "wreath2", "gk", "coclique", "db", "verify"]))
    if command in ("spectrum", "wreath2"):
        args = [draw(GENS)]
    elif command == "product":
        args = draw(st.lists(GENS, min_size=1, max_size=2))
    elif command in ("gk", "coclique"):
        args = draw(_option("--gens", GENS))
        args += draw(_option("--group", st.sampled_from(["J4", "L2(23)", "U3(11)", "M99"])))
        args += draw(_option("--db", st.just("no-such-records.db")))
        if command == "gk":
            args += draw(st.sampled_from([[], ["--dot"]]))
    elif command == "db":
        args = draw(
            st.sampled_from([["list"], ["check"], ["query"], ["query", "--lemma", "7"]])
            | st.sampled_from(sorted(LEMMA_QUERIES)).map(lambda n: ["query", "--lemma", n])
        )
        args += draw(_option("--db", st.just("no-such-records.db")))
    else:
        # a narrow --only keeps each example short; the full report is
        # covered by the tests above
        only = draw(st.sampled_from(["linact", "frobenius", "psl2.q23", "db.lemma8", "no-such-check"]))
        args = ["--only", only] + draw(st.sampled_from([[], ["--json"]]))
        args += draw(_option("--db", st.just("no-such-records.db")))
    return [command] + args + draw(OPTIONAL)


@settings(max_examples=300, deadline=5000)
@given(cli_argv())
def test_cli_exit_code_is_always_0_1_or_2(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
