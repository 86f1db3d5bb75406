"""Command-line surface: outputs, exit codes, determinism."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkspec.atlasdb import LEMMA_QUERIES
from gkspec.cli import main

J4_GENS = "16,23,24,28,29,30,31,35,37,40,42,43,44,66"
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
    db = tmp_path / "l2_6.db"
    db.write_text("group L2(6)\norder 2 3\npi 2,3\n")
    code, out, err = run(capsys, "db", "check", "--db", str(db))
    assert code == 2
    assert out == ""
    assert err == "error: 6 is not a prime power\n"


def test_product_overflow_exits_2(capsys):
    code, out, err = run(capsys, "product", "4611686018427387847", "3")
    assert code == 2
    assert out == ""
    assert err == "error: lcm(4611686018427387847,3) exceeds the 64-bit range\n"


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


def test_db_override_with_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.db"
    bad.write_text("group X\nmu 9\npi 2,3\nflag has9 false\n")
    code, _, err = run(capsys, "db", "query", "--lemma", "8", "--db", str(bad))
    assert code == 2
    assert "cannot load database" in err


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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
