"""Group-record database: text format, parser, embedded corpus, the
selection filter of Lemmas 8 and 9, crosschecks.

Record format (UTF-8, a leading byte-order mark ignored; '#' starts a
comment to end of line, a blank line separates records; a line holding
only a comment does not)::

    group L2(23)
    order 2^3 3 11 23
    mu 11,12,23
    pi 2,3,11,23
    flag has9 false
    flag has25 false
    note spectrum verified by psl2 oracle

Keys: ``group`` (required, first line of a record), ``order`` (space
separated prime powers ``p^e``), ``mu`` (the spectrum's maximal elements,
comma separated, in any order; none may divide or repeat another), ``pi``
(required, comma separated primes, in any order; none may repeat),
``flag has9|has25 true|false``, ``note`` (free text, repeatable).  A key
ends at the first run of whitespace, as a flag's name does.  Every other
key appears at most once in a record; unknown and repeated keys are
rejected with a line number.

The membership flags are first-class data: several exclusions rest on
spectra from the literature that this toolkit cannot recompute, and the
filters must never treat missing knowledge as absence.  Provenance for
every such fact lives in the record's notes.
"""

from __future__ import annotations

import os
from collections import Counter

from ._record import Record
from .groups import parse_psl2_name, psl2_order_formula, psl2_spectrum
from .orderset import Factorization, OrderSet, _is_prime, _numeral, factorize


class ParseError(ValueError):
    """Malformed database text; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


class RecordError(ValueError):
    """A parsed record violates an internal consistency invariant."""

    def __init__(self, name: str, message: str):
        super().__init__(f"record {name}: {message}")


class GroupRecord(Record):
    """One database entry for a finite simple group.

    pi is always present.  order, mu and the two membership flags may be
    None; when present they must be mutually consistent (validated at
    construction): pi equals the primes of order, the primes of mu lie in
    pi, and each flag agrees with mu membership.  By Lagrange's theorem an
    element order divides |G|, so with order present each mu generator's
    prime exponents are at most those of order, and a true has9 (has25)
    needs 3^2 (5^2) to divide it; exponents are compared, not values, as
    |G| may exceed 2^63.
    """

    _fields = ("name", "pi", "order", "mu", "has9", "has25", "notes")

    def _post_init(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise RecordError(self.name or "<blank>", "name must be a single token")
        if not self.pi:
            raise RecordError(self.name, "pi must be non-empty")
        for p, n in Counter(self.pi).items():
            if n > 1:
                times = "twice" if n == 2 else f"{n} times"
                raise RecordError(self.name, f"pi lists {p} {times}")
        if tuple(sorted(self.pi)) != self.pi:
            raise RecordError(self.name, "pi must be sorted and distinct")
        for p in self.pi:
            try:
                if not _is_prime(p):
                    raise RecordError(self.name, f"{p} in pi is not prime")
            except OverflowError as exc:
                raise RecordError(self.name, f"pi: {exc}") from None
        if self.order is not None:
            if self.order.primes != self.pi:
                raise RecordError(self.name, "pi does not match the primes of order")
            for flag_value, r, n in ((self.has9, 3, 9), (self.has25, 5, 25)):
                if flag_value and self.order.exponent(r) < 2:
                    raise RecordError(
                        self.name, f"flag has{n} true but {n} does not divide the order"
                    )
        if self.mu is not None:
            if not set(self.mu.pi()) <= set(self.pi):
                raise RecordError(self.name, "mu has primes outside pi")
            if self.order is not None:
                for m in self.mu.maximal_elements:
                    if any(e > self.order.exponent(r) for r, e in factorize(m).pairs):
                        raise RecordError(
                            self.name, f"mu generator {m} does not divide the order"
                        )
            for flag_value, n in ((self.has9, 9), (self.has25, 25)):
                if flag_value is not None and flag_value != self.mu.contains(n):
                    raise RecordError(
                        self.name, f"flag has{n} contradicts the mu expansion"
                    )

    def spectrum_has(self, n: int) -> bool | None:
        """Membership of n, when decidable: flag first, then mu, else None."""
        if n == 9 and self.has9 is not None:
            return self.has9
        if n == 25 and self.has25 is not None:
            return self.has25
        if self.mu is not None:
            return self.mu.contains(n)
        return None


def _parse_order(text: str, line_no: int) -> Factorization:
    pairs = []
    for token in text.split():
        base, caret, exp = token.partition("^")
        try:
            pairs.append((_numeral(base), _numeral(exp) if caret else 1))
        except ValueError:
            raise ParseError(line_no, f"bad order token {token!r}") from None
    try:
        return Factorization(tuple(pairs))
    except (ValueError, OverflowError) as exc:
        raise ParseError(line_no, str(exc)) from None


def _parse_ints(text: str, line_no: int) -> list[int]:
    try:
        return [_numeral(t) for t in text.split(",")]
    except ValueError:
        raise ParseError(line_no, f"bad integer list {text!r}") from None


def _first_word(text: str) -> tuple[str, str]:
    """text's first word and the rest, split at its first run of whitespace."""
    parts = text.split(None, 1) + ["", ""]
    return parts[0], parts[1]


def parse_records(text: str) -> list[GroupRecord]:
    """Parse database text into validated records.

    Raises ParseError (with a line number) on syntax problems and
    RecordError (with the record name) on invariant violations.
    """
    records: list[GroupRecord] = []
    current: dict | None = None
    current_line = 0

    def flush():
        nonlocal current
        if current is None:
            return
        if "pi" not in current:
            raise ParseError(current_line, f"record {current['name']} lacks pi")
        records.append(
            GroupRecord(
                name=current["name"],
                pi=tuple(sorted(current["pi"])),
                order=current.get("order"),
                mu=current.get("mu"),
                has9=current.get("has9"),
                has25=current.get("has25"),
                notes=tuple(current.get("notes", [])),
            )
        )
        current = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            flush()
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, rest = _first_word(line)
        if key == "group":
            flush()
            if not rest:
                raise ParseError(line_no, "group needs a name")
            current = {"name": rest, "notes": []}
            current_line = line_no
            continue
        if current is None:
            raise ParseError(line_no, f"{key!r} before any 'group' line")
        if key in ("order", "mu", "pi") and key in current:
            raise ParseError(line_no, f"repeated key {key!r}")
        if key == "order":
            current["order"] = _parse_order(rest, line_no)
        elif key == "mu":
            gens = _parse_ints(rest, line_no)
            try:
                current["mu"] = OrderSet(tuple(sorted(gens)))
            except (ValueError, OverflowError) as exc:
                raise ParseError(line_no, str(exc)) from None
        elif key == "pi":
            current["pi"] = _parse_ints(rest, line_no)
        elif key == "flag":
            flag_name, value = _first_word(rest)
            if flag_name not in ("has9", "has25") or value not in ("true", "false"):
                raise ParseError(line_no, f"bad flag line {line!r}")
            if flag_name in current:
                raise ParseError(line_no, f"repeated key 'flag {flag_name}'")
            current[flag_name] = value == "true"
        elif key == "note":
            current["notes"].append(rest)
        else:
            raise ParseError(line_no, f"unknown key {key!r}")
    flush()
    names = [r.name for r in records]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise RecordError(dup, "duplicate record name")
    return records


def load(path=None) -> list[GroupRecord]:
    """The records in the database file at path; None reads the shipped corpus.

    Each call parses the text afresh and returns a new list.  A leading
    byte-order mark is dropped by hand: the utf-8-sig codec's import took
    0.28 ms, a third of a cold verify's first check.
    """
    if path is None:
        # the package's own loader reads the corpus from a directory or a zip
        # archive alike, as pkgutil.get_data does, and needs no importlib.resources
        # (about 15 ms of imports in an interpreter that has not loaded it)
        path = os.path.join(os.path.dirname(__file__), "data", "simple_groups.db")
        text = __loader__.get_data(path).decode("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_records(text.removeprefix("\ufeff"))


def record(db, name: str) -> GroupRecord:
    """The record called name in db; ValueError when there is none."""
    for r in db:
        if r.name == name:
            return r
    raise ValueError(f"no record named {name}")


def stored_spectrum(db, name: str) -> OrderSet:
    """The spectrum (mu) of db's record called name; ValueError when db has
    no such record or the record stores no mu."""
    mu = record(db, name).mu
    if mu is None:
        raise ValueError(f"record {name} stores no spectrum generators")
    return mu


class FilterResult(Record):
    _fields = ("matches", "insufficient")


def run_filter(db, target_primes: tuple[int, ...]) -> FilterResult:
    """Select the records of Lemmas 8 and 9; deterministic, name-sorted.

    A record passes when its primes lie inside pi(J4), which db's own J4
    record gives (ValueError when db has none), at least two of them are
    target_primes, and neither 9 nor 25 (the two orders a record has flags
    for) belongs to its spectrum.  Records that survive the prime
    conditions but cannot decide 9 or 25 (no flag, no mu) are reported as
    insufficient, never passed.
    """
    j4_primes = set(record(db, "J4").pi)
    matches = []
    insufficient = []
    for r in sorted(db, key=lambda r: r.name):
        if not set(r.pi) <= j4_primes:
            continue
        hits = tuple(sorted(set(r.pi) & set(target_primes)))
        if len(hits) < 2:
            continue
        verdicts = [r.spectrum_has(9), r.spectrum_has(25)]
        if True in verdicts:
            continue
        if None in verdicts:
            insufficient.append(r.name)
            continue
        matches.append((r.name, hits))
    return FilterResult(tuple(matches), tuple(insufficient))


# The target primes of Lemmas 8 and 9.
LEMMA_QUERIES: dict[str, tuple[int, ...]] = {
    "8": (11, 23, 29, 31, 37, 43),
    "9": (5, 23, 29, 37, 43),
}


class CrosscheckError(ValueError):
    """An independent oracle contradicts a stored record."""


class CrosscheckReport(Record):
    # status: "verified" (oracle matched every fact), "partial" (oracle
    # matched every stored fact, some facts absent) or "cited" (no oracle in
    # range)
    _fields = ("name", "status", "detail")


_CITED = "no in-range oracle; cited data, internally consistent"


def crosscheck_record(record: GroupRecord) -> CrosscheckReport:
    """Re-derive a record from an independent oracle where one exists.

    Groups of type L2(q) get their order from groups.psl2_order_formula and
    pi, mu, has9 and has25 from groups.psl2_spectrum.  A stored fact that
    disagrees is a hard CrosscheckError; a record that agrees but lacks
    some of the five is partial, and the detail names what it lacks.  Any
    other record is cited data (validated at construction), and so is an
    L2(q) whose order, factored first, leaves the 64-bit range (from about
    q = 2^21 on).  A q that is no prime power is a RecordError.
    """
    q = parse_psl2_name(record.name)
    if q is None:
        return CrosscheckReport(record.name, "cited", _CITED)
    try:
        order = factorize(psl2_order_formula(q))
        spectrum = psl2_spectrum(q)
    except OverflowError:
        return CrosscheckReport(record.name, "cited", _CITED)
    except ValueError:  # factorize(0) for q below 2, psl2_spectrum for the rest
        raise RecordError(record.name, f"{q} is not a prime power") from None
    oracle = {"order": order, "pi": spectrum.pi(), "mu": spectrum,
              "has9": spectrum.contains(9), "has25": spectrum.contains(25)}
    facts = {fact: getattr(record, fact) for fact in oracle}
    missing = [f for f, v in facts.items() if v is None]
    problems = [f for f, v in facts.items() if v is not None and v != oracle[f]]
    if problems:
        raise CrosscheckError(
            f"record {record.name} disagrees with Dickson's closed form: {', '.join(problems)}"
        )
    detail = f"matches Dickson's closed form for PSL2({q})"
    if missing:
        return CrosscheckReport(record.name, "partial", f"{detail}; stores no {', '.join(missing)}")
    return CrosscheckReport(record.name, "verified", detail)
