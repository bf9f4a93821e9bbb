"""The independent checks accept real reports and reject corrupted ones.

    python3 -m pytest weilbench/test_checks.py -q

Each case runs a small job through weildescent.cli.run, asserts that its
check passes, then changes one value of the report (a single coefficient,
a count, a tag) and asserts that the check now fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from weildescent.cli import run  # noqa: E402

SEED = 3


OUT = HERE / "out"


def _job(verb, p, f=1, **extra):
    OUT.mkdir(exist_ok=True)
    return workloads.make_job(verb, p, f, extra, SEED, OUT)


@lru_cache(maxsize=None)
def _report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def _entry(rep, gen, i, j):
    return rep["results"]["generators"][gen]["matrix"][i][j]


def _bump(entry, k, ell=None):
    "Add one to the coefficient of zeta^k."
    c = entry["coeffs"][k]
    entry["coeffs"][k] = str((int(c) + 1) % ell) if ell else f"{checks.Fraction(c) + 1}"


def _set(path, value):
    def mutate(rep):
        obj = rep
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return mutate


def _transcript_detail(name, key, value):
    def mutate(rep):
        for t in rep["transcript"]:
            if t["check"] == name:
                t["detail"][key] = value

    return mutate


def _flip_pass(rep):
    rep["transcript"][0]["pass"] = False


def _bump_w_entry(rep):
    _bump(_entry(rep, -1, 0, 1), 1)  # W0 is the last generator


def _rotate_n_diagonal(rep):
    "Keeps N(b) diagonal and unitary, so only Howe/Gerardin can notice."
    gens = rep["results"]["generators"]
    n_gen = next(g for g in gens if g["token"][0] == "N")
    entry = n_gen["matrix"][0][0]  # psi(0) = 1 -> zeta
    entry["coeffs"] = ["0", "1"]


def _bump_descended(ell=None):
    def mutate(rep):
        gens = rep["results"]["generators"]
        for g in gens:
            for row in g["matrix"]:
                for e in row:
                    if any(c != "0" for c in e["coeffs"]):
                        _bump(e, 1, ell)
                        return

    return mutate


CASES = {
    "verify": (
        _job("verify", 3),
        [
            _flip_pass,
            _transcript_detail("heisenberg_homomorphism", "pairs", 728),
            _transcript_detail("even_odd_split", "odd", 2),
            _transcript_detail("stone_von_neumann_commutant", "dim", 2),
        ],
    ),
    "build": (
        _job("build", 3),
        [_bump_w_entry, _rotate_n_diagonal, _set(["results", "cocycle", "plus"], 575)],
    ),
    "character-field": (
        _job("character-field", 7, part="odd"),
        [
            _set(["results", "tag", "stabilizer_gens"], [1, 2, 3, 4, 5, 6]),
            _set(["results", "degree_over_prime"], 1),
        ],
    ),
    "character-field-modular": (
        _job("character-field", 7, part="even", ell=11),
        [_set(["results", "tag", "stabilizer_gens"], [1])],
    ),
    "descend-even": (
        _job("descend", 7, part="even"),
        [
            _bump_descended(),
            _set(["results", "target", "stabilizer_gens"], [1]),
            _set(["results", "dim"], 3),
        ],
    ),
    "descend-odd": (
        _job("descend", 5, part="odd"),
        [
            _bump_descended(),
            _set(["results", "schur_index"], 1),
            _set(["results", "target", "stabilizer_gens"], [1, 11]),
        ],
    ),
    "descend-modular": (
        _job("descend", 7, part="odd", ell=11),
        [_bump_descended(ell=11), _set(["results", "transcript", "fixed_space_prime_dim"], 9)],
    ),
    "end-algebra": (
        _job("end-algebra", 5, part="odd", subfield="Q"),
        [_set(["results", "dim_over_R"], 9), _set(["results", "commutative"], True)],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_accepts_then_rejects(name):
    job, mutations = CASES[name]
    code, text = _report(tuple(job["argv"]))
    checks.check_report(job, code, json.loads(text))
    for mutate in mutations:
        bad = json.loads(text)
        mutate(bad)
        with pytest.raises(checks.CheckFailed):
            checks.check_report(job, code, bad)


def test_theta_check():
    job = _job("theta", 5)
    code, text = _report(tuple(job["argv"]))
    rep = json.loads(text)
    checks.check_report(job, code, rep)
    for mutate in (
        _set(["results", "unitarity", 0, "isomorphic"], True),
        _set(["results", "lifts", 0, "dim"], 2),
        _set(["results", "lifts", 1, "checks", "irr"], False),
    ):
        bad = copy.deepcopy(rep)
        mutate(bad)
        with pytest.raises(checks.CheckFailed):
            checks.check_report(job, code, bad)


def test_failed_exit_is_rejected():
    job = _job("verify", 3)
    code, text = _report(tuple(job["argv"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_report(job, 1, json.loads(text))


def test_closed_forms():
    # Q(sqrt(-7)) is fixed by the squares mod 7; Q(sqrt(5), sqrt(-5)) = Q(sqrt(5), i)
    assert checks.char_field_stab(7, 1) == {1, 2, 4}
    assert checks.char_field_stab(3, 2) == {1, 2}
    assert checks.odd_part_realisation(5, 1) == (20, {1, 9}, 2)
    assert checks.odd_part_realisation(3, 2) == (12, {1, 7}, 2)
    assert checks.odd_order_stab(7) == {1, 2, 4}
    assert checks.cyclotomic(12) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("p,ell", [(7, 11), (13, 3), (11, 23), (7, 29), (11, 3)])
def test_modular_modulus_matches_wire_convention(p, ell):
    from weildescent.fields import MODULAR, field_make

    assert checks.least_factor_mod(p, ell) == list(field_make(MODULAR, p, ell).modulus)


class _FakeCli:
    "Stands in for weildescent.cli: raises, or prints a fixed report."

    def __init__(self, outcome):
        self.outcome = outcome

    def run(self, argv):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        print(self.outcome)
        return 0


def test_runner_counts_crash_and_malformed_report():
    import run as bench

    job = _job("build", 3)
    crash = bench.Runner(_FakeCli(FileNotFoundError("no pair file")), [job])
    assert crash.run(0) is None
    assert (crash.attempted, crash.failed, crash.correct) == (1, 1, True)
    malformed = json.dumps({"results": {"dim": 3, "field": {"n": 3, "char": 0}, "generators": [{"token": []}]}})
    bad = bench.Runner(_FakeCli(malformed), [job])
    assert bad.run(0) is not None
    assert (bad.attempted, bad.failed, bad.correct) == (1, 0, False)
