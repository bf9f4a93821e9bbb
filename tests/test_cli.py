"""CLI surface: every verb, exit codes, deterministic reports, artifacts."""

import json

import pytest

from weildescent.cli import run
from weildescent.fields import RATIONAL, field_make
from weildescent.finite import SymplecticSpace, fq_field, psi_standard
from weildescent.linalg import Matrix
from weildescent.weil import parity_matrix, weil_rep


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_verify_all_pass(tmp_path):
    code, rep = run_json(
        ["verify", "--p", "3", "--f", "1", "--m", "1", "--exhaustive"], tmp_path
    )
    assert code == 0
    assert all(t["pass"] for t in rep["transcript"])


def test_verify_certifies_every_heisenberg_pair_at_p11(tmp_path):
    # q^(2m+1) = 1331: the Heisenberg certificate covers all 11^6 pairs
    code, rep = run_json(["verify", "--p", "11"], tmp_path)
    assert code == 0
    assert all(t["pass"] for t in rep["transcript"])
    hom = [t["detail"] for t in rep["transcript"] if t["check"] == "heisenberg_homomorphism"]
    assert hom == [{"pairs": 11**6}]


def test_verify_galois_rigidity_at_p_dividing_f(tmp_path):
    # Tr_{F_27/F_3}(1) = 0, so the central generator is the least t with
    # nonzero trace; rho(0, 1) = Id would be fixed by every sigma_u
    code, rep = run_json(["verify", "--p", "3", "--f", "3"], tmp_path)
    assert code == 0
    rigidity = [t for t in rep["transcript"] if t["check"] == "heisenberg_galois_rigidity"]
    assert rigidity == [
        {"check": "heisenberg_galois_rigidity", "detail": {"fixing": []}, "pass": True}
    ]


def test_build_report(tmp_path):
    code, rep = run_json(["build", "--p", "3", "--f", "1", "--m", "1"], tmp_path)
    assert code == 0
    assert rep["results"]["dim"] == 3
    assert rep["results"]["cocycle"]["minus"] + rep["results"]["cocycle"]["plus"] == rep[
        "results"
    ]["cocycle"]["pairs"]


def test_build_p2_config_invalid(tmp_path):
    code, rep = run_json(["build", "--p", "2", "--f", "1", "--m", "1"], tmp_path)
    assert code == 2
    assert rep["error"]["kind"] == "config-invalid"


def test_size_guardrail(tmp_path):
    code, rep = run_json(["build", "--p", "11", "--f", "1", "--m", "3"], tmp_path)
    assert code == 2
    assert "force" in rep["error"]["message"]


def test_character_field_verb(tmp_path):
    code, rep = run_json(
        ["character-field", "--p", "5", "--f", "1", "--m", "1", "--part", "odd"],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["tag"] == {"n": 5, "stabilizer_gens": [1, 4]}
    assert rep["results"]["name"] == "Q(sqrt(5))"


def test_character_field_rank_2(tmp_path):
    # Sp(4, F_3): sigma_2 (2 is no square mod 3) moves a generator trace
    code, rep = run_json(
        ["character-field", "--p", "3", "--m", "2", "--part", "odd"], tmp_path
    )
    assert code == 0
    r = rep["results"]
    assert r["name"] == "Q(sqrt(-3))"
    assert r["degree_over_prime"] == 2
    assert r["tag"] == {"n": 3, "stabilizer_gens": [1]}


def test_end_algebra_verb(tmp_path):
    code, rep = run_json(
        [
            "end-algebra",
            "--p",
            "5",
            "--f",
            "1",
            "--m",
            "1",
            "--part",
            "odd",
            "--subfield",
            "char",
        ],
        tmp_path,
    )
    assert code == 0
    r = rep["results"]
    assert (r["dim_over_R"], r["n"], r["m"]) == (4, 1, 2)
    assert not r["commutative"]


def test_descend_verbs(tmp_path):
    code, rep = run_json(
        ["descend", "--part", "even", "--p", "3", "--f", "2", "--m", "1"], tmp_path
    )
    assert code == 0
    assert rep["results"]["target"] == {"n": 3, "stabilizer_gens": [1, 2]}
    code, rep = run_json(
        ["descend", "--part", "odd", "--p", "5", "--f", "1", "--m", "1"], tmp_path
    )
    assert code == 0
    assert rep["results"]["schur_index"] == 2
    assert rep["results"]["norm_lambda"] is not None
    code, rep = run_json(
        [
            "descend",
            "--part",
            "odd",
            "--p",
            "5",
            "--f",
            "1",
            "--m",
            "1",
            "--ell",
            "7",
        ],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["target"] == {"n": 5, "stabilizer_gens": [1, 4]}


def test_descend_p5_m2(tmp_path):
    code, rep = run_json(["descend", "--part", "full", "--p", "5", "--m", "2"], tmp_path)
    assert code == 0
    assert rep["results"]["transcript"]["fixed_space_prime_dim"] == 100


@pytest.mark.parametrize(
    "model, target, prime_dim",
    [
        (["--p", "5", "--m", "2"], {"n": 20, "stabilizer_gens": [1, 9]}, 48),
        (["--p", "3", "--f", "2", "--m", "2"], {"n": 12, "stabilizer_gens": [1, 7]}, 80),
    ],
)
def test_descend_odd_rank_2(model, target, prime_dim, tmp_path):
    # the Schur-index-2 route asks the embedded odd block for omega(m_alpha)
    # with alpha . I_2, which is not a declared generator
    code, rep = run_json(["descend", "--part", "odd", *model], tmp_path)
    assert code == 0
    assert all(t["pass"] for t in rep["transcript"])
    res = rep["results"]
    assert res["target"] == target
    assert res["schur_index"] == 2
    assert res["transcript"]["fixed_space_prime_dim"] == prime_dim


@pytest.mark.parametrize("verb, pairs", [("build", 50), ("verify", 200)])
def test_cocycle_rank_2_p5(verb, pairs, tmp_path):
    # |Sp(4, F_5)| = 9360000 is never listed: the pairs are sampled
    code, rep = run_json([verb, "--p", "5", "--m", "2"], tmp_path)
    assert code == 0
    assert all(t["pass"] for t in rep["transcript"])
    census = [t["detail"] for t in rep["transcript"] if t["check"] == "cocycle_values_pm1"]
    assert census == [{"pairs": pairs, "plus": pairs, "minus": 0}]


@pytest.mark.parametrize("verb", ["build", "verify"])
def test_scaled_w_image_fails_the_cocycle(verb, tmp_path, monkeypatch):
    # zeta_p . W0 still intertwines rho, so only the cocycle certificate sees it
    from weildescent import weil
    from weildescent.finite import TOKEN_W

    honest = weil.token_phases

    def scaled(psi, space, token):
        c, cols = honest(psi, space, token)
        return (c * psi.values[1], cols) if token == TOKEN_W else (c, cols)

    monkeypatch.setattr(weil, "token_phases", scaled)
    code, rep = run_json([verb, "--p", "5"], tmp_path)
    assert code == 1
    assert rep["error"]["kind"] == "CocycleViolation"
    if verb == "verify":
        assert rep["transcript"][-1] == {"check": "weil_intertwines_heisenberg", "pass": True}


@pytest.mark.parametrize(
    "part, subfield, shape",
    [
        ("odd", "char", (4, 1, 2)),
        ("odd", "Q", (8, 2, 2)),
        ("full", "char", (8, 2, 2)),
        ("full", "Q", (16, 4, 2)),
    ],
    ids=["odd-char", "odd-Q", "full-char", "full-Q"],
)
def test_end_algebra_rank_2_beyond_the_sweep(tmp_path, part, subfield, shape):
    # |Sp(4, F_5)| = 9360000: every Hom_K(^u V, V) is one exact solve on the
    # generators, checked against Gerardin's count; the shape (dim over R,
    # n, m) is End = M_[K:F](D) over F = Q(sqrt 5), one factor per constituent
    argv = ["end-algebra", "--p", "5", "--m", "2", "--part", part, "--subfield", subfield]
    code, rep = run_json(argv, tmp_path)
    assert code == 0
    res = rep["results"]
    assert (res["dim_over_R"], res["n"], res["m"]) == shape


def test_end_algebra_refuses_ell_dividing_the_group_order(tmp_path, monkeypatch):
    # |Sp(2, F_13)| = 2184 = 0 mod 3: the reduction mod 3 need not be
    # semisimple, and Gerardin's count of the Hom dimensions assumes it is
    from weildescent import cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the characteristic refusal")

    monkeypatch.setattr(cli, "character_field", never)
    monkeypatch.setattr(cli, "endomorphism_algebra", never)
    argv = ["end-algebra", "--p", "13", "--part", "even", "--subfield", "char", "--ell", "3"]
    code, rep = run_json(argv, tmp_path)
    assert code == 2
    assert rep["error"]["kind"] == "config-invalid"
    assert "ell = 3" in rep["error"]["message"] and "|Sp| = 2184" in rep["error"]["message"]


def test_end_algebra_modular_dimension_past_ell(tmp_path):
    # over F_5[zeta_7] the End algebra has dimension 9 >= ell: the Hom solves
    # are exact in K, so the dimension is not read mod 5
    argv = ["end-algebra", "--p", "7", "--ell", "5", "--part", "odd", "--subfield", "char"]
    code, rep = run_json(argv, tmp_path)
    assert code == 0
    res = rep["results"]
    assert (res["dim_over_R"], res["n"], res["m"]) == (9, 1, 3)


def test_end_algebra_modular_below_ell(tmp_path):
    argv = ["end-algebra", "--p", "5", "--ell", "7", "--part", "odd", "--subfield", "char"]
    code, rep = run_json(argv, tmp_path)
    assert code == 0
    assert rep["results"] == {
        "center_dim": 1,
        "commutative": False,
        "dim_over_R": 4,
        "field_tag": {"n": 5, "stabilizer_gens": [1, 4]},
        "is_division": None,
        "m": 2,
        "n": 1,
        "subfield_name": "F_7^2",
    }


def test_end_algebra_walks_no_sp(tmp_path, monkeypatch):
    # the character field and every Hom_K(^u V, V) are certified on the
    # declared generators: no walk of the 51,840 elements of Sp(4, F_3)
    from weildescent import finite, weil

    def never(*args, **kwargs):
        raise AssertionError("walked Sp")

    monkeypatch.setattr(finite, "sp_classes", never)
    monkeypatch.setattr(weil, "sp_classes", never)
    argv = ["end-algebra", "--p", "3", "--m", "2", "--part", "odd", "--subfield", "char"]
    code, rep = run_json(argv, tmp_path)
    assert code == 0 and rep["results"]["dim_over_R"] == 1


def test_character_field_rank_2_beyond_the_sweep(tmp_path):
    # |Sp(4, F_5)| and |Sp(4, F_7)| are past the sweep bound: each Galois
    # exponent is decided on the generators, by a moved trace or by the
    # intertwiner omega(m_alpha), also for the 49-dimensional full part
    argv = ["character-field", "--p", "5", "--m", "2", "--part", "odd"]
    code, rep = run_json(argv, tmp_path)
    assert code == 0
    assert rep["results"] == {
        "degree_over_prime": 2,
        "name": "Q(sqrt(5))",
        "part": "odd",
        "tag": {"n": 5, "stabilizer_gens": [1, 4]},
    }
    argv = ["character-field", "--p", "7", "--m", "2", "--part", "full"]
    code, rep = run_json(argv, tmp_path)
    assert code == 0
    assert rep["results"]["tag"] == {"n": 7, "stabilizer_gens": [1, 2, 4]}
    assert rep["results"]["name"] == "Q(sqrt(-7))"


def test_end_algebra_char_solves_end_once_on_three_generators(monkeypatch, capsys):
    # End_K(V) is the one solve, on M(g), N(1) and W0; every other
    # Hom_K(^u V, V) is End_K(V) . omega(m_alpha)
    from weildescent import rationality

    pairs = []
    honest = rationality.intertwiner_space

    def counted(gens_a, gens_b):
        pairs.append(len(gens_a))
        return honest(gens_a, gens_b)

    monkeypatch.setattr(rationality, "intertwiner_space", counted)
    assert run(["end-algebra", "--p", "7", "--part", "odd", "--subfield", "char"]) == 0
    assert pairs == [3]


def test_character_field_checks_witnesses_on_three_generators(monkeypatch, capsys):
    # the in-witness of each of the four nonzero squares u != 1 mod 11 is
    # checked on the certifying generators, at most 3 twisted commutations
    from weildescent import rationality

    calls = []
    honest = rationality.twisted_commutes

    def counted(R, sigma, A):
        calls.append(sigma.exponent)
        return honest(R, sigma, A)

    monkeypatch.setattr(rationality, "twisted_commutes", counted)
    assert run(["character-field", "--p", "11", "--part", "odd"]) == 0
    fixing = {u * u % 11 for u in range(1, 11)} - {1}
    assert set(calls) == fixing
    assert all(calls.count(u) <= 3 for u in fixing)


def test_end_algebra_p11_odd(tmp_path):
    argv = ["end-algebra", "--p", "11", "--part", "odd", "--subfield", "char"]
    code, rep = run_json(argv, tmp_path)
    assert code == 0
    assert rep["transcript"] == []
    assert rep["results"] == {
        "center_dim": 1,
        "commutative": False,
        "dim_over_R": 25,
        "field_tag": {"n": 11, "stabilizer_gens": [1, 3, 4, 5, 9]},
        "is_division": None,
        "m": 5,
        "n": 1,
        "subfield_name": "Q(sqrt(-11))",
    }


def test_norm_solve_verb_and_exit_codes(tmp_path):
    code, rep = run_json(
        ["norm-solve", "--n", "20", "--top", "9", "--bottom", "3"], tmp_path
    )
    assert code == 0
    code, rep = run_json(
        ["norm-solve", "--n", "20", "--top", "9", "--bottom", "11,9"], tmp_path
    )
    assert code == 4
    assert rep["error"]["kind"] == "not-found-within-bound"
    assert rep["error"]["transcript"]["definite_obstruction"]


def test_hilbert_verb(tmp_path):
    code, rep = run_json(["hilbert", "-1", "-1", "-v", "2"], tmp_path)
    assert code == 0 and rep["results"]["symbol"] == -1
    code, rep = run_json(["hilbert", "-1", "-3"], tmp_path)
    assert rep["results"]["ramification"] == ["3", "inf"]


def test_p2_verb(tmp_path):
    code, rep = run_json(["p2"], tmp_path)
    assert code == 0
    assert rep["results"]["A_for_Q2"] == "squaresOnly"
    code, rep = run_json(["p2", "--A", "class3"], tmp_path)
    assert rep["results"]["odd"]["schur_index"] == 1


def test_table_verb_with_csv(tmp_path):
    csv = tmp_path / "table.csv"
    code, rep = run_json(
        ["table", "--p", "3,5", "--f", "1,2", "--csv", str(csv)], tmp_path
    )
    assert code == 0
    assert len(rep["results"]["rows"]) == 4
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("q,")
    assert len(lines) == 5


def test_theta_verb(tmp_path):
    # build a pair file for q = 3: H1 = {1, S}, H2 = one Weil token
    fq = fq_field(3, 1)
    sp = SymplecticSpace(fq, 1)
    K = field_make(RATIONAL, 3)
    psi = psi_standard(fq, K)
    w = weil_rep(psi, sp)
    S = parity_matrix(sp, K)

    def ser(m):
        return [[e.to_json() for e in row] for row in m.rows]

    pair = {
        "field": {"n": 3, "char": 0},
        "dim": 3,
        "h1": {"c": ser(S)},
        "h2": {str(t): ser(w.image(t)) for t in w.gen_names},
        "pi1": [
            {"label": "trivial", "gens": {"c": ser(Matrix.identity(K, 1))}},
            {
                "label": "sign",
                "gens": {"c": ser(Matrix.identity(K, 1).scale(K.from_int(-1)))},
            },
        ],
    }
    pfile = tmp_path / "pair.json"
    pfile.write_text(json.dumps(pair))
    code, rep = run_json(["theta", "--pair", str(pfile)], tmp_path)
    assert code == 0
    dims = {r["label"]: r["dim"] for r in rep["results"]["lifts"]}
    assert dims == {"trivial": 2, "sign": 1}
    assert rep["results"]["unitarity"][0]["isomorphic"] is False


def test_reports_byte_identical(tmp_path):
    argv = ["verify", "--p", "3", "--f", "1", "--m", "1", "--seed", "1"]
    _, _ = run_json(argv, tmp_path, "a.json")
    _, _ = run_json(argv, tmp_path, "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize(
    "argv, order",
    [(["--p", "7"], 336), (["--p", "3", "--m", "2"], 51840)],
    ids=["sp2-f7", "sp4-f3"],
)
def test_verify_exhaustive_refuses_too_many_pairs(argv, order, tmp_path, monkeypatch):
    # |Sp|^2 cocycle pairs past the bound: refused before any check or listing
    from weildescent import cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the size refusal")

    monkeypatch.setattr(cli, "heisenberg_hom_check", never)
    monkeypatch.setattr(cli, "sp_enumerate", never)
    code, rep = run_json(["verify", *argv, "--exhaustive"], tmp_path)
    assert code == 3
    assert rep["error"] == {
        "kind": "too-large",
        "message": f"the {order ** 2} pairs of |Sp| = {order} exceed bound 100000",
    }
    assert rep["transcript"] == []


def test_timing_flag_adds_field(tmp_path):
    code, rep = run_json(["p2", "--timing"], tmp_path)
    assert code == 0 and "timing_seconds" in rep


def test_too_large_exit_code(tmp_path, monkeypatch):
    # the 336^2 = 112896 pairs of an exhaustive verify at p = 7 exceed the
    # bound of 10^5: refused before any work
    from weildescent import cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the size refusal")

    monkeypatch.setattr(cli, "build_weil", never)
    code, rep = run_json(["verify", "--p", "7", "--exhaustive"], tmp_path)
    assert code == 3
    assert rep["error"] == {
        "kind": "too-large",
        "message": "the 112896 pairs of |Sp| = 336 exceed bound 100000",
    }


def test_build_with_twist(tmp_path):
    code, rep = run_json(
        ["build", "--p", "5", "--f", "1", "--m", "1", "--twist", "2"], tmp_path
    )
    assert code == 0
    assert "psi_2" in rep["results"]["label"]


def test_build_output_parses_back(tmp_path):
    from weildescent.fields import cyclonum_from_json

    code, rep = run_json(["build", "--p", "3", "--f", "1", "--m", "1"], tmp_path)
    assert code == 0
    K = field_make(RATIONAL, 3)
    for gen in rep["results"]["generators"]:
        mat = [[cyclonum_from_json(e, K) for e in row] for row in gen["matrix"]]
        assert len(mat) == 3 and len(mat[0]) == 3


ONE = {"n": 3, "char": 0, "coeffs": ["1", "0"]}
ZERO = {"n": 3, "char": 0, "coeffs": ["0", "0"]}
ZETA = {"n": 3, "char": 0, "coeffs": ["0", "1"]}
ZETA2 = {"n": 3, "char": 0, "coeffs": ["-1", "-1"]}


def _pair_file(**changes):
    """A valid one-dimensional pair file over Q(zeta_3), with top-level keys
    replaced (or dropped when the value is None)."""
    pair = {
        "field": {"n": 3, "char": 0},
        "dim": 1,
        "h1": {"c": [[ONE]]},
        "h2": {"t": [[ONE]]},
        "pi1": [{"label": "trivial", "gens": {"c": [[ONE]]}}],
    }
    for key, value in changes.items():
        if value is None:
            del pair[key]
        else:
            pair[key] = value
    return json.dumps(pair)


PAIR_SHAPES = {
    "list": "[]",
    "empty-object": "{}",
    "no-h1": _pair_file(h1=None),
    "no-pi1": _pair_file(pi1=None),
    "field-list": _pair_file(field=[3, 0]),
    "field-not-prime-char": _pair_file(field={"n": 3, "char": 4}),
    "dim-string": _pair_file(dim="1"),
    "h1-list": _pair_file(h1=[[[ONE]]]),
    "row-not-list": _pair_file(h2={"t": [ONE]}),
    "wrong-size": _pair_file(h2={"t": [[ONE, ONE], [ONE, ONE]]}),
    "entry-other-field": _pair_file(h2={"t": [[{"n": 5, "char": 0, "coeffs": ["1"]}]]}),
    "entry-bad-coeff": _pair_file(h2={"t": [[{"n": 3, "char": 0, "coeffs": ["x", "0"]}]]}),
    # coefficients are exact strings: a JSON number or boolean is refused, so
    # a true in the "sign" character does not read as the trivial one
    "entry-float-coeff": _pair_file(h2={"t": [[{"n": 3, "char": 0, "coeffs": [-1.0, "0"]}]]}),
    "entry-bool-coeff": _pair_file(
        pi1=[{"label": "sign", "gens": {"c": [[{"n": 3, "char": 0, "coeffs": [True, "0"]}]]}}]
    ),
    "pi1-not-list": _pair_file(pi1={"label": "trivial"}),
    "pi1-gens-mismatch": _pair_file(pi1=[{"label": "a", "gens": {"d": [[ONE]]}}]),
    "pi1-ragged": _pair_file(pi1=[{"gens": {"c": [[ONE], [ONE, ONE]]}}]),
    # H1 = <diag(0, 1)> is not a group of invertible matrices
    "h1-singular": _pair_file(
        dim=2,
        h1={"c": [[ZERO, ZERO], [ZERO, ONE]]},
        h2={"t": [[ONE, ZERO], [ZERO, ONE]]},
    ),
    # H1 the Fourier matrix of F_3, H2 the diagonal clock: they do not commute
    "not-commuting": _pair_file(
        dim=3,
        h1={"c": [[ONE, ONE, ONE], [ONE, ZETA, ZETA2], [ONE, ZETA2, ZETA]]},
        h2={"t": [[ONE, ZERO, ZERO], [ZERO, ZETA, ZERO], [ZERO, ZERO, ZETA2]]},
    ),
}


def test_pair_file_base_is_valid(tmp_path):
    (tmp_path / "pair.json").write_text(_pair_file())
    code, rep = run_json(["theta", "--pair", str(tmp_path / "pair.json")], tmp_path)
    assert code == 0
    assert rep["results"]["lifts"][0]["label"] == "trivial"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--p", "3,x"],
        ["theta", "--pair", "{tmp}/missing.json"],
        ["theta", "--pair", "{tmp}/malformed.json"],
        ["hilbert", "1", "1", "-v", "x"],
        ["hilbert", "1", "1", "-v", "4"],
        ["norm-solve", "--n", "20", "--top", "2", "--bottom", "3"],
        ["norm-solve", "--n", "20", "--top", "3", "--bottom", "9"],
        ["end-algebra", "--p", "5", "--part", "even", "--subfield", "5"],
        ["verify", "--p", "5", "--pairs", "0"],
        ["build", "--p", "5", "--pairs", "-3"],
        ["table", "--p", "3", "--f", "0"],
        ["table", "--p", "3", "--f", "1,-1"],
        ["hilbert", "0", "1"],
        ["hilbert", "0", "1", "-v", "2"],
        ["norm-solve", "--n", "5", "--top", "1", "--bottom", "4", "--bound", "-3"],
        ["descend", "--part", "odd", "--p", "5", "--bound", "-1"],
    ]
    + [["theta", "--pair", "{tmp}/shape-%s.json" % name] for name in PAIR_SHAPES],
    ids=["table-p", "theta-missing", "theta-malformed", "hilbert-place-x", "hilbert-place-4"]
    + ["norm-top-not-unit", "norm-top-outside-bottom", "end-subfield-not-unit"]
    + ["verify-pairs-0", "build-pairs-negative", "table-f-0", "table-f-negative"]
    + ["hilbert-zero", "hilbert-zero-place", "norm-bound-negative", "descend-bound-negative"]
    + ["theta-shape-" + name for name in PAIR_SHAPES],
)
def test_malformed_input_exits_2(argv, tmp_path):
    (tmp_path / "malformed.json").write_text('{"field": ')
    for name, text in PAIR_SHAPES.items():
        (tmp_path / f"shape-{name}.json").write_text(text)
    code, rep = run_json([a.format(tmp=tmp_path) for a in argv], tmp_path)
    assert code == 2
    assert rep["error"]["kind"] == "config-invalid"
    assert rep["error"]["message"]


@pytest.mark.parametrize(
    "shape, where",
    [
        ("entry-bad-coeff", "h2.t"),
        ("entry-float-coeff", "h2.t"),
        ("entry-bool-coeff", "pi1[0].gens.c"),
    ],
)
def test_pair_file_coefficient_must_be_a_readable_string(shape, where, tmp_path):
    (tmp_path / "pair.json").write_text(PAIR_SHAPES[shape])
    code, rep = run_json(["theta", "--pair", str(tmp_path / "pair.json")], tmp_path)
    assert code == 2
    assert rep["error"] == {
        "kind": "config-invalid",
        "message": f"pair file: {where} has an unreadable coefficient",
    }


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_singular_pair_exits_2_in_a_fresh_interpreter(flags, tmp_path):
    # no assert guards the singular generator: it is refused under -O too
    import os
    import subprocess
    import sys
    from pathlib import Path

    import weildescent

    src = Path(weildescent.__file__).resolve().parent.parent
    (tmp_path / "pair.json").write_text(PAIR_SHAPES["h1-singular"])
    out = tmp_path / "out.json"
    argv = ["theta", "--pair", str(tmp_path / "pair.json"), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "weildescent.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(out.read_text())["error"] == {
        "kind": "config-invalid",
        "message": "pair file: h1.c must be invertible",
    }


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize(
    "field, message",
    [
        (["--n", "0"], "--n 0 must be at least 2"),
        (["--n", "1"], "--n 1 must be at least 2"),
        (["--n", "5", "--ell", "4"], "--ell 4 must be a prime not dividing n = 5"),
        (["--n", "5", "--ell", "1"], "--ell 1 must be a prime not dividing n = 5"),
        (["--n", "5", "--ell", "5"], "--ell 5 must be a prime not dividing n = 5"),
        (["--n", "6", "--ell", "7"], "--ell takes a prime n, not 6"),
        (
            ["--n", "7", "--target", "0"],
            "--target 0 is 0 in Q(zeta_7): no nonzero lambda has norm 0",
        ),
        (
            ["--n", "7", "--ell", "29", "--target", "58"],
            "--target 58 is 0 in F_29(zeta_7)[deg 1]: no nonzero lambda has norm 0",
        ),
    ],
    ids=[
        "n-0", "n-1", "ell-4", "ell-1", "ell-divides-n", "composite-n-with-ell",
        "target-0", "target-0-mod-ell",
    ],
)
def test_norm_solve_refuses_invalid_field(field, message, flags, tmp_path):
    # field_make guards these with asserts, which python -O strips: the
    # command refuses them first; a target that is 0 in K is refused before
    # any search, since no nonzero lambda has norm 0
    import os
    import subprocess
    import sys
    from pathlib import Path

    import weildescent

    src = Path(weildescent.__file__).resolve().parent.parent
    out = tmp_path / "out.json"
    argv = ["norm-solve", *field, "--top", "1", "--bottom", "1", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "weildescent.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(out.read_text())["error"] == {"kind": "config-invalid", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "5"],
        ["build", "--p", "7"],
        ["character-field", "--p", "11", "--part", "odd"],
        ["end-algebra", "--p", "7", "--part", "odd", "--subfield", "char"],
        ["end-algebra", "--p", "7", "--part", "full", "--subfield", "Q"],
    ],
    ids=["verify", "build", "character-field", "end-algebra-char", "end-algebra-full-Q"],
)
def test_reports_do_not_depend_on_optimize(argv):
    # every certificate raises a typed error rather than asserting, so the
    # report is byte-identical under python -O
    import os
    import subprocess
    import sys
    from pathlib import Path

    import weildescent

    src = Path(weildescent.__file__).resolve().parent.parent
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "weildescent.cli", *argv, "--seed", "1"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            timeout=300,
        )
        for flags in ([], ["-O"])
    ]
    assert [proc.returncode for proc in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


class _FqElimination(Exception):
    "Raised by the Matrix eliminations when a command calls one over F_q."


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "5"],
        ["verify", "--p", "3", "--m", "2"],
        ["verify", "--p", "3", "--exhaustive"],
        ["build", "--p", "7"],
    ],
    ids=["verify-p5", "verify-p3-m2", "verify-p3-exhaustive", "build-p7"],
)
def test_commands_eliminate_over_f_q_on_the_tables(argv, monkeypatch, capsys):
    # the draws, the listing of Sp(W), sp_word and token_phases eliminate on
    # the F_q tables: with Matrix.rref, nullspace, det and inverse refusing a
    # matrix over F_q, the commands still pass with the same reports
    from weildescent.finite import FqField

    for name in ("rref", "nullspace", "det", "inverse"):
        honest = getattr(Matrix, name)

        def refuse(self, *args, _honest=honest, _name=name):
            if isinstance(self.field, FqField):
                raise _FqElimination(f"Matrix.{_name} over {self.field!r}")
            return _honest(self, *args)

        monkeypatch.setattr(Matrix, name, refuse)
    assert run(argv) == 0
    patched = capsys.readouterr().out
    monkeypatch.undo()
    assert run(argv) == 0
    assert capsys.readouterr().out == patched
