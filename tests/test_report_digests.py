"""Report bytes pinned: the sha256 of the JSON report that cli.run writes to
stdout, for a fixed set of quick commands.  A change that keeps every report
byte-identical keeps these digests; a change that alters a report on purpose
updates its digest here and says why.  The theta report holds the path of
its pair file, so theta is pinned on a pair file written by the test, with
config.pair taken out of the report."""

import hashlib
import json

import pytest

from weildescent.cli import run
from weildescent.fields import RATIONAL, field_make
from weildescent.finite import SymplecticSpace, fq_field, psi_standard
from weildescent.linalg import Matrix
from weildescent.weil import parity_matrix, weil_rep

DIGESTS = {
    "verify --p 5": "ae6bbb434b8861baddb109594a8022ee04bba0d2f5a077fd46a72330500191a9",
    "verify --p 3 --f 2": "21a5708b00105b2cb0bbe09d5b67a5cfe863d6ac629336719f0c1a9566426427",
    "verify --p 3 --m 2": "addd666c781de83a1cd7f8d093f238bb269a3c1e2576f8dfc8db88788853dd4c",
    "build --p 7": "73c345701640d320c0da6c011ad5ae2dcb621e2e8232a96b34a6af5095f64e59",
    "build --p 5 --m 2": "21984042fc145246a51f79773e5bb8cbdae463c5140c1b203ff356120cedc75f",
    "descend --part odd --p 5": "cc73aef98ff954f2acc900d12441a282ce2083365ffbe83fa44616e0e5a279a5",
    "descend --part even --p 13 --ell 3": (
        "a5f98aa9fe07f6e3f5d2d1fddde6dcc445d54063dfdded4868b62331c6ee952c"
    ),
    "descend --part odd --p 5 --m 2": (
        "53a04a575d3b151cf70dc9b1c145f2bfb1522c6f80c98dfba85e0fc2994f9093"
    ),
    "descend --part full --p 7": (
        "18e197071f8bab49539e33ba57fe4172da1324064f100348aeaf94531bab3dcd"
    ),
    "descend --part even --p 7": (
        "0b14eb2f6d3d9ed7adc75777c5ccd10c44e8765eb840eaeba7a063608e0cdf48"
    ),
    "descend --part odd --p 3 --f 2": (
        "1e938245e883c636b519516aaec68aace19e4f201d9c15f57004cd059c342c3c"
    ),
    "descend --part odd --p 13 --ell 3": (
        "93fd6782a2ed1d5d1e765cb77319703c7ef03787fc8cda64b1d89e5187860539"
    ),
    "descend --part odd --p 11 --ell 23": (
        "ca9f4990af92260edf45074c61f05491a84d9d8b5eacf214e8d033165c53a601"
    ),
    "descend --part odd --p 13": (
        "9df73735a9bff2b9a3c785d08cba0cdf7e8de5e11cce9557ec3846f4d6318943"
    ),
    "descend --part full --p 13": (
        "cd42aad17391754b360bc617db9df8f8e19ddf6f00598e178681c92e5400d814"
    ),
    "character-field --p 11 --part odd": (
        "902b23ace74ab2eedfc6874e65f4a5dcdb2916171fd78d20bd4936f6195c1efb"
    ),
    "end-algebra --p 7 --part odd --subfield Q": (
        "cef10c3f4dc32328d84b7be2aebbe9168bd542c8eeaabd957da7364cc5b691ab"
    ),
    "end-algebra --p 11 --part odd --subfield Q": (
        "47f28d0293e32bc7ade0b2164bdbf6412f7317ef3078b9e36acdcf245eb3d528"
    ),
    "end-algebra --p 5 --m 2 --part full --subfield char": (
        "ab18a31f468a7919ebf158887272358918bff24ec5db6bffa0ee65f5f8ccb850"
    ),
    "verify --p 3": "31f63c606e14dd0331946c793354108c88409c38a1c940d70f3ab231a64106bc",
    "character-field --p 11 --part odd --ell 23": (
        "24db2e5f26fe53933c2541529d9dabf4a4d9d2bbf9018e3545eddb1a4f3ad542"
    ),
    "end-algebra --p 7 --part odd --subfield char --ell 29": (
        "eeb7a283e208b8d2e548eb58f97689162bd2a41ff3539153c2db82b09e75392b"
    ),
    # 8.4 MB: the report with the most repeated matrix entries
    "descend --part odd --p 11 --m 2": (
        "070dca30f3716122a086ef154368c8c9dc5b9e50faf64550819945d025bc1ac6"
    ),
    # the character field and End algebra of every part, in both m
    "character-field --p 11 --f 2 --part odd": (
        "3eb9e720ba53967bd610a0780c0a011dfdc2dd88949424bb978b9aeaef07ac0c"
    ),
    "character-field --p 7 --part full": (
        "e28d6b5021ef86a9306cd5dbcd70d507c25f0a304fd01fe7ce64adc816753d37"
    ),
    "character-field --p 5 --f 2 --part even": (
        "5e02ff61e019a8cdcfa8c90d7afb2bf53bfeb8e70bc2d0830f3c6c5008d9f6b8"
    ),
    "character-field --p 3 --part heisenberg": (
        "9562144f15f3736eb87763c5cc5cafcae4c2ca3681f32dd077cd65c5ebdec80c"
    ),
    "end-algebra --p 7 --part full --subfield char": (
        "204db3f7473de9976af1e46b5f7e41312ed7bc5ddd398cb0e991dc062a4c4904"
    ),
    "end-algebra --p 5 --f 2 --part even --subfield char": (
        "bca70fbab1beab6aca24b7904d6ce2aeafe05b620ee3c46a8c3cf2ff8cb938be"
    ),
    "end-algebra --p 3 --part heisenberg --subfield Q": (
        "de00a7b2257e427a174b9e2f128ce6368cd608039e59273b896425cd60ee27ad"
    ),
    "end-algebra --p 7 --m 2 --part full --subfield Q": (
        "6f8e7f7e5f6b05267ac8ee5c54d578f3e746826d9814367504d0382a718fe29d"
    ),
    # the slowest End algebra under the size cap: 241 declared generators
    "end-algebra --p 11 --f 2 --part odd --subfield char": (
        "dc1e2eee8f094a0f7d3f3086801cc018c99ff63fd450bd5539f51cf301c2b068"
    ),
}
THETA_DIGEST = "d545fe140582ba8c751ab4f5b4f2e12488b40006bdc2a6dc58f7740328f8a62b"


@pytest.mark.parametrize("command", list(DIGESTS))
def test_report_bytes_are_pinned(command, capsys):
    assert run(command.split()) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[command]


def test_reports_are_written_without_json_dumps(monkeypatch, capsys):
    # cli writes its reports in one pass of its own, byte for byte as
    # json.dumps(report, sort_keys=True, indent=2, default=str) would
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    command = "descend --part even --p 13 --ell 3"
    assert run(command.split()) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[command]


def test_refusal_bytes_are_pinned(capsys):
    # a refusal whose message quotes a quote, a non-ASCII letter and a
    # backslash: each must come out escaped as the json module escapes it
    argv = ["norm-solve", "--n", "5", "--top", "1", "--bottom", '1,"\u00e9\\', "--target", "-1"]
    assert run(argv) == 2
    text = capsys.readouterr().out
    assert '\\"\\u00e9\\\\\\\\' in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "47751ad3d3f282bf571b9bb2da2a09d2360bbcacb866f3f9a33523945073fabb"
    )


def _parity_pair(p):
    """The pair file of H1 = {1, S}, S f(y) = f(-y), and H2 = the Weil
    generators of Sp(2, F_p) over Q(zeta_p), with the trivial and the sign
    character of H1."""
    fq = fq_field(p, 1)
    sp = SymplecticSpace(fq, 1)
    K = field_make(RATIONAL, p)
    w = weil_rep(psi_standard(fq, K), sp)

    def ser(m):
        return [[e.to_json() for e in row] for row in m.rows]

    one = Matrix.identity(K, 1)
    return {
        "field": {"n": p, "char": 0},
        "dim": p,
        "h1": {"c": ser(parity_matrix(sp, K))},
        "h2": {str(t): ser(w.image(t)) for t in w.gen_names},
        "pi1": [
            {"label": "trivial", "gens": {"c": ser(one)}},
            {"label": "sign", "gens": {"c": ser(one.scale(K.from_int(-1)))}},
        ],
    }


def test_theta_report_bytes_are_pinned(tmp_path):
    # the theta report on the parity pair at p = 7, config.pair removed
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_parity_pair(7)))
    out = tmp_path / "theta.json"
    assert run(["theta", "--pair", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["config"]["pair"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == THETA_DIGEST
