"""Report bytes pinned: the sha256 of the JSON report that cli.run writes to
stdout, for a fixed set of quick commands.  A change that keeps every report
byte-identical keeps these digests; a change that alters a report on purpose
updates its digest here and says why.  theta is left out: its report holds
the path of the pair file."""

import hashlib

import pytest

from weildescent.cli import run

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
    "character-field --p 11 --part odd": (
        "902b23ace74ab2eedfc6874e65f4a5dcdb2916171fd78d20bd4936f6195c1efb"
    ),
    "end-algebra --p 7 --part odd --subfield Q": (
        "cef10c3f4dc32328d84b7be2aebbe9168bd542c8eeaabd957da7364cc5b691ab"
    ),
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_report_bytes_are_pinned(command, capsys):
    assert run(command.split()) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[command]
