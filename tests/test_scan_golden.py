"""Every scan preset's stdout, byte for byte, against committed digests.

Every preset is checked on one and on two workers against the same
digests.

The digests were taken before the per-curve analysis pipeline replaced the
repeated minimize-and-factor calls, so a faster scan can never print
something different.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from tamagawa import cli

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"

GOLDEN_SHA256 = {
    "prop2.1-negative-t": "954a5d86166c5dfd0c09155fab1f99c78c9f91874759b7e9246a355ef627ffb3",
    "prop2.1-random": "885d4756a230a0177cc66586919929f15615f4c3418601e47785e9f66efa5afb",
    "prop2.2": "96f561e04098f5429b6c8abccd13948c123c67ecb4d975786a3c1b343b6ca196",
    "prop2.4": "df13fd4ecf0f9e2238463ff108af7b2a6aa932ae0c682e093df3a8c64b8b6c10",
    "three-torsion-nonunit-b": "732541fdad91542165be8c23e15e41b3b2f77f2e22f686855427f8da252d976a",
    "kozuma-table": "f5d7cd7aa9870e1b3f6569b5d6a8dd42b9d25ef5e7c4b39990acee058a5285e0",
    "dual-ledger": "3f0cefa0f8a33a6fc9e79bc9e3f13cad67eab757294b68dfeaf59396cbe9c592",
}


def test_every_preset_has_a_digest():
    assert set(GOLDEN_SHA256) == set(cli.PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_scan_stdout_is_byte_identical(name):
    for jobs in ("1", "2"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["scan", "--preset", name, "--jobs", jobs, "--fixtures", str(FIXTURES)])
        assert code == cli.EXIT_OK
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == GOLDEN_SHA256[name], f"--jobs {jobs}"
