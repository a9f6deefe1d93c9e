"""Golden artifacts: CLI stdout stays byte-identical across refactors.

Each hash is the SHA-256 of the command's stdout at a fixed seed.  A change
that alters a single byte of an exact value, an MC estimate or the
formatting fails here.
"""

import hashlib

import pytest

from hmt.cli import EXIT_OK, main

GOLDEN = {
    "words --k 4 --method exact":
        "67075e6e6a0c8cedeb7e66407983f2d3bdb6e75a8238108b60eae5bdb3e73a60",
    "words --k 4 --method exact --format json":
        "8707995e8d00bfdfac21c3f020b5c7603fb071a507754599c40ccb0b3f3f955e",
    "words --k 4 --method mc --samples 5000":
        "c05ccc6f767a97cca44a0357e4936c6f25dae2898c7178cd7aabc566f59cdab9",
    "moments --family hankel --max-order 8 --format json":
        "93fb951c679d0f362ca6da4ef0035269a76696c4196853575515628f0f4a7958",
    "moments --family toeplitz --order 6 --method mc --samples 5000":
        "10c0cab48a2c8166feec5abe9d71f39c23ab57a9a51cfb555b8bcf06ab9d782f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_hash(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
