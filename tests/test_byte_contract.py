"""The byte contract: each README-scale command writes the same ``--out`` bytes as before.

Every command below runs at the default parameters (lambda = mu = alpha = 1)
through ``cli.main`` with ``--out`` at ``--workers 1``; the table holds the
sha256 of each output file.  Worker invariance is tested in ``test_cli.py``,
so one worker count is enough here.

The values were recorded with numpy 2.4.6 on x86-64 Linux; another numpy
release or platform may round differently.  A change that moves these bytes
on purpose updates the table and lists the old and new values in CHANGES.md.
"""

import hashlib
import shlex

import pytest

from catpop.cli import main

CONTRACT = [
    ("simulate --T 4 --seed 5", "65245d35dcbfe8fa5e2e2ebda164f0a331e97f62f7e19d9a0f4094d20bc9ceb6"),
    ("simulate --T 160 --method decomposed --seed 5",
     "28de82b32b5e36334f887ee375e4835e1b4e5c466b8fa45b6f868871c1d0693f"),
    ("simulate --T 4 --seed 5 --grid 8 --format json",
     "8f31941667c912c8025254eb493ae1a7f2ce4495fcc5b2ec090d1fcb33df6637"),
    ("exact --T 4 --x 0.5", "e1ad22eb4ac65f958c352309a2a7d4011b36252ad56963afde00138667cc95b6"),
    ("exact --T 4 --x 0.5 --format csv", "3953b8b6823722de311f26310d5936daa8ae33cf6639d848796b92040f7186b6"),
    ("rate --grid 5 --x 2", "2239705beb133c42b7361536e5b0c3d947b95f93fe52a2698131bfe2e83673b2"),
    ("rate --format json", "2142cfb26aed03792f8f616f39f3f0ab933b83804482f60f78310dcc259d9d0a"),
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7 --method is",
     "a67451e044d09bd0ab30a0afaccc46580ee47a58cdef396466a456eb95183c8c"),
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7", "cffda2fe0c5be482436c8e23dfcb0cac4450824fa24715575844203ee85dca11"),
    ("estimate --T 4 --x 0 --n 500 --method is", "7875f7b5637d358033e06a8dca1724cc398178dd788f6d64584fbacb5d0cc8ac"),
    ("lln --T-list 4,8 --eps 0.5 --n 500 --seed 7", "d0530b92dfff292dc033a61021fb65e33dc1be5f4d78234277c80e8753ef205a"),
    ("sweep --T-list 4,8 --x 0.5 --n 500 --seed 7", "b074edff6996b5c4a0f9fd16e3b77ab516d8245973433dff97428cd424e26390"),
    ("paths --T 20 --x 0.5 --n 2000 --seed 7", "ee3432015f1e053c89b5ba61880035772b43a49cd4f35037000245cea86cfdaf"),
    ("paths --T 20 --x 0.5 --n 2000 --seed 7 --format json",
     "42e954bda190930e1f3fad4a0f57a09de7a63a0330c734d694c7491dfe1e1f0b"),
    ("estimate --T 160 --x 0.5 --method is --n 10000 --seed 11",
     "bc794873ac4c53934931411538cb380d35a58b94723442bae466539afd1f96be"),
    ("estimate --T 160 --x 2 --method is --n 10000 --seed 11",
     "ebb63d24e7d6aa15183237b7acb7b83d5287f9e9a91d7abe13bcb1d867f1cc95"),
    ("paths --T 160 --x 0.5 --n 10000 --seed 11", "e5cb0d86610179916bc327f188c7e0c6e65b92e817e6a434d00b5b2d76dbbcb2"),
]


@pytest.mark.parametrize("command, sha256", CONTRACT, ids=[command for command, _ in CONTRACT])
def test_out_bytes_match_the_recorded_sha256(tmp_path, command, sha256):
    out = tmp_path / "out"
    assert main([*shlex.split(command), "--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
