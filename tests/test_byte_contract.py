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
    ("simulate --T 4 --seed 5 --format json", "096ddc8a81d8623cb3ffedda63cd3e0d2dd6244b2e599d64911238bda0a923a0"),
    ("simulate --T 4 --seed 5 --grid 8 --format json",
     "496e36f247d60c799c09f1cb4b0a3253c7b707fb57d391013c9ed83d1bec0b62"),
    ("exact --T 4 --x 0.5", "f38ca916de8844fc4aaaeec08ebd49e339a0e6dca6273a9d14755e1ed978f066"),
    ("exact --T 4 --x 0.5 --format csv", "3953b8b6823722de311f26310d5936daa8ae33cf6639d848796b92040f7186b6"),
    ("rate --grid 5 --x 2", "2239705beb133c42b7361536e5b0c3d947b95f93fe52a2698131bfe2e83673b2"),
    ("rate --format json", "a227e7796542a2558569ada264b7b450f82b6f63cda12fe8e225d290feed7f91"),
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7 --method is",
     "0f117635fb76b03b27a0e48229dd5e0969b872553bcf29ab0199373db2e73c79"),
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7", "ea4da0030b378a6a0ee494ff02493b1cc875f2eecee49d5355b35e88ee8af133"),
    ("estimate --T 4 --x 0 --n 500 --method is", "02684f18e1dea16decd9cac064b048bcb80b40799f13bc6189602bd9df7131b9"),
    ("lln --T-list 4,8 --eps 0.5 --n 500 --seed 7", "d0530b92dfff292dc033a61021fb65e33dc1be5f4d78234277c80e8753ef205a"),
    ("lln --T-list 4,8 --eps 0.5 --n 500 --seed 7 --format json",
     "cb7f424ec4a57a43ec7d3e4d671423f16d399528dddf1551290521b5c6ec59de"),
    ("sweep --T-list 4,8 --x 0.5 --n 500 --seed 7", "b074edff6996b5c4a0f9fd16e3b77ab516d8245973433dff97428cd424e26390"),
    ("sweep --T-list 4,8 --x 0.5 --n 500 --seed 7 --format json",
     "31ac1e05ae0e03695bc0f2846adb5dc403f04cd6d3a0e93132b6a5c6ca73eefb"),
    ("paths --T 20 --x 0.5 --n 2000 --seed 7", "ee3432015f1e053c89b5ba61880035772b43a49cd4f35037000245cea86cfdaf"),
    ("paths --T 20 --x 0.5 --n 2000 --seed 7 --format json",
     "20d35af875144bfd8da1e3017f1431e3f615e2eb214206e9aaa984486273c1fd"),
    ("estimate --T 160 --x 0.5 --method is --n 10000 --seed 11",
     "13b20d322162a4cacba049b5989e47fe3d1d59758f88213490ce8ec90730dabc"),
    ("estimate --T 160 --x 2 --method is --n 10000 --seed 11",
     "af7c07306b63f310bce5c285cba036bde9d7d1a683b3b5817636e9e6bd9c1493"),
    ("paths --T 160 --x 0.5 --n 10000 --seed 11", "e5cb0d86610179916bc327f188c7e0c6e65b92e817e6a434d00b5b2d76dbbcb2"),
]


@pytest.mark.parametrize("command, sha256", CONTRACT, ids=[command for command, _ in CONTRACT])
def test_out_bytes_match_the_recorded_sha256(tmp_path, command, sha256):
    out = tmp_path / "out"
    assert main([*shlex.split(command), "--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
