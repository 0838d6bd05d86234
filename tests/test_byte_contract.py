"""The byte contract: each README-scale command writes the same ``--out`` bytes as before.

Every command below runs at the default parameters (lambda = mu = alpha = 1)
through ``cli.main`` with ``--out``, at the default of one worker for the
commands that take ``--workers``; the table holds the sha256 of each output
file.  Worker invariance is tested in ``test_cli.py``, so one worker count is
enough here.

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
    ("rate --grid 5 --x 2", "d137860f871d6bfbbdbaa37dfcf54ecb43833b5d85a1eda501dcaac4a906b5a9"),
    ("rate --format json", "30aa76fb701fd51e8012301c5b9f5fd3c6de8ffb59c28cb42d7bc1d4ad862a11"),
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7 --method is",
     "03d6ef72c1b8c51817e23bc27143d348e757206d64581341e3872ebe05b02091"),
    # the CSV row carries the ess_warning bool
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7 --method is --format csv",
     "b9a0e04b58ae4ccd584b0443c5e38e0e3ef919ef2dbb36cb89d1168d8c46c6e5"),
    ("estimate --T 4 --x 0.5 --n 2000 --seed 7", "9cbc12b1c0688704a744d31f9a93bc4e367b2cb05c351dae3ed7e5820d79460a"),
    ("estimate --T 4 --x 0 --n 500 --method is", "dcdacdf62ddcee45363e3bdb4a793b30ec01e7b4a4969de5c74cb23c75b9fea2"),
    ("lln --T-list 4,8 --eps 0.5 --n 500 --seed 7", "5c379997450d392a1eef22db59e732d647c9a4c5e5334925067d0fc5862cbce2"),
    ("lln --T-list 4,8 --eps 0.5 --n 500 --seed 7 --format json",
     "23dde8fac65b749bf15c8a2cdb381545a819a13ba5197efdbf76bc1ae4d35b2c"),
    ("sweep --T-list 4,8 --x 0.5 --n 500 --seed 7", "0ba505ff86564edad898a20fd942ff558850d15083ea9125f03a1c4208ac0ab5"),
    ("sweep --T-list 4,8 --x 0.5 --n 500 --seed 7 --format json",
     "cef564c8aaaf0a5157cea6f98e473a670093f426ca91b35a227051d5ca0d3674"),
    ("paths --T 20 --x 0.5 --n 2000 --seed 7", "5c8885ad7dc73b7f74d0c993f0ac5d85a7ca2f7d9cb8741e568933e890ea01fe"),
    ("paths --T 20 --x 0.5 --n 2000 --seed 7 --format json",
     "080482fb9f42c88228f6809b9b4f22919dbbbde9229293e944e20fa5f52960b5"),
    ("estimate --T 160 --x 0.5 --method is --n 10000 --seed 11",
     "cedb1ea907203986383e33d849665a3bcc39a5c61859fd4de735b5735d71e6b9"),
    ("estimate --T 160 --x 2 --method is --n 10000 --seed 11",
     "2850b259c2bc2acecfc767942db068418d8305b87a9bceae9cc7380295c74c3a"),
    ("paths --T 160 --x 0.5 --n 10000 --seed 11", "6fbba812e96b9343188604ec3c7b1d5e171349535952c7bc2e0c8ce61691fc8a"),
    ("paths --T 40 --x 2 --n 2000 --seed 7", "3a777ddbe713ae042983fa4014673dad3d30d45ede3a4b6f864584fa51826183"),
    # one catastrophe per 20 births: a sparse one-segment block whose times are drawn when read
    ("simulate --T 160 --method decomposed --lambda 20 --seed 5",
     "b129f5ce7b324a600e1d52532b899eb929f8db6700c9ddb4424f9becc6f67a18"),
    # a tilt with a plain early segment at one catastrophe per 20 births: a merged two-segment block
    ("estimate --T 40 --x 0.5 --method is --lambda 20 --n 2000 --seed 7",
     "39b88bd09f5a0d71e8dfef4fb35250a46113ba93d666d0967e030e741596f5c2"),
]


@pytest.mark.parametrize("command, sha256", CONTRACT, ids=[command for command, _ in CONTRACT])
def test_out_bytes_match_the_recorded_sha256(tmp_path, command, sha256):
    out = tmp_path / "out"
    assert main([*shlex.split(command), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
