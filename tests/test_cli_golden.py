"""Byte-level guard on CLI documents.

Each case is an argv, its exit code and the SHA-256 of its stdout.  The
digests were recorded before the fixed-point route was refactored, so a
change to any document — payload, verdict, or the failure details of a
fault-injected run — fails here.  Every series kind and suite is
covered, with cheap n = 3 inputs.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgr.cli import run

GOLDEN = [
    (["series", "--kind", "dot-closed", "--n", "3", "--a", "1", "--qdeg", "2"], 0,
     "c1a602aeb8a021efbf842b101353646b07d02e4d6d654f58a599d97f22ce52ec"),
    (["series", "--kind", "ddot-closed", "--n", "3", "--a", "2", "--qdeg", "2"], 0,
     "a1b66579d89d96a638131b91be3420997447936b3e78d780058e6e9b3adf3505"),
    (["series", "--kind", "dot-bar", "--n", "3", "--a", "1", "--qdeg", "2", "--alpha", "generic"], 0,
     "6d21a0109a0e102141de55c5c1d07042ab0c0406a5f8fad53430f539cb95bf56"),
    (["series", "--kind", "ddot-bar", "--n", "3", "--a", "", "--qdeg", "2"], 0,
     "d2997f06bc74d74ed6a1ec0bf2e9fea6e7bb604fd0d2b9a899ee5c9a146f8be2"),
    (["series", "--kind", "dot-dual", "--n", "3", "--a", "3", "--qdeg", "2"], 0,
     "258cb36186c6ece0d251fd1eea88cfb81526a338209a13766acac772834c8e94"),
    (["series", "--kind", "ddot-dual", "--n", "3", "--a", "1", "--qdeg", "2"], 0,
     "bdca81b824e47a4dd7454aa04bc5451e3fc3da1d6e8084ef85f970f50cda3469"),
    (["series", "--kind", "i-normalization", "--n", "3", "--a", "1,1,1", "--qdeg", "2"], 0,
     "079d1f281c3bf3d7923c4033e0a42e245cdab4d94fe0ee324d5dc5eae34c9815"),
    (["series", "--kind", "z-normalized", "--n", "3", "--a", "3", "--qdeg", "2"], 0,
     "459c1c39c43a75a06d1d769acf32fe93b5c473c7a29f5d6584c1296dd9d2c1d9"),
    (["series", "--kind", "zdd-normalized", "--n", "3", "--a", "1", "--qdeg", "2"], 0,
     "523d544e2a4a5a0e29b83f12bcd13e1ac37a96d9efff77cd69bc3a15bcdfff7d"),
    (["series", "--kind", "y-gamma", "--n", "3", "--a", "", "--k", "1", "--j", "0", "--qdeg", "1"], 0,
     "559177eca692b37eb72e2d68c65a9baa3318e17f407a05a545eebde23caa488a"),
    (["series", "--kind", "ydd-gamma", "--n", "3", "--a", "1", "--k", "2", "--j", "0", "--qdeg", "1"], 0,
     "f2aff7de0c5e679ecacac4e698c631f4578570a956a7b48ec1f10430acfef99c"),
    (["verify", "--suite", "recursivity", "--n", "3", "--a", "1", "--qdeg", "2"], 0,
     "18f123ba73076e4b9072bf4bdf0eb72852ceb331a1164e348d998f8d1567e3a9"),
    (["verify", "--suite", "mpc", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "1"], 0,
     "d992a163d289cf2090098ef0485e690699568d5ad82aae815d964612b0435d6b"),
    (["verify", "--suite", "operator-norms", "--n", "3", "--a", "", "--qdeg", "1"], 0,
     "ec9f9fa3d0ba14b37d662202f6164187513d309039e485721cc7f5ae3e3b0b50"),
    (["verify", "--suite", "fano-vanishing", "--n", "3", "--a", "1", "--qdeg", "2"], 0,
     "2af7188d8e13f2a35f413de7145e32a9c4e36a019cd0f5b550679addd000c67e"),
    (["verify", "--suite", "orthogonality", "--n", "3", "--a", "1", "--qdeg", "1"], 0,
     "5ac254c99e374a2cfe7d47f2958ded8931cc6bbf50255fc1dc6c76e5d960d877"),
    (["verify", "--suite", "residue-internal", "--n", "3", "--a", "", "--qdeg", "1", "--zdeg", "1"], 0,
     "b26595b1865617c794b90e63291e320973cb5108401627b1407a6e4850f8bf0b"),
    (["verify", "--suite", "all", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "1"], 0,
     "84943ce395e6d9c614abb86228d73c80ecafbcb2e0e9a136ef6ca0ca9ee6b443"),
    (["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "2", "--mutate", "1:1"], 1,
     "f9170e346c7566388fbe7867ebabd6f4636e5dc02675962aa95a8d8a51e3a0e3"),
    (["verify", "--suite", "mpc", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "1", "--mutate", "1:0"], 1,
     "dcf23950d1376974a595a19ec56bd0c067d01b356e7a7f7ee0c1d85f6391070e"),
    (["verify", "--suite", "mpc", "--n", "3", "--a", "", "--qdeg", "3", "--zdeg", "3", "--mutate", "1:1",
      "--alpha", "1,6,37"], 1,
     "7d6e4c43eac5ec298fc984d57c791b51328d8924e7dea5194832f8659972f4c4"),
    (["verify", "--suite", "mpc", "--n", "4", "--a", "2", "--qdeg", "2", "--zdeg", "2", "--alpha", "2,19,29,31"], 0,
     "007f258cca8bffd7474e899c7b79264eede36245ed354934380945e4b899fca7"),
    (["verify", "--suite", "all", "--n", "3", "--a", "", "--qdeg", "1", "--zdeg", "1", "--mutate", "1:1"], 1,
     "119c3e43968ecd1c6d7f4f3f42a9443e15f3aa57234f92884504017a2dbb8d4d"),
    (["cohomology", "--n", "3", "--equivariant", "--alpha", "7,49,343"], 0,
     "aa4404080302187aea1fa42770b51551536de35808a2f5af4e44e59d269e718f"),
    (["cohomology", "--n", "4"], 0,
     "13236d3eb487d53cc938ebc14c4fb29b50a25e61ecfd3c0e82ee017c4cf3e830"),
    (["double-j", "--n", "3", "--a", "", "--qdeg", "1"], 0,
     "966a00a92d0a0c10e2c56857357b33bf43407bfa9b6ff772c9cb2facd6b0ccc4"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_document_digest(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = run(argv)
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_module_entry_point():
    # `python -m qgr` runs `__main__` and `cli.main`, which the in-process
    # cases above never reach: a document and its exit status, and a usage
    # error (exit 2, nothing on stdout)
    argv = ["cohomology", "--n", "4"]
    code, digest = next((c, d) for a, c, d in GOLDEN if a == argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def qgr(*args):
        return subprocess.run([sys.executable, "-m", "qgr", *args], env=env, capture_output=True, timeout=120)

    done = qgr(*argv)
    assert done.returncode == code
    assert hashlib.sha256(done.stdout).hexdigest() == digest
    bad = qgr("series", "--kind", "dot-closed", "--n", "2")
    assert bad.returncode == 2 and bad.stdout == b"" and b"error: " in bad.stderr
