"""Pinned outputs: the sha256 of `verify`'s exit code and stdout, and of the
`sweep` CSV, for one exhaustive-mode (n = 8) and one sampled-mode (n = 10)
corpus instance of each kind, and for 13-item instances, just past the
exhaustive limit of the curvature lemma.  A change that moves any printed
digit or verdict fails here; a deliberate one updates the digests and says
why."""

import hashlib
from itertools import combinations

import pytest

from helpers import corpus_specs
from subknap.cli import main
from subknap.core import Instance, TableOracle, save_instance
from subknap.generate import GeneratorSpec, generate_instance

# (kind, corpus seed) -> (verify digest, sweep CSV digest)
PINNED = {
    ("modular", 4): ("8e491de5dd177cdf6304a143340bcd4e80496d2117b1ddcccab5ef9c6312e165",
                     "ececd684a7c88d7eaec99c14c6285fb4804c4c11bcee13c3051211246a6f0336"),
    ("modular", 6): ("91b239a993e63455cb70e38b76ded5936a1676248e0eb06609c24d3e20893f98",
                     "53a8c4abeb7c244b72a160a8454aad0eb737e421bf84c82bfe1c0747ab3d88dc"),
    ("coverage", 4): ("3bc874a054f6d9096c62349d4751f921b5af849eed0433c1ed5097c37f69f05a",
                      "6551c57e7362bfc1b5293a3611fc2fe2fdc54fa100bf3545c7d63c712256592c"),
    ("coverage", 6): ("35b4eab2bb4aa57a8627a1c80ea0f9f097827be4320cfd85c6018cd5e44887aa",
                      "6c8640d0638e0e341e80db227b4ecea325107828c25f59e9c1309d2bd82d5ec1"),
    ("concave_modular", 4): (
        "cdd09a490f2079e51ba36a3e581a57e3eacf60a9d4604e4d292e59412ba3bd4b",
        "2bc270c6bc5e63ed9eb0ab86a5a3cf61e71ba1c4fe1bf77d1236a93163b987b2"),
    ("concave_modular", 6): (
        "a398f98dc41fb8f4378739164f2f0d0ecc82fbab7b931a603798c1621cfc8638",
        "bd5e74d3fa9ece8503b945a27059e0e2b263b78e6148448210e382fc7d429398"),
    ("planted", 4): ("facdc05d8b427b1910a19b9cbc2c3e4c628fec465485eec7951e33e116510766",
                     "80ad5e0bda85565bc9f5a5fc1b526fc11291f69652690d602de1e3b461794e19"),
    ("planted", 6): ("8bfd3fe3f8ea1147a4a271c03a1f98ceaee59bc6def6ddb20d79c9dee140a05e",
                     "b9445a4b4b302189abb47be980e9a1aefa0d5a76829ecb00b54c70a5513e9154"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind, seed", sorted(PINNED))
def test_verify_and_sweep_outputs_pinned(kind, seed, tmp_path, capsys):
    spec = next(s for s in corpus_specs() if (s.kind, s.seed) == (kind, seed))
    path = tmp_path / "instance.json"
    save_instance(generate_instance(spec), path, header=spec.header())
    code = main(["verify", "-i", str(path)])
    verify = _sha(f"exit={code}\n{capsys.readouterr().out}".encode())
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "-i", str(path), "-o", str(csv)]) == 0
    assert (verify, _sha(csv.read_bytes())) == PINNED[(kind, seed)]


def _valid_table13() -> Instance:
    """Generated coverage n=13 seed 1 written out as a table of all 8192
    subset values: valid, so validation judges it exhaustively."""
    base = generate_instance(GeneratorSpec("coverage", n=13, seed=1))
    ids = sorted(base.oracle.domain)
    values = {",".join(s): base.value(s) for r in range(14) for s in combinations(ids, r)}
    return Instance(base.items, TableOracle(values))


# 13 items: every kind is validated exhaustively from the subset table, which
# the sampled curvature lemma and the optimum read too.  The verify digests
# of the three generated kinds changed once, when validation above 12 items
# stopped sampling: their one differing line was "PASS validate_oracle
# (mode=sampled)", now "(mode=exhaustive)"; the sweep digests did not move
PINNED_13 = {
    "modular": ("5b7a4dbc86d5879a6038e577e0a7d819e87a3ee84161878ab22ff18d4d6534c4",
                "0614493dcca25eae6b088751ac186ab39c50c414c612e2ae2543f444ca062f31"),
    "coverage": ("c32e8831acd6ed9bbee5468aaebb4a811ac322faf8c7d464c90b5827c021df1a",
                 "1518ac471518aaf0f809640ff327fde0bd2d5326f5efce01942864352689081a"),
    "concave_modular": (
        "5b9a4b52c26314658d531ef1bf2944910ab680d074528ca110eeaef04773b52e",
        "6eb4a709017f58a6d34073b48cc5ce221ece9626ec84d69b8b18d88bbe3881b2"),
    "table": ("272325af67c2391fbe475fefb9f39718b007ba74beeb0d99252295bb92993751",
              "6526fb4859ced5be58cc4a66c65bd9380f98ae6f4300667082655a70af77d81e"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_13))
def test_thirteen_item_outputs_pinned(kind, tmp_path, capsys):
    path = tmp_path / "instance.json"
    if kind == "table":
        save_instance(_valid_table13(), path)
    else:
        spec = GeneratorSpec(kind, n=13, seed=0)
        save_instance(generate_instance(spec), path, header=spec.header())
    code = main(["verify", "-i", str(path)])
    verify = _sha(f"exit={code}\n{capsys.readouterr().out}".encode())
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "-i", str(path), "-o", str(csv)]) == 0
    assert (verify, _sha(csv.read_bytes())) == PINNED_13[kind]
