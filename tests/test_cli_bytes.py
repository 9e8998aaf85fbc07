"""Byte contract: stdout and exit code of fixed CLI commands, pinned by sha256.

A change to the enumeration, the neighbour analysis or a check must leave
these bytes alone; a digest that moves means an output changed.
"""

import hashlib

import pytest

from pentaset.cli import run_cli

CASES = [
    ("verify --check all --radius-sq 0", 0,
     "f343bf3d23c19404cd3911566ffb76d03fccb9fd67f6720fb91c62c94ad3f7d5"),
    ("verify --check all --radius-sq 1", 0,
     "94da6c1ab7381ddff68ccab55f76c53f1698bf17157b2a3124d9944007c15314"),
    ("verify --check all --radius-sq 4", 0,
     "378c05f4ef620a232cb1758a217208a931d08ffaeceef0ebc3a07442b8632eb7"),
    ("verify --check all --radius-sq 25", 0,
     "4131e2e7485d410a24cbbc62bd0a92c02e67b613bb114fe312c1ee0feaa26334"),
    ("verify --check all --radius-sq 37", 0,
     "ea9eeffe50606cacb6c58391e26734ca9a20fc71b59ff8b8adf279e63b58949e"),
    ("verify --check all --radius-sq 100", 0,
     "b3c820686a2d11981e96ac7aae0ed41ceeac26006154eadb38c807ef81867ac5"),
    ("verify --check all --radius-sq 400", 0,
     "5da3f1c07109edae754b08480b755593c8ffe21ed4b1f01820c78ce9735ab146"),
    ("verify --check all --radius-sq 30 --window-sq 4", 0,
     "f136ca376ee7b5533c29e8a257983124f7188b3f575246f971600bcc0f536d1b"),
    ("verify --check separation --radius-sq 400 --window-sq 1/5", 0,
     "8118be47c5919a3ea99cae991f4849bdad20abfffdddfe360f2c7be6b7d85c40"),
    ("verify --check separation --radius-sq 60 --window-sq 1/3", 0,
     "09c69660dc93c37fb1c76c6183eaa204f7c83ae7e0974e8ceaef96a4b9b0dd09"),
    ("verify --check separation --radius-sq 20 --window-sq 49/4", 0,
     "a73a7be4448004e03664a764c4a2d8edc9af7ecad60025f4a9dd72d05626570b"),
    ("verify --check separation --radius-sq 49", 0,
     "8f686c5fa2f17d8058e3e430e01572691db7d380fc012d49c25b1b1189aa2835"),
    ("verify --check rotation --radius-sq 49", 0,
     "0a0b1103145d720ce1c7d43c17acf1e96c5489a8b0e39483610d8371df062d07"),
    ("verify --check unit-lemma --radius-sq 49", 0,
     "871c1d2418d480621acaf8ccd24cab0be1f535d55e2951ad4ebf3fe6bc30f6fe"),
    ("verify --check two-distance --radius-sq 49", 0,
     "2b75aee2e31588d55605ffec669cb6e9e86f65a41b6613439a4c4393779ac37e"),
    ("verify --check step-existence --radius-sq 49", 0,
     "3c92caf0029c1943bfeb7cfab91723ed0d6e77e0c3b02fd3653217f7565ed62d"),
    ("analyze --format jsonl --radius-sq 60 --window-sq 1", 0,
     "71e634b60ea2a439a6b821e0affed78bd5ba36d941c79ffe36caee6812a184a0"),
    ("analyze --format jsonl --radius-sq 60 --window-sq 49/4", 0,
     "7f68b8d3942b3b9f79ad48332fa2af5540df4749a6f6856b40e4192c3c3a7304"),
    ("analyze --format jsonl --radius-sq 60 --window-sq 4", 0,
     "9d01f8c11bd129233f26400d561a8eae3af171662f83e4f482ff26b396923cfd"),
    ("analyze --format jsonl --radius-sq 60 --window-sq 1/3", 0,
     "60d531ddff8cce29771a7889fca5c90595d9ca56a8d2b834b2ebf38151699275"),
    ("analyze --format jsonl --radius-sq 0", 0,
     "9e96d2669f9a3f2e6eeeb841f74963fe733139aebabf1f9d916459e7af76d1e6"),
    ("analyze --format jsonl --radius-sq 1/1000", 0,
     "5e945ae2924023038cf47d33e48c24a5afdce5bcfa0fa2def70a1faa950e8da4"),
    ("analyze --format csv --radius-sq 60 --window-sq 1", 0,
     "8a0b88444ec1d723b1952fcf4c38527a09e579bf8c953ba371d5ac7473ea1fd6"),
    ("analyze --format csv --radius-sq 60 --window-sq 49/4", 0,
     "f6b369f84e5c0d70211ab86e7ba58ebfbfe5fec7a91066d47026ea5d64a77eaa"),
    ("analyze --format csv --radius-sq 60 --window-sq 4", 0,
     "eb86f7d16d17e52a8625caf0a0be065c04077b056b36ce6f74a9215d5aecffe7"),
    ("analyze --format csv --radius-sq 60 --window-sq 1/3", 0,
     "eca49d7470f5ba1887927ee9b725833820a27c3e2754b7ef0a886fb06f91b7a8"),
    ("analyze --format csv --radius-sq 0", 0,
     "9aaf11805a1e17aebb6b2f25bd8f8dd36cf7213ecaa28ce6e911f5b25896a8a8"),
    ("analyze --format csv --radius-sq 1/1000", 0,
     "bab489909be1bd102104e50dfada1c4e5d09c0a9978d3d4b07777417e9e668f5"),
    ("stats --radius-sq 60 --window-sq 1", 0,
     "7866a8509afeb9a864946e3cf332d31bb0077204e7309741f9a79e6d8d0b539c"),
    ("stats --radius-sq 60 --window-sq 49/4", 0,
     "b60b2641b25d584a5a8d1e157b1f13760d3c16d99d729679248801a951f3d602"),
    ("render --radius-sq 37 --highlight-roots --color-classes", 0,
     "5cefd228c2b24a270eb1166b44886a117e110f985f9368f5fdc86cdecd6be428"),
]


@pytest.mark.parametrize("argv, code, digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_bytes(capsys, argv, code, digest):
    assert run_cli(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
