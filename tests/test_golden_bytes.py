"""Golden bytes: the sha256 of every file a fixed synth -> calibrate -> evaluate/monitor run writes.

The C8 acceptance test compares two runs of the same code, so it cannot see an
output that changes for every run alike: a random draw that moves in
``synth.generate``, or a change to the output JSON format. The benchmark's
synthetic corpora come from ``partmon synth`` of the code under test, so such a
change would also silently change the benchmark's workload. These digests pin
the bytes instead. Every command runs from one working directory with relative
paths, so the manifests are comparable across machines.

The manifests record the package version, so a version bump changes their
digests too. When an output is meant to change, take the new digests from
``produce()`` and say why in the commit.
"""

import hashlib
from pathlib import Path

from click.testing import CliRunner

from partmon.cli import cli

runner = CliRunner()

CORPUS_FILES = ("gt.json", "persons.json", "parts.json", "category_map.json", "labels.json",
                "corpus.manifest.json")

# The benchmark's greedy shape, and a config where most persons carry a ghost part.
SYNTH_ARGS = {
    "greedy": ["--seed", "1001", "--n-scenes", "60", "--jitter", "2",
               "--persons-per-scene", "3:3", "--parts-per-person", "3:4"],
    "ghost": ["--seed", "1001", "--n-scenes", "60", "--persons-per-scene", "0:6",
              "--parts-per-person", "0:8", "--ghost-part-prob", "0.9", "--jitter", "8"],
}

GOLDEN = {
    "greedy/gt.json": "e35f95e490076500cf478ee098b26bef75b02929079c6e5f743ee230b2e7b648",
    "greedy/persons.json": "7b440a7d0fe887f5e48377b1afd0049402855e3c67c209935a0d1a81cda56a28",
    "greedy/parts.json": "09aa6884cdf020f254650fb988c9739a5445a4d747a4cebbaaa044c49eea01ce",
    "greedy/category_map.json": "460a0aa8abefa2abc309544426f1277f81e0d4a3e5d818f13a1dd31548067d3c",
    "greedy/labels.json": "4ab127c1a9719ad42dc42bb30cb5b7a2d1272bd4e6339f49c56ac306649ea49d",
    "greedy/corpus.manifest.json": "7764d328a137ca0937eb655aa6650a821102dd1e1775410fa645b4d153c22723",
    "ghost/gt.json": "3030bd1b65efe6866ed8a2138ca6924eb7a2c2cd60717d039690c93e6b63bac2",
    "ghost/persons.json": "01ac01f26b2eb9231e70ccf6d25f9db3c3901cc90a5b175b6c803b96872c5ae6",
    "ghost/parts.json": "60861a9769100add7afe5eeba16a87764e8c87c58a3f71eea59c42452105f081",
    "ghost/category_map.json": "460a0aa8abefa2abc309544426f1277f81e0d4a3e5d818f13a1dd31548067d3c",
    "ghost/labels.json": "18822d4391138ffce7e67bfe3232702d6b827c44cb2bcfb9b2091d87e963cab1",
    "ghost/corpus.manifest.json": "f6f1f925c1578d8e42b68896c716b388498190814e683e58dec8bf96d04a0e6c",
    "op_existential.json": "9006401434d2ee66a34703de010a67ed125e51d58acd46b2adfba21938235f13",
    "op_existential.json.manifest.json": "dee07bec05022c82ce686dec4e537e05c7e2d4f8df7e8ee9da92e6cc086ab7fc",
    "per-image_existential.json": "f9466c60341cf788d4de27bd96279be378550211ac68b8ecd70d6413aedbcd46",
    "per-image_existential.json.manifest.json": "cd5a89458ea28235a03a3290a9403a90a63fea6bc04397496dc8ebfb69e90659",
    "per-image_existential.csv": "734fff8afb5492710e1d14f5d34fe6ad45ff93a9c23b9917d663e4b8aebfb671",
    "per-image_existential.csv.manifest.json": "95003da50436f491fba9cb9fe4378d06ec6abca48069861871ecc3710be92618",
    "per-object_existential.json": "8c5e3cd05d71e664bf377277cca21c344f8f6ec6ca5f80cca5fd589559d3edb7",
    "per-object_existential.json.manifest.json": "d4db1d03f2d0427650ddc1202b4fa55cf0bbe5c62be99254c54eab8864664d21",
    "per-object_existential.csv": "c3c4b180d8743b0ed3e4a70c9645a2bc9e3ca2258e995e85d667ae2b7b76289d",
    "per-object_existential.csv.manifest.json": "744d922f3f156117052d37547a373d2052a918889b5c88c078cd134d05948544",
    "monitor-image_existential.jsonl": "560e4446ea5995aea7ad6c0e0f9421813f02bd28fb33b22344faeb1d9d25a6f9",
    "monitor-image_existential.jsonl.manifest.json": "a26ddfcca993d2955a5c69d64f3b8f1e3008cba4bd7daff670289be1191f8fcc",
    "monitor-object_existential.jsonl": "db6705cb03ccd681be1eb3a2adfa1023abc8d55b4822e63081c90a03e5d52be9",
    "monitor-object_existential.jsonl.manifest.json": "29208b34ee9ffa19b363fbe6cbe24db40d072283b01fb88f85d067d33e906273",
    "op_greedy.json": "9006401434d2ee66a34703de010a67ed125e51d58acd46b2adfba21938235f13",
    "op_greedy.json.manifest.json": "d74084d7d742c4b17de294a7efd336b539b323b3ecb9d39fd504de5f049a6bcc",
    "per-image_greedy.json": "070d5f6dbd6117ca9c694412174f4dc88fd2f06ba5cdff6d974d9557adbc2d1b",
    "per-image_greedy.json.manifest.json": "071eca62d43616ba4377c10ad2027821bfa5953f3aa08fcb0b8d9e2a95d6fbda",
    "per-image_greedy.csv": "734fff8afb5492710e1d14f5d34fe6ad45ff93a9c23b9917d663e4b8aebfb671",
    "per-image_greedy.csv.manifest.json": "7ff45a558f025c22e98537f21a9b2648cc87ab332239f32678e61b32d79b52be",
    "per-object_greedy.json": "63ef5f7cf75fdf1efc3a0d2fab857867f56c6a39800b0af37ff170c84b8a4907",
    "per-object_greedy.json.manifest.json": "bf4d70f403a3b3ff89a675a31d59cae390a059b20ae2ab8765ce4234ab5a063d",
    "per-object_greedy.csv": "c3c4b180d8743b0ed3e4a70c9645a2bc9e3ca2258e995e85d667ae2b7b76289d",
    "per-object_greedy.csv.manifest.json": "c0b423bddd632638f464324c10eb152b6bfa73d6b32922aab2dc13be8e4d9c38",
    "monitor-image_greedy.jsonl": "560e4446ea5995aea7ad6c0e0f9421813f02bd28fb33b22344faeb1d9d25a6f9",
    "monitor-image_greedy.jsonl.manifest.json": "3a71dde5c2bf7b227135698f7a59990d5a6422043b9d160c7b72ba811325090a",
    "monitor-object_greedy.jsonl": "db6705cb03ccd681be1eb3a2adfa1023abc8d55b4822e63081c90a03e5d52be9",
    "monitor-object_greedy.jsonl.manifest.json": "f4e3a5c71b85232710367a2a3d53d6e33dc54aa584ae7d9846897821820a345b",
}


def run(*args):
    result = runner.invoke(cli, list(args))
    assert result.exit_code == 0, result.output


def produce() -> dict[str, str]:
    """Write every pinned file under the working directory; return their digests by relative path."""
    names = []
    for corpus, args in SYNTH_ARGS.items():
        run("synth", *args, "--out", corpus)
        names += [f"{corpus}/{name}" for name in CORPUS_FILES]
    inputs = ["--gt", "greedy/gt.json", "--persons", "greedy/persons.json",
              "--parts", "greedy/parts.json", "--category-map", "greedy/category_map.json"]
    for matching in ("existential", "greedy"):
        op = f"op_{matching}.json"
        run("calibrate", *inputs, "--matching", matching, "--out", op)
        names += [op, op + ".manifest.json"]
        for protocol in ("per-image", "per-object"):
            for fmt in ("json", "csv"):
                out = f"{protocol}_{matching}.{fmt}"
                run("evaluate", *inputs, "--matching", matching, "--operating-point", op,
                    "--protocol", protocol, "--format", fmt, "--out", out)
                names += [out, out + ".manifest.json"]
        for mode in ("image", "object"):
            out = f"monitor-{mode}_{matching}.jsonl"
            run("monitor", *inputs[2:], "--operating-point", op, "--mode", mode, "--out", out)
            names += [out, out + ".manifest.json"]
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert produce() == GOLDEN
