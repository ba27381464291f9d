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
import json
from pathlib import Path

from click.testing import CliRunner

from partmon.cli import cli
from partmon.datamodel import json_text

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


def pipeline(corpus, prefix, *calibrate_flags, formats=("json", "csv"), modes=("image", "object")) -> list[str]:
    """Under each matching: calibrate the corpus, evaluate in both protocols and each format, and monitor in each
    mode. Return the names of the written files, each with ``prefix``."""
    inputs = ["--gt", f"{corpus}/gt.json", "--persons", f"{corpus}/persons.json",
              "--parts", f"{corpus}/parts.json", "--category-map", f"{corpus}/category_map.json"]
    names = []
    for matching in ("existential", "greedy"):
        op = f"{prefix}op_{matching}.json"
        run("calibrate", *inputs, "--matching", matching, *calibrate_flags, "--out", op)
        names += [op, op + ".manifest.json"]
        for protocol in ("per-image", "per-object"):
            for fmt in formats:
                out = f"{prefix}{protocol}_{matching}.{fmt}"
                run("evaluate", *inputs, "--matching", matching, "--operating-point", op,
                    "--protocol", protocol, "--format", fmt, "--out", out)
                names += [out, out + ".manifest.json"]
        for mode in modes:
            out = f"{prefix}monitor-{mode}_{matching}.jsonl"
            run("monitor", *inputs[2:], "--operating-point", op, "--mode", mode, "--out", out)
            names += [out, out + ".manifest.json"]
    return names


def digests(names) -> dict[str, str]:
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names}


def produce() -> dict[str, str]:
    """Write every pinned file under the working directory; return their digests by relative path."""
    names = []
    for corpus, args in SYNTH_ARGS.items():
        run("synth", *args, "--out", corpus)
        names += [f"{corpus}/{name}" for name in CORPUS_FILES]
    return digests(names + pipeline("greedy", ""))


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert produce() == GOLDEN


# A corpus on which the confidence rule changes what evaluate and monitor keep:
# applying a strict operating point non-strictly changes every report below.
STRICT_SYNTH_ARGS = ["--seed", "7", "--n-scenes", "60", "--jitter", "2", "--ghost-person-prob", "0.3"]

# Taken when the rule was not yet recorded in the operating point, with
# --strict-conf passed to calibrate, evaluate and monitor alike.
STRICT_GOLDEN = {
    "strict-op_existential.json": "28b85b1195508b6cca9b644c2241b11b1db0bfccf0bff6ccc25221fd9f4ef6e3",
    "strict-op_existential.json.manifest.json": "5c1e25447c38b3497ddf628f10dbc38ad85f86e82fecb64d4577e95e775debe6",
    "strict-per-image_existential.json": "59f84dd4f65bfbc658b7063057d3f39cd3698e656d4bd3e12a7879fc8717a6b5",
    "strict-per-image_existential.json.manifest.json": "af2c45f749655de61791d19f7c3050a4cabe671ea301252deb5f663cf470dd1e",
    "strict-per-image_existential.csv": "a444e738c46aaae5bb43a4c6cf90d8f175ea3fdd859adbde679a06598796d016",
    "strict-per-image_existential.csv.manifest.json": "0af039a415f2a4b311b88007de9ea13cd6d03e7e403a60311d11dc48fe43c0fc",
    "strict-per-object_existential.json": "924e86b2cc1bc43e28fd574334689fcc5419209fd3a0d35c1d7f4e03e49b5667",
    "strict-per-object_existential.json.manifest.json": "b2e914ffa48e3f11f7afd928b965e33f0611fcb471b21f8479ff3878442193e6",
    "strict-per-object_existential.csv": "4e01a44608a24c550adf567eeb27f03eb081c317e9d0bb39b5bb83af14161b7f",
    "strict-per-object_existential.csv.manifest.json": "5323355651065850a4760d527ab7fe7e8982369988fd7ae132215a883bb6809f",
    "strict-monitor-image_existential.jsonl": "2572761b5316069382e0a2bde1dffc93d869ebb857c93eb772b34f34ccacf19f",
    "strict-monitor-image_existential.jsonl.manifest.json": "4a3a6a3d3f4b0b4509508d10494cbcf57d845b787168f35b5e5bdda62d2690de",
    "strict-monitor-object_existential.jsonl": "c54b1f30c6d1958d8d57f656c03f2e821009dc6a35e8c8792abdedea596baf00",
    "strict-monitor-object_existential.jsonl.manifest.json": "fe8b734650cff504005d5a97893f214981670509fb38c4dadc152983e610565b",
    "strict-op_greedy.json": "28b85b1195508b6cca9b644c2241b11b1db0bfccf0bff6ccc25221fd9f4ef6e3",
    "strict-op_greedy.json.manifest.json": "72d491f1e647b4e7137840a56193ab21401e109b84b0e1e89f54fac16b571281",
    "strict-per-image_greedy.json": "07470ba8e4389c7e054ac9b3408a392c614ff2f2143038dcd0f68fd1fe7fac28",
    "strict-per-image_greedy.json.manifest.json": "7019f9485c180ef89c7a597903b10a22875c361a946e014e5fb906976dec4f4c",
    "strict-per-image_greedy.csv": "a444e738c46aaae5bb43a4c6cf90d8f175ea3fdd859adbde679a06598796d016",
    "strict-per-image_greedy.csv.manifest.json": "0b1e34437230b93165e5562e695e3672c96fbafc651c7131119a161aaecbb99a",
    "strict-per-object_greedy.json": "09b503deb40515294cdf9ad7d9ca3c932084db97c9172226150e565ae971d834",
    "strict-per-object_greedy.json.manifest.json": "bdb90d2a5ba93e95887043b58d2b173ace8bbc19472c936d5fbf1cd84ee21da6",
    "strict-per-object_greedy.csv": "4e01a44608a24c550adf567eeb27f03eb081c317e9d0bb39b5bb83af14161b7f",
    "strict-per-object_greedy.csv.manifest.json": "92f982aa90407705282f6d1c20050e4e1e2e653ee66743181862ef5b08f0621b",
    "strict-monitor-image_greedy.jsonl": "2572761b5316069382e0a2bde1dffc93d869ebb857c93eb772b34f34ccacf19f",
    "strict-monitor-image_greedy.jsonl.manifest.json": "3724160aac5f8d81cb54a3c313a1824cc183c64943f4ac3c0328c5c54a69cd2c",
    "strict-monitor-object_greedy.jsonl": "c54b1f30c6d1958d8d57f656c03f2e821009dc6a35e8c8792abdedea596baf00",
    "strict-monitor-object_greedy.jsonl.manifest.json": "792860a6090b822757d8ce7df891fc74d2639e389f12190351e947ee23e2ef01",
}


def _as_before_strict_conf_was_recorded(name: str) -> bytes:
    """The bytes of ``name``, less the operating point's ``"strict_conf": true``.

    Dropping the key also restores the operating-point file's hash in a manifest's inputs.
    """
    data = Path(name).read_bytes()
    if not name.endswith(".json"):
        return data
    payload = json.loads(data)
    manifest = payload.get("manifest", payload)  # a JSON report embeds its manifest
    op = manifest.get("operating_point", payload)  # an operating-point file is one
    assert op.pop("strict_conf") is True
    source = manifest.get("inputs", {}).get("operating_point")
    if source is not None:
        source["sha256"] = hashlib.sha256(_as_before_strict_conf_was_recorded(source["path"])).hexdigest()
    return json_text(payload).encode("utf-8")


def produce_strict() -> dict[str, str]:
    """Calibrate with --strict-conf, then evaluate and monitor without it; return the digests of
    every file as it would read without the recorded rule."""
    run("synth", *STRICT_SYNTH_ARGS, "--out", "strict")
    return {name: hashlib.sha256(_as_before_strict_conf_was_recorded(name)).hexdigest()
            for name in pipeline("strict", "strict-", "--strict-conf")}


def test_strict_operating_point_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert produce_strict() == STRICT_GOLDEN


# A corpus on which the two matchings differ: synth puts every person in a column of its own, so only the
# second detection, at 0.9 times the score, of every third person gives greedy matching a choice. Greedy
# matching validates one of the two, existential matching both.
DUPLICATES_SYNTH_ARGS = ["--seed", "8", "--n-scenes", "24", "--persons-per-scene", "3:3", "--jitter", "2"]

DUPLICATES_GOLDEN = {
    "duplicates-op_existential.json": "c9fc1b82b2620f82bf3cbb93570b9e93d8d8d927e7d719023c88824f76f51503",
    "duplicates-op_existential.json.manifest.json": "b92131c035c3d5635dce60a755f55ba04ae8c09c1cc9538bd3c7ce74c46837ff",
    "duplicates-per-image_existential.json": "9eeab01cd1f56ca23b8bc84614f9202bb68347932f2cb1cc37b6d545daeebdc8",
    "duplicates-per-image_existential.json.manifest.json": "2edf14ea1809272e4c2685fa5e3393d8fba32d30ac5b44022bc5b5d6f3e65838",
    "duplicates-per-object_existential.json": "151fa3f3ca789ca16a1423e5759f7fe77b47da844c0efd7f453bdb44e0f1f5f7",
    "duplicates-per-object_existential.json.manifest.json": "875c1f694bc04c69dbc444a98f700af7f62becba2aa7ea22d799fabfb277cf59",
    "duplicates-op_greedy.json": "00f14af7b04e256de67a87c8954583e934e6d066cde0ec263b72ade577673c15",
    "duplicates-op_greedy.json.manifest.json": "3ac1c7ca1cbcf62cf39e6d452530e9ba02568e0f5985c700ba8e91806f38fb85",
    "duplicates-per-image_greedy.json": "7b329c14e28b7f824539fcebc656aa1a42a9a3edca27ae3c192f4220d962ca2e",
    "duplicates-per-image_greedy.json.manifest.json": "cada76ccd2839ac98a3b72b63a184ed7dcf206ecb8a5962ed7cceaca7ce7b74d",
    "duplicates-per-object_greedy.json": "39cb15e9add5b2746b276f455fb1d9f7739bc58266b892459e9abbdfc5d01517",
    "duplicates-per-object_greedy.json.manifest.json": "9807512fc6949015e7b1ebf49e131e8d28d45c6f1043182896a1a1db7464d1a7",
}


def produce_duplicates() -> dict[str, str]:
    run("synth", *DUPLICATES_SYNTH_ARGS, "--out", "duplicates")
    persons = json.loads(Path("duplicates/persons.json").read_text(encoding="utf-8"))
    persons += [dict(d, score=d["score"] * 0.9) for d in persons[::3]]
    Path("duplicates/persons.json").write_text(json.dumps(persons), encoding="utf-8")
    return digests(pipeline("duplicates", "duplicates-", formats=("json",), modes=()))


def test_outputs_on_duplicated_persons_match_golden_digests_and_tell_the_matchings_apart(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = produce_duplicates()
    assert got == DUPLICATES_GOLDEN
    for name in ("op", "per-image", "per-object"):
        assert got[f"duplicates-{name}_existential.json"] != got[f"duplicates-{name}_greedy.json"], name
