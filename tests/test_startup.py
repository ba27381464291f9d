"""Each command imports only the layers it runs: every command is a process of its own, so an
import it never uses is start-up time paid on every run. And only ``cli`` writes to the file system."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from partmon.cli import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the command given as arguments, if any, then prints the modules it has loaded.
PROBE = """
import sys
from partmon.cli import cli
if sys.argv[1:]:
    cli.main(args=sys.argv[1:], standalone_mode=False)
print(" ".join(sys.modules))
"""

# The offline layers, and hashlib, which only a command that writes a manifest needs.
OFFLINE = ("partmon.calibration", "partmon.evaluation", "partmon.synth", "partmon.oracle", "hashlib")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    corpus = root / "corpus"
    runner = CliRunner()
    data = [f"--{name}={corpus / name.replace('-', '_')}.json" for name in ("gt", "persons", "parts", "category-map")]
    for args in (["synth", "--seed", "3", "--n-scenes", "8", "--out", str(corpus)],
                 ["calibrate", *data, "--out", str(root / "op.json")]):
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
    return root, data


def loaded_modules(cwd, args) -> set[str]:
    result = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=cwd, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("command, needed, unused", [
    ([], (), OFFLINE),
    (["validate", "{data}"], (), OFFLINE),
    (["validate", "{op}"], ("partmon.calibration",),
     ("partmon.evaluation", "partmon.synth", "partmon.oracle", "hashlib")),
    (["calibrate", "{data}", "--out", "op2.json"], ("partmon.calibration",), ("partmon.evaluation", "partmon.synth")),
    (["monitor", "{data}", "{op}", "--out", "verdicts.jsonl"], ("partmon.calibration",),
     ("partmon.evaluation", "partmon.synth")),
    (["evaluate", "{data}", "{op}", "--out", "report.json"], ("partmon.calibration", "partmon.evaluation"),
     ("partmon.synth", "csv")),
    (["synth", "--n-scenes", "2", "--out", "small"], ("partmon.synth",), ("partmon.calibration", "partmon.evaluation")),
], ids=["import", "validate", "validate-operating-point", "calibrate", "monitor", "evaluate", "synth"])
def test_command_imports_only_its_layers(inputs, command, needed, unused):
    root, data = inputs
    fill = {"{data}": data, "{op}": ["--operating-point", str(root / "op.json")]}
    args = [arg for item in command for arg in fill.get(item, [item])]
    modules = loaded_modules(root, args)
    assert "partmon.cli" in modules
    assert set(needed) <= modules
    assert not modules & set(unused), sorted(modules & set(unused))


# Calls that write to the file system, besides open() with a writing mode and the package's own write_text().
_WRITING_METHODS = {"mkdir", "makedirs", "write_text", "write_bytes", "touch", "unlink", "rmdir"}
_WRITING_OS_CALLS = {"replace", "rename", "remove"}


def _writes(call: ast.Call) -> bool:
    fn = call.func
    if isinstance(fn, ast.Name):
        if fn.id != "open":
            return fn.id == "write_text"
        mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
        # a mode that is not a literal counts as writing: the scan cannot tell
        return mode is not None and not (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value))
    if isinstance(fn, ast.Attribute):
        is_os = isinstance(fn.value, ast.Name) and fn.value.id == "os"
        return fn.attr in _WRITING_METHODS or is_os and fn.attr in _WRITING_OS_CALLS
    return False


def test_only_the_cli_module_writes_files():
    # The boundary in cli.py writes every output; a module that writes on its own would bypass its checks.
    found = [f"{path.name}:{node.lineno}" for path in sorted((SRC / "partmon").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and _writes(node)]
    assert {site.split(":")[0] for site in found} == {"cli.py"}, found


def run_module(cwd, *args) -> subprocess.CompletedProcess:
    """``python -m partmon.cli``, the entry point that the benchmark runs every command through."""
    return subprocess.run([sys.executable, "-m", "partmon.cli", *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def test_module_entry_prints_version(tmp_path):
    result = run_module(tmp_path, "--version")
    assert (result.returncode, result.stdout, result.stderr) == (0, "partmon, version 0.1.0\n", "")


def test_module_entry_exits_2_on_malformed_json(tmp_path):
    (tmp_path / "category_map.json").write_text('{"1": "Person"', encoding="utf-8")
    result = run_module(tmp_path, "validate", "--category-map", "category_map.json")
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("Error: "), result.stderr


@pytest.mark.parametrize("command, flag", [
    ("synth", "--config"), ("calibrate", "--gt"), ("evaluate", "--persons"), ("monitor", "--operating-point"),
])
def test_module_entry_exits_2_on_malformed_input_for_every_command(inputs, tmp_path, command, flag):
    # The refusal reaches the process's own streams: nothing on stdout, one line on stderr.
    root, data = inputs
    bad = tmp_path / "bad.json"
    bad.write_text('{"1": "Person"', encoding="utf-8")
    files = {} if command == "synth" else dict(arg.split("=", 1) for arg in data)
    if command in ("evaluate", "monitor"):
        files["--operating-point"] = root / "op.json"
    files[flag] = bad
    args = [f"{name}={path}" for name, path in files.items()]
    result = run_module(tmp_path, command, *args, "--out", "out")
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith(f"Error: malformed JSON in {bad} "), result.stderr
    assert not (tmp_path / "out").exists()
