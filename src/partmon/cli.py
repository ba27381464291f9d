"""Command-line entry point: synth -> calibrate -> monitor/evaluate -> reports.

Exit codes: 0 success, 2 for input or validation problems (missing files,
malformed JSON, unmapped categories, bad flag or config values, an output
that is an input, unwritable outputs), 1 for anything unexpected.
``_PartmonCommand``, the class of every command, is the single boundary that
turns those problems into exit 2 with one line. Before a command runs, it
lists every file the command writes (``--out``, or synth's corpus files, and
the manifest last) and refuses any that the command reads. Every produced
report has a manifest recording the command, the tool version, input file
hashes, and the operating point used; JSON reports embed it inline. A writing
command writes nothing: it returns the texts of its outputs, its manifest and
its summary line. The boundary writes the texts through ``write_text``, the one
writer of files, in ``_outputs`` order, then the manifest to a ``<out>.manifest.json``
sidecar (synth: one ``corpus.manifest.json`` in the directory ``cmd_synth`` makes),
then echoes the summary. No other module writes to the file system.
``monitor`` lays out its own JSON lines, each byte for byte ``json.dumps(line, sort_keys=True)``.

Each optional flag can also be supplied through ``--config FILE`` (a JSON
object keyed by the flag's underscored name); explicit flags win on conflict.
Required options (the input files, ``--operating-point`` and ``--out``) must
be given as flags: click checks them before the config is read.

Each command, a process of its own, imports only the layers it runs, inside the code that runs them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import click

from . import __version__
from .datamodel import (
    DetectionClass,
    FilterMode,
    Scene,
    _collector_paused,
    filter_images_by_min_person_area,
    group_into_scenes,
    load_category_map,
    load_detections,
    load_ground_truth,
    json_text,
    read_json,
    unknown_image_warnings,
)
from .errors import ValidationError
from .monitor import per_image_rule, per_object_rule
from .partition import MatchingMode, partition

if TYPE_CHECKING:
    from .calibration import OperatingPoint


class InputError(click.ClickException):
    exit_code = 2


# The characters at which str.splitlines() ends a line. An input's id can hold them; a message or a
# warning quoting it shows them escaped, so it stays one line.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _FiniteRange(click.FloatRange):
    """A FloatRange that also refuses NaN and infinities, which its bounds alone let through."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return number


def write_text(path, chunks: Iterable[str]) -> None:
    """The one output writer: ``chunks`` to ``path`` in order, as UTF-8 with no newline translation."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


class _PartmonCommand(click.Command):
    """Pauses the collector, applies ``--config``, checks a command's outputs and writes the ``(texts, manifest,
    summary)`` it returns: each chunk iterable of ``texts`` in ``_outputs`` order, then the manifest; bad input exits 2.
    """

    @_collector_paused()
    def invoke(self, ctx):
        try:
            _apply_config(ctx, ctx.params.get("config"))
            written = _outputs(ctx)
            returned = super().invoke(ctx)
            if written:
                texts, manifest, summary = returned
                for path, chunks in zip(written, [*texts, [json_text(manifest)]], strict=True):
                    write_text(path, chunks)
                click.echo(summary.translate(_LINE_BREAKS))
        except (ValidationError, OSError) as exc:
            raise InputError(str(exc).translate(_LINE_BREAKS)) from exc


@click.group()
@click.version_option(version=__version__, prog_name="partmon")
def cli():
    """Plausibility monitoring for person detection via body-part cross-checks."""


cli.command_class = _PartmonCommand


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _apply_config(ctx: click.Context, config_path) -> None:
    """Fill parameters from a JSON config for flags the user did not pass (so never ``config`` itself)."""
    if config_path is None:
        return
    raw = read_json(config_path, unique_keys=True)
    if not isinstance(raw, dict):
        raise ValidationError(f"config must be a JSON object: {config_path}")
    params = {param.name: param for param in ctx.command.params}
    for name, value in raw.items():
        if name not in ctx.params:
            raise ValidationError(f"config {config_path}: unknown option {name!r}")
        if ctx.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT:
            continue
        try:
            if value is None or isinstance(value, (list, dict)):  # a flag's value is one string, number or boolean
                raise TypeError(f"expected a string, number or boolean, got {json.dumps(value)}")
            kind = params[name].type
            if isinstance(kind, click.types.BoolParamType) and not isinstance(value, bool):
                raise TypeError(f"expected a boolean, got {json.dumps(value)}")
            if isinstance(kind, click.types.FloatParamType) and isinstance(value, bool):  # float() reads it as 0 or 1
                raise TypeError(f"expected a number, got {json.dumps(value)}")
            if isinstance(kind, click.types.IntParamType) and (  # int() would truncate a float and read a boolean
                    isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
                raise TypeError(f"expected an integer, got {json.dumps(value)}")
            ctx.params[name] = params[name].process_value(ctx, value)
        except click.BadParameter as exc:
            raise ValidationError(f"config {config_path}: {exc.format_message()}") from exc
        except (TypeError, ValueError, OverflowError) as exc:  # raised by a type's own cast
            raise ValidationError(f"config {config_path}: invalid value for {name!r}: {exc}") from exc


def _sha256(path) -> str:
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


_INPUT_FILES = ("gt", "persons", "parts", "category_map", "persons_category_map",
                "parts_category_map", "operating_point")


def _outputs(ctx: click.Context) -> list:
    """Every file the command writes, its manifest last (``--out`` and ``<out>.manifest.json``, or synth's corpus
    files and ``corpus.manifest.json`` inside ``--out``); refuses any that is a directory or that the command reads."""
    p = ctx.params
    if "out" not in p:
        return []
    written = [p["out"], f"{p['out']}.manifest.json"]
    if ctx.command.name == "synth":
        from .synth import CORPUS_FILES
        written = [Path(p["out"]) / name for name in (*CORPUS_FILES.values(), "corpus.manifest.json")]
    for path in written:
        if os.path.isdir(path):  # refused before any output is written, with the message its write would give
            raise ValidationError(f"cannot write {path}: Is a directory")
        for name in (*_INPUT_FILES, "config"):
            if p.get(name) is not None and os.path.exists(path) and os.path.samefile(path, p[name]):
                raise ValidationError(f"cannot write {path}: it is the --{name.replace('_', '-')} input")
    return written


def _manifest(params: dict, operating_point: OperatingPoint) -> dict:
    """Record the running command and every input file it was given, by path and hash."""
    return {
        "command": click.get_current_context().command.name,
        "version": __version__,
        "inputs": {
            name: {"path": str(params[name]), "sha256": _sha256(params[name])}
            for name in _INPUT_FILES
            if params.get(name) is not None
        },
        "operating_point": operating_point.to_json_dict(),
        "report": Path(params["out"]).name,
    }


def _scenes_from(p: dict, gt_classes=None) -> list[Scene]:
    """Load the command's inputs and group them into scenes, echoing grouping warnings.

    Commands with a ``min_area`` option keep only images that pass that filter. The scenes hold the annotations of
    ``gt_classes`` only (``load_ground_truth``'s ``classes``; all by default).
    """
    base_map = load_category_map(p["category_map"])
    persons_map = load_category_map(p["persons_category_map"]) if p["persons_category_map"] else base_map
    parts_map = load_category_map(p["parts_category_map"]) if p["parts_category_map"] else base_map
    gt = load_ground_truth(p["gt"], base_map, gt_classes) if p["gt"] else None
    person_dets = load_detections(p["persons"], persons_map)
    part_dets = load_detections(p["parts"], parts_map)
    retained = None
    if "min_area" in p:
        retained = filter_images_by_min_person_area(gt, p["min_area"], FilterMode(p["filter_mode"]))
    grouping = group_into_scenes(gt, person_dets, part_dets, image_ids=retained)
    for warning in grouping.warnings:
        click.echo(f"warning: {warning}".translate(_LINE_BREAKS), err=True)
    return list(grouping.scenes)


def _apply_operating_point(p: dict, rule, gt_classes) -> tuple[OperatingPoint, list[Scene], list]:
    """Load --operating-point, keep detections under its recorded rule, run ``rule``: (op, scenes, results)."""
    from .calibration import OperatingPoint, apply_confidence_thresholds
    op = OperatingPoint.load(p["operating_point"])
    scenes = apply_confidence_thresholds(_scenes_from(p, gt_classes), op.conf_thresholds, strict=op.strict_conf)
    return op, scenes, [rule(s.persons, s.parts, alpha_fp=op.alpha_fp, alpha_fn=op.alpha_fn) for s in scenes]


# monitor's lines are byte for byte json.dumps(line, sort_keys=True): sorted keys, ", " and ": ", and repr for numbers,
# as json writes an int or a finite float. The loaders guarantee every value: _integer gives int ids, _parse_bbox and
# _parse_score finite floats, det_id is the entry's index, and the ASCII class names need no escaping.
_CLASS_NAMES, _BOOLEANS = {cls: cls.value for cls in DetectionClass}, ("false", "true")


def _det_records(dets) -> str:
    """The items of a ``monitor --mode object`` detection list, one JSON object per detection."""
    return ", ".join([f'{{"bbox": [{d.box.x!r}, {d.box.y!r}, {d.box.w!r}, {d.box.h!r}], "category": '
                      f'"{_CLASS_NAMES[d.category]}", "det_id": {d.det_id!r}, "score": {d.score!r}}}' for d in dets])


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_range(text: str, flag: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        lo, hi = int(lo), int(hi if hi else lo)
    except ValueError:
        raise ValidationError(f"{flag} expects LO:HI, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise ValidationError(f"{flag} expects LO:HI with 0 <= LO <= HI, got {text!r}")
    return lo, hi


@cli.command("synth")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--n-scenes", default=20, show_default=True, type=click.IntRange(0))
@click.option("--persons-per-scene", default="1:4", show_default=True)
@click.option("--parts-per-person", default="1:6", show_default=True)
@click.option("--drop-person-prob", default=0.15, show_default=True, type=_FiniteRange(0, 1))
@click.option("--drop-part-prob", default=0.1, show_default=True, type=_FiniteRange(0, 1))
@click.option("--ghost-person-prob", default=0.1, show_default=True, type=_FiniteRange(0, 1))
@click.option("--ghost-part-prob", default=0.1, show_default=True, type=_FiniteRange(0, 1))
@click.option("--jitter", default=0.0, show_default=True, type=_FiniteRange(0))
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", required=True, type=click.Path(file_okay=False))
def cmd_synth(**p):
    """Generate a seeded synthetic corpus with known error labels."""
    import hashlib
    from .synth import CORPUS_FILES, SynthConfig, generate
    ranges = {name: _parse_range(str(p[name]), "--" + name.replace("_", "-"))
              for name in ("persons_per_scene", "parts_per_person")}
    config = SynthConfig(**{f.name: p[f.name] for f in fields(SynthConfig)} | ranges)  # each field has its option
    corpus = generate(config)
    out_dir = Path(p["out"])
    try:  # after generate, so a refused jitter creates nothing
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the message of every other failed write
        raise ValidationError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
    texts = [json_text(corpus.files[role]) for role in CORPUS_FILES]
    manifest = {
        "command": click.get_current_context().command.name,
        "version": __version__,
        "config": asdict(config),
        "outputs": {role: {"path": str(out_dir / name), "sha256": hashlib.sha256(text.encode()).hexdigest()}
                    for (role, name), text in zip(CORPUS_FILES.items(), texts)},
    }
    return ([[text] for text in texts], manifest, f"wrote corpus: {config.n_scenes} scenes, "
            f"{len(corpus.person_dets)} person dets, {len(corpus.part_dets)} part dets -> {p['out']}")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

_INPUT_PATH = click.Path(exists=True, dir_okay=False)

_DETECTION_OPTIONS = [
    click.option("--persons", type=_INPUT_PATH, required=True),
    click.option("--parts", type=_INPUT_PATH, required=True),
    click.option("--category-map", type=_INPUT_PATH, required=True),
    click.option("--persons-category-map", type=_INPUT_PATH, default=None,
                 help="Category map for the person stream when it differs from --category-map."),
    click.option("--parts-category-map", type=_INPUT_PATH, default=None,
                 help="Category map for the part stream (e.g. person-as-part baseline wiring)."),
]

_RUN_OPTIONS = [
    click.option("--threads", default=1, show_default=True, type=click.IntRange(1),
                 help="Accepted for compatibility; has no effect."),
    click.option("--config", type=_INPUT_PATH, default=None),
]

_COMMON_INPUT_OPTIONS = [
    click.option("--gt", type=_INPUT_PATH, required=True),
    *_DETECTION_OPTIONS,
    click.option("--min-area", default=2247.0, show_default=True, type=_FiniteRange(0),
                 help="Minimum ground-truth person box area in pixels^2."),
    click.option("--filter-mode", default="drop_if_any_below", show_default=True,
                 type=click.Choice([m.value for m in FilterMode])),
    click.option("--matching", default="existential", show_default=True,
                 type=click.Choice([m.value for m in MatchingMode])),
    *_RUN_OPTIONS,
]

def _with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@cli.command("calibrate")
@_with_options(_COMMON_INPUT_OPTIONS)
@click.option("--tau", default=0.5, show_default=True,
              type=_FiniteRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--alpha-grid-step", default=0.05, show_default=True,
              type=_FiniteRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--strict-conf", is_flag=True, default=False,
              help="Calibrate for retaining scores strictly above the threshold; recorded in the operating point.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_calibrate(**p):
    """Select per-class confidence thresholds (max F1) and alphas (max MCC)."""
    from .calibration import build_operating_point
    op = build_operating_point(
        _scenes_from(p),
        tau=p["tau"],
        grid_step=p["alpha_grid_step"],
        matching=MatchingMode(p["matching"]),
        strict_conf=p["strict_conf"],
    )
    return ([[json_text(op.to_json_dict())]], _manifest(p, op),
            f"operating point -> {p['out']} (alpha_fp={op.alpha_fp}, alpha_fn={op.alpha_fn})")


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

@cli.command("monitor")
@click.option("--gt", type=_INPUT_PATH, default=None,
              help="Optional; defines the scene universe when given.")
@_with_options(_DETECTION_OPTIONS)
@click.option("--operating-point", type=_INPUT_PATH, required=True)
@click.option("--mode", type=click.Choice(["image", "object"]), default="image", show_default=True)
@_with_options(_RUN_OPTIONS)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_monitor(**p):
    """Run the monitor and stream one JSON line per scene."""
    image = p["mode"] == "image"
    # --gt gives only the scene universe and the unknown-image warnings: no annotation record is kept
    op, scenes, results = _apply_operating_point(p, per_image_rule if image else per_object_rule, ())
    if image:  # streamed as written
        lines = (f'{{"alert_fn": {_BOOLEANS[r.alert_fn]}, "alert_fp": {_BOOLEANS[r.alert_fp]}, '
                 f'"image_id": {s.image_id!r}}}\n' for s, r in zip(scenes, results))
    else:
        lines = (f'{{"fn_mon": [{_det_records(r.fn_mon)}], "fp_mon": [{_det_records(r.fp_mon)}], '
                 f'"image_id": {s.image_id!r}, "tp_mon": [{_det_records(r.tp_mon)}]}}\n'
                 for s, r in zip(scenes, results))
    return [lines], _manifest(p, op), f"monitored {len(scenes)} scenes -> {p['out']}"


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@cli.command("evaluate")
@_with_options(_COMMON_INPUT_OPTIONS)
@click.option("--operating-point", type=_INPUT_PATH, required=True)
@click.option("--protocol", type=click.Choice(["per-image", "per-object"]),
              default="per-image", show_default=True)
@click.option("--system", default="monitor", show_default=True,
              help="Label written into the report rows.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--ghost-all-classes", is_flag=True, default=False,
              help="Anchor the ghost-part test on all ground-truth classes, not only persons.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_evaluate(**p):
    """Score the monitor against ground truth and write a report."""
    from .evaluation import PerImageResult, PerObjectResult, balances, object_confusion, per_image_counts, render_report
    try:  # up front: write_text would fail to encode it in a CSV report, exit 1 and leave that report empty
        p["system"].encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"--system label is not valid UTF-8: {p['system']!r}") from None
    per_image = p["protocol"] == "per-image"
    gt_classes = None if p["ghost_all_classes"] else {DetectionClass.PERSON}  # what the scoring reads
    op, scenes, results = _apply_operating_point(p, per_image_rule if per_image else per_object_rule, gt_classes)
    matching = MatchingMode(p["matching"])
    partitions = [partition(s.persons, s.gt_persons(), op.tau, matching) for s in scenes]
    manifest = _manifest(p, op)
    if per_image:
        fp_counts, fn_counts = per_image_counts(scenes, partitions, results)
        result = PerImageResult(system=p["system"], total_images=len(scenes), fp_alert=fp_counts, fn_alert=fn_counts)
    else:
        confusion = object_confusion(scenes, partitions, results, alpha_fn=op.alpha_fn,
                                     ghost_all_classes=p["ghost_all_classes"])
        result = PerObjectResult(system=p["system"], confusion=confusion, balances=balances(confusion))
    return ([[render_report(result, p["fmt"], manifest)]], manifest,
            f"evaluated {len(scenes)} scenes ({p['protocol']}) -> {p['out']}")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@cli.command("validate")
@click.option("--gt", type=_INPUT_PATH, default=None)
@click.option("--persons", type=_INPUT_PATH, default=None)
@click.option("--parts", type=_INPUT_PATH, default=None)
@click.option("--category-map", type=_INPUT_PATH, default=None)
@click.option("--operating-point", type=_INPUT_PATH, default=None)
def cmd_validate(gt, persons, parts, category_map, operating_point):
    """Parse the given inputs and report what they contain."""
    cat_map = load_category_map(category_map) if category_map else None
    if (gt or persons or parts) and cat_map is None:
        raise ValidationError("--category-map is required to validate annotation or detection files")
    if gt:
        loaded = load_ground_truth(gt, cat_map)
        click.echo(f"gt: {len(loaded.images)} images, {len(loaded.annotations)} annotations")
    warnings = []  # as the other commands warn; gathered per stream, so its records are freed before the next loads
    for name, path in (("persons", persons), ("parts", parts)):
        if path:
            dets = load_detections(path, cat_map)
            click.echo(f"{name}: {len(dets)} detections")
            warnings += unknown_image_warnings(loaded, **{name: dets}) if gt else ()
            del dets
    for warning in warnings + unknown_image_warnings(loaded, annotations=loaded.annotations) if gt else ():
        click.echo(f"warning: {warning}".translate(_LINE_BREAKS), err=True)
    if operating_point:
        from .calibration import OperatingPoint
        op = OperatingPoint.load(operating_point)
        click.echo(
            f"operating point: tau={op.tau}, alpha_fp={op.alpha_fp}, alpha_fn={op.alpha_fn}, "
            f"{len(op.conf_thresholds)} class thresholds, keeps score {'>' if op.strict_conf else '>='} t"
        )
    click.echo("ok")


if __name__ == "__main__":
    cli()
