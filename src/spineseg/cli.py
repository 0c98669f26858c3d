"""Command line entry point.

Subcommands: ``phantom`` (synthetic ground truth), ``fuse`` (annotation
merging), ``segment`` (the two-phase pipeline), ``evaluate`` (metrics),
and ``report`` (pretty-print a result JSON). Exit codes: 0 success, 1
processing failure, 2 usage error. File-producing commands write a
``run.json`` with the resolved configuration and toolkit version so any
run can be reproduced exactly, and publish their outputs together: a run
that fails leaves the files of the run before it as they were.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import signal
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .fusion import AnnotationSources, fuse_sources
from .labels import Structure, write_labels_json
from .metrics import evaluate_segmentation
from .nifti import NiftiError, read_nifti, write_nifti
from .phantom import (
    NoiseSpec,
    OracleInstancePredictor,
    OracleSemanticPredictor,
    PhantomSpec,
    generate_phantom,
)
from .pipeline import (
    DEFAULT_SPACING,
    ExternalPredictor,
    PipelineConfig,
    PredictorError,
    TilingSpec,
    run_pipeline,
)


class UsageError(Exception):
    """Bad arguments or configuration; exit code 2."""


class RunError(Exception):
    """Processing failed after valid arguments; exit code 1."""


def _numbers(text: str, flag: str) -> tuple[float, ...]:
    """A flag's comma-separated numbers, for the spec or config to check."""
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} could not parse {text!r}")


def _read_volume(path: str, what: str):
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} file not found: {path}")
    try:
        return read_nifti(p)
    except NiftiError as e:
        raise RunError(f"could not read {what} {path}: {e}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _run_json(out_dir: Path, command: str, config: dict, **extra):
    """The ``run.json`` output for ``_publish``."""
    payload = {"command": command, "version": __version__, "config": config, **extra}
    return out_dir / "run.json", lambda p: _write_json(p, payload)


def _publish(outputs) -> None:
    """Write each ``(path, write)`` output with ``write(staged_path)``, then
    move them into place in order, so the files of an earlier run stay as
    they were unless every output got written; ``run.json`` goes last.

    Each output is staged under its final name in a fresh hidden directory
    beside it: a gzip header records the file's name, so another name
    would change the bytes. The staging directories go on every path out.
    """
    with ExitStack() as stack:
        staging = {}
        try:
            for path, write in outputs:
                if path.parent not in staging:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    tmp = tempfile.TemporaryDirectory(prefix=".spineseg-", dir=path.parent)
                    staging[path.parent] = Path(stack.enter_context(tmp))
                write(staging[path.parent] / path.name)
            for path, _ in outputs:
                os.replace(staging[path.parent] / path.name, path)
        except (OSError, NiftiError) as e:
            raise RunError(f"could not write {path}: {e}") from None


def cmd_phantom(args) -> int:
    if args.spec:
        spec_path = Path(args.spec)
        if not spec_path.exists():
            raise UsageError(f"spec file not found: {args.spec}")
        try:
            spec = PhantomSpec.from_json(spec_path.read_text())
        except (ValueError, TypeError, KeyError) as e:
            raise UsageError(f"invalid phantom spec: {e}")
    else:
        seed = args.seed
        if seed is None:
            seed = int.from_bytes(os.urandom(4), "little")
        fuse_pairs = tuple(_numbers(f, "--fuse") for f in args.fuse or [])
        kwargs = dict(n_vertebrae=args.vertebrae, seed=seed, fuse_pairs=fuse_pairs)
        if args.dims:
            kwargs["dims"] = _numbers(args.dims, "--dims")
        if args.spacing:
            kwargs["spacing"] = _numbers(args.spacing, "--spacing")
        try:
            spec = PhantomSpec(**kwargs)
        except ValueError as e:
            raise UsageError(f"invalid phantom parameters: {e}")

    try:
        intensity, semantic, instance = generate_phantom(spec)
    except ValueError as e:
        raise UsageError(f"phantom does not fit: {e}")

    out = Path(args.out_dir)
    _publish(
        [
            (out / "intensity.nii.gz", lambda p: write_nifti(intensity, p)),
            (out / "semantic.nii.gz", lambda p: write_nifti(semantic, p)),
            (out / "instance.nii.gz", lambda p: write_nifti(instance, p)),
            (out / "labels.json", write_labels_json),
            _run_json(out, "phantom", json.loads(spec.to_json()), seed=spec.seed),
        ]
    )
    print(f"phantom with {spec.n_vertebrae} vertebrae written to {out}")
    return 0


def cmd_fuse(args) -> int:
    base = _read_volume(args.base, "base annotation")
    sub = _read_volume(args.substructures, "substructure annotation")
    cord = _read_volume(args.cord, "cord annotation")
    try:
        sources = AnnotationSources(base, sub, cord)
    except ValueError as e:
        raise RunError(str(e))

    merged, fused, order_sensitive = fuse_sources(sources)

    out_path = Path(args.out)
    counts = {
        Structure(int(c)).name.lower(): int(n)
        for c, n in zip(*np.unique(fused.data, return_counts=True))
        if c != 0
    }
    summary = {
        "label_voxels": counts,
        "canal_overwritten_by_cord": int(
            ((base.data == Structure.SPINAL_CANAL) & (cord.data > 0)).sum()
        ),
        "substructure_voxels_suppressed": int(((sub.data > 0) & (base.data > 0)).sum()),
        "endplate_voxels_synthesized": int(
            ((fused.data == Structure.ENDPLATE) & (merged.data != Structure.ENDPLATE)).sum()
        ),
        "order_sensitive_voxels": order_sensitive,
    }
    summary_path = Path(args.summary) if args.summary else out_path.parent / "fuse_summary.json"
    config = {
        "base": args.base,
        "substructures": args.substructures,
        "cord": args.cord,
        "out": str(out_path),
        "summary": str(summary_path),
    }
    _publish(
        [
            (out_path, lambda p: write_nifti(fused, p)),
            (summary_path, lambda p: _write_json(p, summary)),
            _run_json(out_path.parent, "fuse", config),
        ]
    )
    print(f"fused mask written to {out_path}")
    return 0


def _parse_predictor(uri: str, role: str, timeout: float):
    if uri.startswith("oracle:"):
        rest = uri[len("oracle:") :]
        parts = rest.split(",")
        if not 1 <= len(parts) <= 2 or not parts[0]:
            raise UsageError(f"--{role} oracle spec must be oracle:<gt path>[,<noise path>]")
        gt = _read_volume(parts[0], f"{role} oracle ground truth")
        noise = None
        if len(parts) == 2:
            noise_path = Path(parts[1])
            if not noise_path.exists():
                raise UsageError(f"noise file not found: {parts[1]}")
            try:
                noise = NoiseSpec.from_json(noise_path.read_text())
            except (ValueError, TypeError) as e:
                raise UsageError(f"invalid noise spec {parts[1]}: {e}")
        try:
            if role == "semantic":
                return OracleSemanticPredictor(gt, noise)
            return OracleInstancePredictor(gt, None, noise)
        except ValueError as e:
            raise RunError(f"invalid {role} oracle ground truth {parts[0]}: {e}")
    if uri.startswith("exec:"):
        command = uri[len("exec:") :]
        if not command.strip():
            raise UsageError(f"--{role} exec spec has an empty command")
        try:
            return ExternalPredictor(command, timeout=timeout)
        except ValueError as e:
            raise UsageError(str(e))
    raise UsageError(f"--{role} must start with oracle: or exec:, got {uri!r}")


def cmd_segment(args) -> int:
    vol = _read_volume(args.input, "input")
    out = Path(args.out_dir)

    patch = _numbers(args.patch, "--patch")
    target = None if args.spacing == "keep" else _numbers(args.spacing, "--spacing")
    try:
        tiling = TilingSpec(patch_size=patch, overlap=args.overlap)
        config = PipelineConfig(target_spacing=target, tiling=tiling)
    except ValueError as e:
        raise UsageError(str(e))

    semantic_pred = _parse_predictor(args.semantic, "semantic", args.timeout)
    instance_pred = _parse_predictor(args.instance, "instance", args.timeout)

    try:
        semantic, instance, report = run_pipeline(vol, semantic_pred, instance_pred, config)
    except (PredictorError, NiftiError, ValueError) as e:
        raise RunError(f"pipeline failed: {e}")

    run_config = {
        "input": args.input,
        "semantic": args.semantic,
        "instance": args.instance,
        **config.to_dict(),
    }
    _publish(
        [
            (out / "semantic.nii.gz", lambda p: write_nifti(semantic, p)),
            (out / "instance.nii.gz", lambda p: write_nifti(instance, p)),
            _run_json(out, "segment", run_config, report=report.to_dict()),
        ]
    )
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"masks written to {out}")
    return 0


def cmd_evaluate(args) -> int:
    if (args.pred_instance is None) != (args.ref_instance is None):
        raise UsageError("--pred-instance and --ref-instance must be given together")
    pred = _read_volume(args.pred, "predicted mask")
    ref = _read_volume(args.ref, "reference mask")
    pred_inst = ref_inst = None
    if args.pred_instance:
        pred_inst = _read_volume(args.pred_instance, "predicted instance mask")
        ref_inst = _read_volume(args.ref_instance, "reference instance mask")

    try:
        result = evaluate_segmentation(pred, ref, pred_inst, ref_inst)
    except ValueError as e:
        raise RunError(f"evaluation failed: {e}")

    payload = {
        "version": __version__,
        "config": {
            "pred": args.pred,
            "ref": args.ref,
            "pred_instance": args.pred_instance,
            "ref_instance": args.ref_instance,
        },
        **result,
    }
    outputs = [(Path(args.csv), lambda p: _write_csv(p, result))] if args.csv else []
    _publish([*outputs, (Path(args.json), lambda p: _write_json(p, payload))])
    print(f"evaluation written to {args.json}")
    return 0


def _write_csv(path: Path, result: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "DSC", "RQ", "SQ", "PQ", "ASSD"])

        def fmt(value):
            return "" if value is None else f"{value:.6f}"

        for name, entry in result.get("semantic", {}).items():
            writer.writerow([f"semantic/{name}", fmt(entry["DSC"]), "", "", "", fmt(entry["ASSD"])])
        for kind, entry in result.get("instances", {}).items():
            writer.writerow(
                [
                    f"instance/{kind}",
                    fmt(entry["DSC"]),
                    fmt(entry["RQ"]),
                    fmt(entry["SQ"]),
                    fmt(entry["PQ"]),
                    fmt(entry["ASSD"]),
                ]
            )


def _report_lines(payload: dict) -> list[str]:
    lines = []
    command = payload.get("command")
    if command:
        lines.append(f"run: {command} (toolkit {payload.get('version', '?')})")
    if "config" in payload:
        lines.append("configuration:")
        for key, value in payload["config"].items():
            lines.append(f"  {key}: {value}")
    report = payload.get("report", {})
    if report:
        lines.append(
            f"processed grid {tuple(report['processing_dims'])} at {tuple(report['processing_spacing'])} mm, "
            f"{report['n_patches']} patches"
        )
        asm = report.get("assembly", {})
        cutouts = asm.get("cutouts", [])
        if cutouts:
            lines.append(f"cutouts: {len(cutouts)}, {sum(bool(c['clamped']) for c in cutouts)} clamped")
            sharing = {}
            for c in cutouts:
                sharing.setdefault(tuple(c["origin"]), []).append(str(c["index"]))
            for origin, indices in sharing.items():
                if len(indices) > 1:
                    lines.append(f"  cutouts {', '.join(indices)} share origin {list(origin)}: identical windows")
        if asm.get("groups"):
            lines.append(f"vertebra groups: {len(asm['groups'])}")
            for g in asm["groups"]:
                lines.append(
                    f"  vertebra {g['target_index']}: {g['n_predictions']} predictions, "
                    f"agreement {g['agreement']:.4f}"
                )
        if asm:
            fallbacks = ", ".join(map(str, asm.get("union_fallbacks", []))) or "none"
            conflicts = asm.get("conflict_voxels", 0)
            lines.append(f"assembly: {conflicts} conflict voxels; vertebrae on union fallback: {fallbacks}")
            flags = Counter((f["kind"], Structure(f["code"]).name.lower()) for f in asm.get("assignment_flags", ()))
            for (kind, name), n in sorted(flags.items()):
                lines.append(f"  {kind.replace('_', ' ')}: {n} {name} component{'s' * (n != 1)}")
        cons = report.get("consistency", {})
        if cons:
            lines.append(
                f"consistency pass: {cons.get('holes_filled', 0)} holes filled, "
                f"{cons.get('zeroed', 0)} voxels zeroed, "
                f"{len(cons.get('orphans_assigned', []))} orphan components attached"
            )
        for w in report.get("warnings", []):
            lines.append(f"warning: {w}")
    if "semantic" in payload:
        lines.append("semantic metrics:")
        for name, entry in payload["semantic"].items():
            assd = "n/a" if entry["ASSD"] is None else f"{entry['ASSD']:.4f} mm"
            lines.append(f"  {name}: DSC {entry['DSC']:.4f}, ASSD {assd}")
    if "instances" in payload:
        lines.append("instance metrics:")
        for kind, entry in payload["instances"].items():
            instance_dsc = "n/a" if entry["instance_DSC"] is None else f"{entry['instance_DSC']:.4f}"
            assd = "n/a" if entry["ASSD"] is None else f"{entry['ASSD']:.4f} mm"
            lines.append(
                f"  {kind}: DSC {entry['DSC']:.4f}, instance DSC {instance_dsc}, RQ {entry['RQ']:.4f}, "
                f"SQ {entry['SQ']:.4f}, PQ {entry['PQ']:.4f}, ASSD {assd}, "
                f"TP {entry['TP']}, FP {entry['FP']}, FN {entry['FN']}"
            )
    if "label_voxels" in payload:
        lines.append("fused label voxel counts:")
        for name, n in payload["label_voxels"].items():
            lines.append(f"  {name}: {n}")
    return lines


def cmd_report(args) -> int:
    path = Path(args.json)
    if not path.exists():
        raise UsageError(f"report file not found: {args.json}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise UsageError(f"not a JSON file: {e}")
    try:
        lines = _report_lines(payload)
    except (AttributeError, KeyError, TypeError, ValueError):
        lines = []  # not an object, or a section of the wrong shape
    if not lines:
        raise UsageError("unrecognized report format")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spineseg",
        description="Two-phase spine segmentation toolkit: phantoms, fusion, "
        "segmentation, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"spineseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic spine with ground truth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vertebrae", type=int, default=PhantomSpec.n_vertebrae)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fuse", action="append", metavar="K,K+1", help="fuse a vertebra pair; repeatable")
    p.add_argument("--dims", default=None, metavar="X,Y,Z")
    p.add_argument("--spacing", default=None, metavar="SX,SY,SZ")
    p.add_argument("--spec", default=None, help="phantom spec JSON (overrides inline flags)")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("fuse", help="merge annotation sources and synthesize endplates")
    p.add_argument("--base", required=True)
    p.add_argument("--substructures", required=True)
    p.add_argument("--cord", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("segment", help="run the two-phase segmentation pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--semantic", required=True, metavar="oracle:...|exec:...")
    p.add_argument("--instance", required=True, metavar="oracle:...|exec:...")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--patch", default=",".join(str(n) for n in TilingSpec.patch_size))
    p.add_argument("--overlap", type=float, default=TilingSpec.overlap)
    p.add_argument(
        "--spacing",
        default=",".join(str(s) for s in DEFAULT_SPACING),
        help="target spacing in mm, or 'keep' to stay on the input grid",
    )
    timeout = inspect.signature(ExternalPredictor).parameters["timeout"].default
    p.add_argument("--timeout", type=float, default=timeout)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="compare predicted masks against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--pred-instance", default=None)
    p.add_argument("--ref-instance", default=None)
    p.add_argument("--json", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="pretty-print a run or evaluation JSON")
    p.add_argument("json")
    p.set_defaults(func=cmd_report)

    return parser


def _exit_on_signal(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: the exec: commands
    # still running are killed and waited for, and their exchange files
    # deleted. An ignored signal (nohup) stays ignored, and the caller's
    # own handlers come back afterwards.
    previous = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGHUP)}
    for signum, handler in previous.items():
        if handler is not signal.SIG_IGN:
            signal.signal(signum, _exit_on_signal)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
