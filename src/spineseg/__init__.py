"""Spine segmentation toolkit: semantic-then-instance pipeline over voxel volumes.

The package splits into a volume substrate (:mod:`spineseg.volume`,
:mod:`spineseg.nifti`), the label taxonomy (:mod:`spineseg.labels`), the
two processing phases (:mod:`spineseg.pipeline`, :mod:`spineseg.assembly`,
:mod:`spineseg.postproc`), annotation fusion (:mod:`spineseg.fusion`),
evaluation (:mod:`spineseg.metrics`), and a synthetic test harness
(:mod:`spineseg.phantom`). ``run_pipeline`` ties the phases together.
"""

__version__ = "0.1.0"

from .assembly import AssemblyReport, Cutout, assemble, make_cutouts
from .fusion import AnnotationSources, merge_sources, synthesize_endplates
from .labels import Structure, endplate_id, ivd_id, label_map, vertebra_id
from .metrics import (
    assd,
    dice,
    evaluate_segmentation,
    instance_report,
    iou,
    match_instances,
    panoptic,
    semantic_report,
    wilcoxon_signed_rank,
)
from .nifti import NiftiError, read_nifti, write_nifti
from .phantom import (
    NoiseSpec,
    OracleInstancePredictor,
    OracleSemanticPredictor,
    PhantomSpec,
    corrupt_semantic,
    generate_phantom,
)
from .pipeline import (
    ExternalInstancePredictor,
    ExternalPredictor,
    ExternalSemanticPredictor,
    PipelineConfig,
    PredictorError,
    RunReport,
    TilingSpec,
    predict_semantic,
    run_pipeline,
    tile_volume,
)
from .postproc import ConsistencyReport, enforce_consistency, foreground_equal
from .volume import Volume, connected_components, resample, to_canonical

__all__ = [
    "__version__",
    "AnnotationSources",
    "AssemblyReport",
    "ConsistencyReport",
    "Cutout",
    "ExternalInstancePredictor",
    "ExternalPredictor",
    "ExternalSemanticPredictor",
    "NiftiError",
    "NoiseSpec",
    "OracleInstancePredictor",
    "OracleSemanticPredictor",
    "PhantomSpec",
    "PipelineConfig",
    "PredictorError",
    "RunReport",
    "Structure",
    "TilingSpec",
    "Volume",
    "assd",
    "assemble",
    "connected_components",
    "corrupt_semantic",
    "dice",
    "endplate_id",
    "enforce_consistency",
    "evaluate_segmentation",
    "foreground_equal",
    "generate_phantom",
    "instance_report",
    "iou",
    "ivd_id",
    "label_map",
    "make_cutouts",
    "match_instances",
    "merge_sources",
    "panoptic",
    "predict_semantic",
    "read_nifti",
    "resample",
    "run_pipeline",
    "semantic_report",
    "synthesize_endplates",
    "tile_volume",
    "to_canonical",
    "vertebra_id",
    "write_nifti",
]
