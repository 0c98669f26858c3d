"""Plug an external process in as the semantic predictor.

Any executable that reads a NIfTI patch and writes a NIfTI labeling can
serve as a model: the pipeline writes ``in_<id>.nii.gz``, substitutes the
paths into the command template, and collects ``out_<id>.nii.gz``. Here
the "model" is a throwaway python script that thresholds intensity, which
is nonsense medically but shows the full exchange round trip.
"""

import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np

from spineseg import (
    ExternalPredictor,
    PhantomSpec,
    generate_phantom,
    predict_semantic,
)

PREDICTOR = textwrap.dedent("""
    import sys
    import numpy as np
    from spineseg.nifti import read_nifti, write_nifti

    vol = read_nifti(sys.argv[1])
    labels = (vol.data > vol.data.mean()).astype(np.uint16)   # "corpus" everywhere bright
    write_nifti(vol.with_data(labels, kind="semantic"), sys.argv[2])
""")


def main():
    intensity, sem_gt, _ = generate_phantom(PhantomSpec(n_vertebrae=5, seed=2))

    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "threshold_model.py"
        script.write_text(PREDICTOR)
        predictor = ExternalPredictor(
            f"{sys.executable} {script} {{input}} {{output}}",
            exchange_dir=Path(tmp) / "exchange",
        )
        semantic = predict_semantic(intensity, predictor)

    predicted_fg = int((semantic.data > 0).sum())
    true_fg = int((sem_gt.data > 0).sum())
    overlap = int(((semantic.data > 0) & (sem_gt.data > 0)).sum())
    print(f"threshold model marked {predicted_fg} voxels; truth has {true_fg}")
    print(f"foreground dice {2 * overlap / (predicted_fg + true_fg):.3f} "
          "(a real model would do better; the protocol is the point)")
    print("exchange files are cleaned up after every call")


if __name__ == "__main__":
    main()
