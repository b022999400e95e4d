import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from radialcal.calibration import CorrespondenceSet
from radialcal.distortion import DistortionSpec, Model
from radialcal.geometry import IntrinsicMatrix
from radialcal.synth import SynthSpec, generate_scene


@pytest.fixture
def default_intrinsics() -> IntrinsicMatrix:
    return IntrinsicMatrix(alpha=800.0, beta=800.0, gamma=0.2, u0=320.0, v0=240.0)


def make_scene(
    seed: int,
    model: Model = Model.MODEL3,
    k1: float = -0.12,
    k2: float = -0.14,
    noise_sigma: float = 0.0,
    intrinsics: IntrinsicMatrix | None = None,
    **kwargs,
):
    """Convenience wrapper: synthetic correspondences plus their ground truth."""
    spec = SynthSpec(
        seed=seed,
        intrinsics=intrinsics or IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0),
        distortion=DistortionSpec(model, k1, k2),
        noise_sigma=noise_sigma,
        **kwargs,
    )
    return generate_scene(spec)


@dataclass(frozen=True, eq=False)
class View:
    """One view of a session, as tests build and read them: its id, the
    target points ``world_xy`` and the observed ``pixels``, each ``(m, 2)``."""

    view_id: int
    world_xy: np.ndarray
    pixels: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.world_xy)


def split_views(corr: CorrespondenceSet) -> tuple[View, ...]:
    """The session's views, each holding its rows of the stacked arrays."""
    off = corr.offsets.tolist()
    return tuple(
        View(view_id, corr.world_xy[a:b], corr.pixels[a:b])
        for view_id, a, b in zip(corr.view_ids, off, off[1:])
    )


def stack_views(views) -> CorrespondenceSet:
    """The session of these views (any records with ``view_id``, ``world_xy``
    and ``pixels``), stacked in order."""
    views = tuple(views)
    counts = [len(v.world_xy) for v in views]
    return CorrespondenceSet(
        tuple(v.view_id for v in views),
        np.concatenate([np.empty((0, 2)), *(v.world_xy for v in views)]),
        np.concatenate([np.empty((0, 2)), *(v.pixels for v in views)]),
        np.concatenate([[0], np.cumsum(counts, dtype=int)]),
    )
