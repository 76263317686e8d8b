"""Internet/DCC job generators (the second flow).

Two shapes:

* :class:`CloudJobGenerator` — generic batch traffic: Poisson arrivals on a
  business-hours profile, lognormal service demand (the classic heavy-ish
  tail of render/risk jobs), 1–8 cores per job;
* :class:`RenderCampaign` — a scaled replay of the paper's 2016 Qarnot
  rendering statistics (§III, opening): **1100 users, 600 000 images,
  11 000 000 hours of computations** — i.e. a mean of ≈ 18.3 core-hours per
  frame.  ``QARNOT_2016_CAMPAIGN`` carries the published numbers; the replay
  scales them down by a configurable factor so laptop-scale simulations keep
  the per-frame distribution while shrinking the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.core.requests import CloudRequest
from repro.workloads.arrivals import DiurnalProfile

__all__ = ["CloudJobConfig", "CloudJobGenerator", "RenderCampaign", "QARNOT_2016_CAMPAIGN"]

_GHZ = 1e9


@dataclass(frozen=True)
class CloudJobConfig:
    """Parameters of the generic DCC batch flow.

    ``mean_core_seconds`` is the service demand at the reference frequency
    ``ref_freq_ghz`` (cycles are what servers actually execute).
    """

    rate_per_hour: float = 20.0
    mean_core_seconds: float = 600.0
    sigma_log: float = 1.0
    max_cores: int = 8
    ref_freq_ghz: float = 3.5
    input_mb: float = 20.0
    output_mb: float = 50.0

    def __post_init__(self) -> None:
        if self.rate_per_hour < 0 or self.mean_core_seconds <= 0:
            raise ValueError("rates and demands must be positive")
        if self.max_cores < 1:
            raise ValueError("max_cores must be >= 1")


class CloudJobGenerator:
    """Generates :class:`CloudRequest` batches over a window."""

    def __init__(self, rng: np.random.Generator, config: CloudJobConfig = CloudJobConfig()):
        self.rng = rng
        self.config = config
        self.profile = DiurnalProfile.office_hours(config.rate_per_hour / 3600.0)
        self._mu = np.log(config.mean_core_seconds) - 0.5 * config.sigma_log**2

    def generate(self, t0: float, t1: float) -> List[CloudRequest]:
        """All cloud requests arriving in [t0, t1), time-sorted."""
        times = self.profile.sample(self.rng, t0, t1)
        return [self._make(t) for t in times]

    def _make(self, t: float) -> CloudRequest:
        cfg = self.config
        core_seconds = float(self.rng.lognormal(self._mu, cfg.sigma_log))
        cores = int(self.rng.integers(1, cfg.max_cores + 1))
        return CloudRequest(
            cycles=core_seconds * cfg.ref_freq_ghz * _GHZ,
            time=t,
            cores=cores,
            input_bytes=cfg.input_mb * 1e6,
            output_bytes=cfg.output_mb * 1e6,
            user=f"user-{int(self.rng.integers(0, 100))}",
        )


@dataclass(frozen=True)
class RenderCampaignStats:
    """Published scale of the 2016 Qarnot render platform."""

    users: int
    frames: int
    total_core_hours: float

    @property
    def mean_core_hours_per_frame(self) -> float:
        """Average service demand of one frame."""
        return self.total_core_hours / self.frames


QARNOT_2016_CAMPAIGN = RenderCampaignStats(users=1100, frames=600_000, total_core_hours=11_000_000.0)


class RenderCampaign:
    """Scaled replay of the 2016 campaign.

    Parameters
    ----------
    rng: random stream.
    scale: fraction of the real campaign to generate (e.g. 1e-4 → 60 frames).
    duration_s: window over which the frames arrive (uniformly, as studios
        submit shots in bursts that average out over a year).
    sigma_log: lognormal dispersion of per-frame demand around the published
        mean.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        stats: RenderCampaignStats = QARNOT_2016_CAMPAIGN,
        scale: float = 1e-4,
        duration_s: float = 30 * 86400.0,
        sigma_log: float = 0.8,
        ref_freq_ghz: float = 3.5,
    ):
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        if duration_s <= 0:
            raise ValueError("duration must be > 0")
        self.rng = rng
        self.stats = stats
        self.scale = scale
        self.duration_s = duration_s
        self.sigma_log = sigma_log
        self.ref_freq_ghz = ref_freq_ghz

    @property
    def n_frames(self) -> int:
        """Number of frames in the scaled replay (at least 1)."""
        return max(1, int(round(self.stats.frames * self.scale)))

    def generate(self, t0: float = 0.0) -> List[CloudRequest]:
        """Frame-render requests over [t0, t0 + duration), time-sorted."""
        n = self.n_frames
        times = np.sort(self.rng.uniform(t0, t0 + self.duration_s, size=n))
        mean_cs = self.stats.mean_core_hours_per_frame * 3600.0
        mu = np.log(mean_cs) - 0.5 * self.sigma_log**2
        demands = self.rng.lognormal(mu, self.sigma_log, size=n)
        users = self.rng.integers(0, self.stats.users, size=n)
        out = []
        for t, cs, u in zip(times, demands, users):
            out.append(
                CloudRequest(
                    cycles=float(cs) * self.ref_freq_ghz * _GHZ,
                    time=float(t),
                    cores=4,  # frames render on one whole Q.rad CPU
                    input_bytes=50e6,
                    output_bytes=20e6,
                    user=f"studio-{int(u)}",
                )
            )
        return out
