"""Run configurations of the trajectory scenarios and the bounds they check.

``EprConfig`` and ``OracleComparisonConfig`` declare the keys of ``epr``,
``grw-run`` and ``oracle-compare`` (see schema.py) and check a run's
parameters when built.  This module imports no numpy and no engine, so
the command line can list its keys, parse them and reject a bad value
without loading either; ``scenarios`` builds the runs from these
configs, and ``hilbert``, ``grw`` and ``scenarios`` re-export the names
defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ConfigError
from .schema import COUNT, FINITE, NON_NEGATIVE, POSITIVE, SEED, Check, check_fields, checked
from .schema import integer, setting

MAX_TOTAL_DIM = 4096  # the dense-storage cap on a composite space's dimension
GRID_POINTS = integer(8, MAX_TOTAL_DIM)


def _check_packet_width(key: str, width: float, spacing: float) -> None:
    """Reject a packet narrower than half the grid spacing.  Sampled on the
    grid, such a packet no longer has the spread it was asked for: its
    discrete normalization departs from the continuum one by up to
    2 exp(-2 pi^2 width^2 / spacing^2) (Poisson summation), 1.4% at half a
    spacing, and far below it the packet is one site or, between sites, none."""
    if not width >= 0.5 * spacing:
        raise ConfigError(f"key '{key}' = {width} is narrower than half the grid spacing "
                          f"{spacing}; the grid cannot resolve the packet")


@dataclass(frozen=True)
class EprConfig:
    """Two entangled region qubits plus one pointer on a periodic grid.

    Particle a occupies region delta1 (qubit 0) or delta3 (qubit 1);
    particle b is correlated into delta2 or delta4.  The measurement
    couples a's region to the pointer by a conditional displacement of
    ``coupling_sites`` grid sites (a von Neumann interaction integrated
    exactly); localization jumps then act on the pointer alone at the
    amplified rate ``amplification * base_rate``.
    """

    trials: int = setting(1000, "number of measurement trials", COUNT)
    delta1: float = setting(-30.0, "region label for particle a, branch 1", FINITE)
    delta2: float = setting(-10.0, "region label for particle b, branch 1", FINITE)
    delta3: float = setting(10.0, "region label for particle a, branch 2", FINITE)
    delta4: float = setting(30.0, "region label for particle b, branch 2", FINITE)
    packet_width: float = setting(1.0, "pointer packet spread", POSITIVE)
    # the (2, 2, points) state stays within the dense-storage cap
    pointer_points: int = setting(64, "pointer grid points", integer(8, MAX_TOTAL_DIM // 4))
    pointer_spacing: float = setting(1.0, "pointer grid spacing", POSITIVE)
    pointer_alpha: float = setting(0.25, "pointer localization parameter", POSITIVE)
    base_rate: float = setting(0.2, "base jump rate", NON_NEGATIVE, key="lambda", report="lambda")
    amplification: int = setting(25, "pointer rate amplification factor", COUNT)
    coupling_sites: int = setting(24, "pointer displacement in sites (0 = no measurement)",
                                  integer(0), key="coupling")
    horizon: float = setting(5.0, "measurement duration", POSITIVE)
    master_seed: int = checked(SEED, default=0)
    workers: int = checked(COUNT, default=1)

    def __post_init__(self) -> None:
        check_fields(self)
        _check_packet_width("packet_width", self.packet_width, self.pointer_spacing)
        regions = (self.delta1, self.delta2, self.delta3, self.delta4)
        if any(abs(a - b) < 10.0 * self.packet_width for a, b in combinations(regions, 2)):
            raise ConfigError("regions must be pairwise separated by at least 10 packet widths")
        if self.amplification * self.base_rate * self.horizon < 20.0:
            raise ConfigError(
                "amplification * lambda * horizon must be >= 20 so the pointer "
                "collapses within the run"
            )
        if self.coupling_sites:
            shift = abs(self.coupling_sites) * self.pointer_spacing
            length = self.pointer_points * self.pointer_spacing
            if shift < 10.0 / math.sqrt(self.pointer_alpha):
                raise ConfigError(
                    "pointer displacement must exceed 10 localization widths"
                )
            if shift < 10.0 * self.packet_width or shift > length / 2.0:
                raise ConfigError("pointer displacement must resolve the two packets")


@dataclass(frozen=True)
class OracleComparisonConfig:
    """Grid, localization parameters and initial packet layout shared by
    the trajectory ensemble and the deterministic oracle."""

    grid_points: int = setting(64, "grid points", GRID_POINTS, key="points")
    grid_spacing: float = setting(1.0, "grid spacing", POSITIVE, key="spacing")
    # localization width = 4 grid spacings
    alpha: float = setting(0.0625, "inverse squared localization width", POSITIVE)
    rate: float = setting(1.0, "jump rate per particle", NON_NEGATIVE, key="lambda",
                          report="lambda")
    hbar: float = setting(1.0, "action unit", POSITIVE)
    mass: float = setting(10.0, "particle mass for the free Hamiltonian", POSITIVE)
    hamiltonian: str = setting("none", "free Hamiltonian choice: 'none' or 'free'",
                               Check("'none' or 'free'", ("none", "free").__contains__))
    peak_centers: tuple[float, ...] = setting((24.0, 40.0), "initial packets as center:weight,...",
                                              FINITE, key="peaks")
    peak_weights: tuple[float, ...] = setting((0.5, 0.5), "", POSITIVE, key="peaks")
    packet_width: float = setting(2.0, "initial packet position spread", POSITIVE)
    horizon: float = setting(5.0, "total evolution time", POSITIVE)
    dt: float = setting(0.01, "time step, only checked against 0.01*hbar/max|E|; samples "
                        "are taken at the checkpoints", POSITIVE)
    checkpoints: int = setting(4, "number of equally spaced comparison times", COUNT)
    record_trials: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if len(self.peak_centers) != len(self.peak_weights) or not self.peak_centers:
            raise ConfigError("peak centers and weights must match and be non-empty")
        if len(set(self.peak_centers)) < len(self.peak_centers):
            raise ConfigError("key 'peaks': packet centers must be distinct")
        if abs(sum(self.peak_weights) - 1.0) > 1e-9:
            raise ConfigError("peak weights must sum to 1")
        _check_packet_width("packet_width", self.packet_width, self.grid_spacing)
