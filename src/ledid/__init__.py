"""Simulator and placement-planning toolkit for dense LED-ID installations.

Models rooms full of tag-broadcasting LED luminaires read by a photodiode
receiver: Lambertian line-of-sight channel gains, shot-noise-limited link
budgets with co-channel interference, analytic BFSK error rates verified
by a seeded Monte Carlo detector, BER fields over receiver planes, and
placement-planning reports (cone overlap, resolvability, read range).
"""

from .analysis import (
    CoverageReport,
    ResolvabilityReport,
    TagResolvability,
    UNBOUNDED,
    coverage,
    critical_overlap_distance,
    resolvability,
    scenario_critical_distance,
)
from .channel import DetectorModel, EmitterModel, channel_gain, lambertian_order, radiant_intensity
from .errors import (
    GeometryError,
    LedIdError,
    ParameterError,
    PlaneOutsideRoomError,
    ScenarioParseError,
    ScenarioValidationError,
    TagNotFoundError,
)
from .export import grid_csv_text, grid_pgm_text, write_grid_csv, write_grid_pgm
from .geometry import Pose, Vec3
from .link import (
    LinkBudget,
    LinkColumns,
    ModulationParams,
    ber_bfsk,
    evaluate_link,
    evaluate_points,
    snr,
)
from .noise import ELECTRON_CHARGE_C, NoiseParams, shot_noise_variance, total_noise_variance
from .oracle import AgreementPoint, McConfig, agreement_report, mc_ber_bfsk
from .scenario import (
    BerGrid,
    Luminaire,
    Room,
    Scenario,
    builtin_g1,
    builtin_l1,
    builtin_scenario_path,
    evaluate_grid,
    load_scenario,
    load_scenario_file,
    load_scenario_with_defaults,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementPoint",
    "BerGrid",
    "CoverageReport",
    "DetectorModel",
    "ELECTRON_CHARGE_C",
    "EmitterModel",
    "GeometryError",
    "LedIdError",
    "LinkBudget",
    "LinkColumns",
    "Luminaire",
    "McConfig",
    "ModulationParams",
    "NoiseParams",
    "ParameterError",
    "PlaneOutsideRoomError",
    "Pose",
    "ResolvabilityReport",
    "Room",
    "Scenario",
    "ScenarioParseError",
    "ScenarioValidationError",
    "TagNotFoundError",
    "TagResolvability",
    "UNBOUNDED",
    "Vec3",
    "agreement_report",
    "ber_bfsk",
    "builtin_g1",
    "builtin_l1",
    "builtin_scenario_path",
    "channel_gain",
    "coverage",
    "critical_overlap_distance",
    "evaluate_grid",
    "evaluate_link",
    "evaluate_points",
    "grid_csv_text",
    "grid_pgm_text",
    "lambertian_order",
    "load_scenario",
    "load_scenario_file",
    "load_scenario_with_defaults",
    "mc_ber_bfsk",
    "radiant_intensity",
    "resolvability",
    "scenario_critical_distance",
    "shot_noise_variance",
    "snr",
    "total_noise_variance",
    "write_grid_csv",
    "write_grid_pgm",
]
