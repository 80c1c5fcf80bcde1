"""Precision limits, optimal Gaussian probes, and measurement Fisher
information for single-parameter mode-transformation estimation."""

from . import (
    cli,
    errors,
    focksim,
    gaussian,
    generator,
    jsonio,
    matkernel,
    measurement,
    metrology,
    optimal,
    regmodes,
    scenarios,
    verify,
)
from .gaussian import DisentangledForm, GaussianPureState, assemble, disentangle
from .generator import DiscretizationGrid, Generator, HGParams, from_matrix, hg_generator, shift_generator
from .metrology import QfiReport, ResourceTriple, qfi, qfi_upper_bound, resources
from .optimal import ProbeResult, ProbeSpec, build_probe
from .regmodes import RegularizedModePair

__version__ = "0.1.0"

__all__ = [
    "DisentangledForm",
    "DiscretizationGrid",
    "GaussianPureState",
    "Generator",
    "HGParams",
    "ProbeResult",
    "ProbeSpec",
    "QfiReport",
    "RegularizedModePair",
    "ResourceTriple",
    "assemble",
    "build_probe",
    "disentangle",
    "from_matrix",
    "hg_generator",
    "qfi",
    "qfi_upper_bound",
    "resources",
    "shift_generator",
    "cli",
    "errors",
    "focksim",
    "gaussian",
    "generator",
    "jsonio",
    "matkernel",
    "measurement",
    "metrology",
    "optimal",
    "regmodes",
    "scenarios",
    "verify",
]
