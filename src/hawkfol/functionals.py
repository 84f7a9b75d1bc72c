"""Hawking energy, Hawking functional and Willmore functional on surfaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import EmbeddedSurface


@dataclass
class EnergyReport:
    """All surface energies plus the raw integrals they derive from."""

    area: float
    willmore_value: float
    hawking_functional_value: float
    hawking_energy: float
    int_h2: float
    int_p2: float

    def to_dict(self) -> dict:
        return {
            "area": self.area,
            "willmore": self.willmore_value,
            "hawking_functional": self.hawking_functional_value,
            "hawking_energy": self.hawking_energy,
            "int_H2": self.int_h2,
            "int_P2": self.int_p2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyReport":
        return cls(area=d["area"], willmore_value=d["willmore"],
                   hawking_functional_value=d["hawking_functional"],
                   hawking_energy=d["hawking_energy"], int_h2=d["int_H2"],
                   int_p2=d["int_P2"])


def hawking_energy(surface: EmbeddedSurface) -> EnergyReport:
    """E = sqrt(|S|/16 pi) (1 - 1/(16 pi) int (H^2 - P^2) dmu) with parts."""
    area = surface.area
    int_h2 = surface.integral(surface.mean_curvature ** 2)
    int_p2 = surface.integral(surface.p_trace ** 2)
    hf = 0.25 * (int_h2 - int_p2)
    energy = np.sqrt(area / (16.0 * np.pi)) * (1.0 - (int_h2 - int_p2) / (16.0 * np.pi))
    return EnergyReport(area=area, willmore_value=0.25 * int_h2,
                        hawking_functional_value=hf, hawking_energy=float(energy),
                        int_h2=int_h2, int_p2=int_p2)


def willmore(surface: EmbeddedSurface) -> float:
    """W = 1/4 int H^2 dmu; equals the Hawking functional when k = 0."""
    return 0.25 * surface.integral(surface.mean_curvature ** 2)
