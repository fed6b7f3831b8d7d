"""High-level imaging pipeline and multi-insonification acquisition."""

from .compounding import InsonificationPlan, acquisition_summary, compound_volume
from .imaging import ImagingPipeline, architecture_name

__all__ = [
    "ImagingPipeline",
    "architecture_name",
    "InsonificationPlan",
    "compound_volume",
    "acquisition_summary",
]
