"""High-level imaging pipeline and multi-insonification acquisition."""

from .compounding import InsonificationPlan, acquisition_summary
from .imaging import ImagingPipeline

__all__ = [
    "ImagingPipeline",
    "InsonificationPlan",
    "acquisition_summary",
]
