"""Technology library substrate: resource characterization, speed grades,
RAM macros, instances for the binder, and the power model."""

from typing import Callable, Dict

from repro.tech.artisan90 import artisan90
from repro.tech.generic45 import generic45
from repro.tech.library import (
    DEFAULT_GRADES,
    FlipFlopSpec,
    Library,
    MemoryResource,
    MemorySpec,
    MuxSpec,
    ResourceType,
    SpeedGrade,
)
from repro.tech.resources import (
    MemoryPortInstance,
    ResourceInstance,
    ResourcePool,
)

#: the libraries the CLI and the job service address by name.
LIBRARIES: Dict[str, Callable[[], Library]] = {
    "artisan90": artisan90,
    "generic45": generic45,
}

__all__ = [
    "DEFAULT_GRADES",
    "FlipFlopSpec",
    "LIBRARIES",
    "Library",
    "MemoryPortInstance",
    "MemoryResource",
    "MemorySpec",
    "MuxSpec",
    "ResourceInstance",
    "ResourcePool",
    "ResourceType",
    "SpeedGrade",
    "artisan90",
    "generic45",
]
