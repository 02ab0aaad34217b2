from .base import Engine, EngineCatalog, default_catalog
from .relational import RelationalEngine
from .keyvalue import KeyValueEngine
from .array import ArrayEngine

__all__ = [
    "Engine", "EngineCatalog", "default_catalog",
    "RelationalEngine", "KeyValueEngine", "ArrayEngine",
]
