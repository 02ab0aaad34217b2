"""Engine interface and the catalog that owns every named object.

Each engine is an in-process library over an in-memory store. The
catalog enforces the no-replication rule: a name lives on exactly one
engine. An optional snapshot writes every object to disk as CIF plus a
JSON manifest so a CLI session can pick up where the last one stopped.
"""

import json
import os
import threading

from ..canonical import load_cif, save_cif
from ..errors import CatalogError


class Engine:
    """Uniform interface: load, export, execute-native, drop.

    Writes are serialized with a lock; reads are pure and lock-free on
    immutable snapshots of the stored objects.
    """

    model = None

    def __init__(self, engine_id):
        self.engine_id = engine_id
        self._objects = {}
        self._write_lock = threading.RLock()

    def has(self, name):
        return name in self._objects

    def object_names(self):
        return sorted(self._objects)

    def _get(self, name):
        try:
            return self._objects[name]
        except KeyError:
            raise CatalogError(
                f"engine {self.engine_id!r} has no object {name!r}"
            ) from None

    def object_meta(self, name):
        """Model-specific metadata for the object directory."""
        self._get(name)
        return {}

    def load(self, name, table, options=None):
        with self._write_lock:
            if name in self._objects:
                raise CatalogError(
                    f"object {name!r} already exists on engine {self.engine_id!r}"
                )
            obj = self._build(name, table, options or {})
            self._objects[name] = obj

    def drop(self, name):
        with self._write_lock:
            self._get(name)
            del self._objects[name]

    # subclasses implement
    def _build(self, name, table, options):
        raise NotImplementedError

    def export(self, name):
        raise NotImplementedError

    def execute_native(self, query):
        raise NotImplementedError

    def schema_of(self, name):
        """Schema of the object's export, read without exporting it."""
        raise NotImplementedError

    def load_options_for(self, name):
        """Options that would recreate the object from its export."""
        return {}


class EngineCatalog:
    """Directory of engines and the single home of every object name."""

    def __init__(self, engines):
        self.engines = {}
        for eng in engines:
            if eng.engine_id in self.engines:
                raise CatalogError(f"duplicate engine id {eng.engine_id!r}")
            self.engines[eng.engine_id] = eng
        self._temps = set()

    def engine(self, engine_id):
        try:
            return self.engines[engine_id]
        except KeyError:
            raise CatalogError(f"unknown engine {engine_id!r}") from None

    def owner(self, name):
        """Engine id holding the object, or None."""
        for eid, eng in self.engines.items():
            if eng.has(name):
                return eid
        return None

    def require_owner(self, name):
        eid = self.owner(name)
        if eid is None:
            raise CatalogError(f"unknown object {name!r}")
        return eid

    def load(self, engine_id, name, table, options=None, temporary=False):
        eng = self.engine(engine_id)
        holder = self.owner(name)
        if holder is not None:
            raise CatalogError(
                f"object {name!r} already exists on engine {holder!r}"
            )
        eng.load(name, table, options)
        if temporary:
            self._temps.add(name)

    def export(self, engine_id, name):
        return self.engine(engine_id).export(name)

    def execute_native(self, engine_id, query):
        return self.engine(engine_id).execute_native(query)

    def drop(self, name):
        eid = self.require_owner(name)
        self.engines[eid].drop(name)
        self._temps.discard(name)

    def drop_temporaries(self):
        for name in list(self._temps):
            if self.owner(name) is not None:
                self.drop(name)
            self._temps.discard(name)

    def directory(self):
        out = {}
        for eid, eng in self.engines.items():
            out[eid] = {
                "model": eng.model,
                "objects": {n: eng.object_meta(n) for n in eng.object_names()},
            }
        return out

    # --- snapshot-to-disk ------------------------------------------------

    def snapshot(self, directory):
        os.makedirs(directory, exist_ok=True)
        manifest = []
        for eid, eng in sorted(self.engines.items()):
            for name in eng.object_names():
                if name in self._temps:
                    continue
                fname = f"{eid}__{name}.cif"
                save_cif(eng.export(name), os.path.join(directory, fname))
                manifest.append(
                    {"engine": eid, "object": name, "file": fname,
                     "options": eng.load_options_for(name)}
                )
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)

    def restore(self, directory):
        path = os.path.join(directory, "manifest.json")
        if not os.path.exists(path):
            return 0
        with open(path) as f:
            manifest = json.load(f)
        count = 0
        for entry in manifest:
            if self.owner(entry["object"]) is not None:
                continue
            table = load_cif(os.path.join(directory, entry["file"]))
            options = entry.get("options") or {}
            if "dims" in options:
                options = dict(options)
                options["dims"] = [tuple(d) for d in options["dims"]]
            self.load(entry["engine"], entry["object"], table, options)
            count += 1
        return count


def default_catalog():
    """Catalog with the standard three engines: rel, kv, arr."""
    from .relational import RelationalEngine
    from .keyvalue import KeyValueEngine
    from .array import ArrayEngine

    return EngineCatalog(
        [RelationalEngine("rel"), KeyValueEngine("kv"), ArrayEngine("arr")]
    )
