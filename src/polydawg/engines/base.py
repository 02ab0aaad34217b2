"""Engine interface and the catalog that owns every named object.

Each engine is an in-process library over an in-memory store. The
catalog is the object directory: it maps each object name, temporaries
included, to the one engine that holds it, which enforces the
no-replication rule. A manifest is a JSON object that maps each name to
its engine, its CIF file and its load options. Datagen output and
catalog snapshots share that one format, written by ``write_manifest``
and read by ``EngineCatalog.load_manifest``, so a CLI session can pick
up where the last one stopped.
"""

import json
import os
import re
import threading

from ..canonical import load_cif, save_cif
from ..errors import CatalogError

MANIFEST = "manifest.json"  # the file that names a directory's objects
# what a query can name; an object's snapshot file is named after it
_OBJECT_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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

    def object_names(self):
        return sorted(self._objects)

    def _get(self, name):
        try:
            return self._objects[name]
        except KeyError:
            raise CatalogError(
                f"engine {self.engine_id!r} has no object {name!r}"
            ) from None

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
    """Engines by id, and the directory of every object name."""

    def __init__(self, engines):
        self.engines = {}
        for eng in engines:
            if eng.engine_id in self.engines:
                raise CatalogError(f"duplicate engine id {eng.engine_id!r}")
            self.engines[eng.engine_id] = eng
        self._owners = {}  # object name -> engine id
        self._temps = set()

    def engine(self, engine_id):
        try:
            return self.engines[engine_id]
        except KeyError:
            raise CatalogError(f"unknown engine {engine_id!r}") from None

    def owner(self, name):
        """Engine id holding the object, or None."""
        return self._owners.get(name)

    def load(self, engine_id, name, table, options=None, temporary=False):
        eng = self.engine(engine_id)
        if not _OBJECT_NAME.fullmatch(name):
            raise CatalogError(f"object name {name!r} is not an identifier")
        holder = self.owner(name)
        if holder is not None:
            raise CatalogError(
                f"object {name!r} already exists on engine {holder!r}"
            )
        eng.load(name, table, options)
        self._owners[name] = engine_id
        if temporary:
            self._temps.add(name)

    def export(self, engine_id, name):
        return self.engine(engine_id).export(name)

    def execute_native(self, engine_id, query):
        return self.engine(engine_id).execute_native(query)

    def drop(self, name):
        eid = self.owner(name)
        if eid is None:
            raise CatalogError(f"unknown object {name!r}")
        self.engines[eid].drop(name)
        del self._owners[name]
        self._temps.discard(name)

    def drop_temporaries(self):
        for name in list(self._temps):
            self.drop(name)

    def directory(self):
        """``{object name: engine id}``, temporaries included."""
        return dict(self._owners)

    # --- manifests -------------------------------------------------------

    def snapshot(self, directory):
        """Write every non-temporary object to ``directory`` as a manifest."""
        write_manifest(directory, (
            (name, eid, self.export(eid, name),
             self.engines[eid].load_options_for(name))
            for name, eid in sorted(self._owners.items())
            if name not in self._temps))

    def restore(self, directory):
        """Load the snapshot in ``directory``, if there is one."""
        path = os.path.join(directory, MANIFEST)
        if os.path.exists(path):
            self.load_manifest(path)

    def load_manifest(self, path):
        """Load every object the manifest at ``path`` names; returns
        ``[(name, engine id, rows)]`` in name order. Every entry is
        checked before the first object loads."""
        try:
            with open(path, encoding="ascii") as fh:
                manifest = json.load(fh)
        except ValueError as e:
            raise CatalogError(f"{path}: not a manifest: {e}") from None
        if not isinstance(manifest, dict):
            raise CatalogError(
                f"{path}: a manifest maps each object name to its entry")
        for name, entry in manifest.items():
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("engine"), str)
                    and isinstance(entry.get("file"), str)
                    and isinstance(entry.get("options", {}), dict)):
                raise CatalogError(
                    f"{path}: entry {name!r} needs 'engine' and 'file' "
                    f"strings and optional 'options'")
        base = os.path.dirname(path)
        loaded = []
        for name in sorted(manifest):
            entry = manifest[name]
            table = load_cif(os.path.join(base, entry["file"]))
            self.load(entry["engine"], name, table, entry.get("options"))
            loaded.append((name, entry["engine"], len(table.rows)))
        return loaded


def write_manifest(directory, objects):
    """Write each ``(name, engine id, table, load options)``, in the order
    given, as ``<name>.cif`` and the manifest naming them all; returns the
    paths written, the manifest last."""
    os.makedirs(directory, exist_ok=True)
    files, manifest = [], {}
    for name, engine_id, table, options in objects:
        fname = f"{name}.cif"
        files.append(os.path.join(directory, fname))
        save_cif(table, files[-1])
        manifest[name] = {"engine": engine_id, "file": fname,
                          "options": options}
    files.append(os.path.join(directory, MANIFEST))
    with open(files[-1], "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return files


def default_catalog():
    """Catalog with the standard three engines: rel, kv, arr."""
    from .relational import RelationalEngine
    from .keyvalue import KeyValueEngine
    from .array import ArrayEngine

    return EngineCatalog(
        [RelationalEngine("rel"), KeyValueEngine("kv"), ArrayEngine("arr")]
    )
