"""Engine interface and the catalog that owns every named object.

Each engine is an in-process library over an in-memory store. The
catalog is the object directory: it maps each object name, temporaries
included, to the one engine that holds it, which enforces the
no-replication rule. A manifest is a JSON object that maps each name to
its engine, its CIF file and its load options. Datagen output and
catalog snapshots share that one format, written by ``write_manifest``
and ``EngineCatalog.snapshot`` and read by ``EngineCatalog.load_manifest``
and ``restore``, so a CLI session can pick up where the last one stopped.

``restore`` reads the manifest and then merges its journal,
``manifest.journal``, whose lines each hold a compact manifest of what a
snapshot changed, a removed name mapped to null; the last line wins, and
a torn final line is dropped and truncated. Each object stays pending on
its engine as its CIF path and load options, and ``Engine._get`` parses
and builds it the first time anything reads it. ``snapshot`` writes only
the objects that have no file in the directory yet, each to ``<file>.tmp``
renamed over the old one, and then appends its journal line. Once the
journal outgrows the manifest, or for a directory the catalog did not
restore, it writes the whole manifest that way and deletes the journal; a
merge is idempotent, so a crash between the two changes nothing. A process
that dies mid-write leaves the old snapshot or the new one. Nothing is
fsynced, so this does not hold against a power loss.
"""

import contextlib
import json
import os
import re
import threading

from ..canonical import load_cif, save_cif
from ..errors import CatalogError, PolydawgError

MANIFEST = "manifest.json"  # the file that names a directory's objects
JOURNAL = "manifest.journal"  # the changes made since the manifest
# what a query can name; an object's snapshot file is named after it
_OBJECT_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Engine:
    """Uniform interface: load, export, execute-native, drop.

    Writes are serialized with a lock; reads are pure and lock-free on
    immutable snapshots of the stored objects. A pending object is built
    under the lock on its first read.
    """

    model = None

    def __init__(self, engine_id):
        self.engine_id = engine_id
        self._objects = {}
        self._pending = {}  # name -> (CIF path, load options), not yet built
        self._write_lock = threading.RLock()

    def object_names(self):
        return sorted(self._objects.keys() | self._pending.keys())

    def _get(self, name):
        try:
            return self._objects[name]
        except KeyError:
            return self._build_pending(name)

    def _build_pending(self, name):
        with self._write_lock:
            if name in self._objects:  # another thread built it first
                return self._objects[name]
            if name not in self._pending:
                raise CatalogError(
                    f"engine {self.engine_id!r} has no object {name!r}")
            path, options = self._pending[name]
            try:
                obj = self._build(name, load_cif(path), options)
            except (OSError, UnicodeError, PolydawgError) as e:
                raise CatalogError(
                    f"{path}: cannot restore {name!r}: {e}") from None
            self._objects[name] = obj
            del self._pending[name]
            return obj

    def _check_new(self, name):
        if name in self._objects or name in self._pending:
            raise CatalogError(
                f"object {name!r} already exists on engine {self.engine_id!r}"
            )

    def load(self, name, table, options=None):
        with self._write_lock:
            self._check_new(name)
            self._objects[name] = self._build(name, table, options or {})

    def load_pending(self, name, path, options):
        """Hold the object stored in the CIF file at ``path``; it is
        parsed and built on first use."""
        with self._write_lock:
            self._check_new(name)
            self._pending[name] = (path, options)

    def drop(self, name):
        with self._write_lock:
            if self._pending.pop(name, None) is None:
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
        # directory -> {name: manifest entry} of its snapshot; an entry is
        # None once this catalog's object of that name has no file there
        self._saved = {}

    def engine(self, engine_id):
        try:
            return self.engines[engine_id]
        except KeyError:
            raise CatalogError(f"unknown engine {engine_id!r}") from None

    def owner(self, name):
        """Engine id holding the object, or None."""
        return self._owners.get(name)

    def _claim(self, engine_id, name):
        """The engine a new object ``name`` may go to."""
        eng = self.engine(engine_id)
        if not _OBJECT_NAME.fullmatch(name):
            raise CatalogError(f"object name {name!r} is not an identifier")
        holder = self.owner(name)
        if holder is not None:
            raise CatalogError(
                f"object {name!r} already exists on engine {holder!r}"
            )
        return eng

    def load(self, engine_id, name, table, options=None, temporary=False):
        self._claim(engine_id, name).load(name, table, options)
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
        for saved in self._saved.values():
            if name in saved:
                saved[name] = None

    def drop_temporaries(self):
        for name in list(self._temps):
            self.drop(name)

    def directory(self):
        """``{object name: engine id}``, temporaries included."""
        return dict(self._owners)

    # --- manifests -------------------------------------------------------

    def snapshot(self, directory):
        """Make ``directory`` a snapshot of every non-temporary object,
        writing only the objects that have no file there yet and then a
        journal line, or the manifest, of what changed."""
        os.makedirs(directory, exist_ok=True)
        key = os.path.abspath(directory)
        saved = self._saved.get(key)
        entries = {}
        for name, eid in sorted(self._owners.items()):
            if name not in self._temps:
                entries[name] = (saved or {}).get(name) or _write_object(
                    directory, name, eid, self.export(eid, name),
                    self.engines[eid].load_options_for(name))
        if saved is None:
            _write_entries(directory, entries)
        else:
            changes = {name: entry for name, entry in entries.items()
                       if saved.get(name) is not entry}
            changes.update(dict.fromkeys(saved.keys() - entries.keys()))
            if changes:
                journal = os.path.join(directory, JOURNAL)
                _write_line(journal, changes)
                if os.path.getsize(journal) > os.path.getsize(
                        os.path.join(directory, MANIFEST)):
                    _write_entries(directory, entries)
        self._saved[key] = entries

    def restore(self, directory):
        """Name every object of the snapshot in ``directory``, if there is
        one; each is parsed on first use."""
        path = os.path.join(directory, MANIFEST)
        if not os.path.exists(path):
            return
        entries = self._read_manifest(path)
        with contextlib.suppress(FileNotFoundError):
            entries.update(self._read_manifest(
                os.path.join(directory, JOURNAL), journal=True))
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + ".tmp")  # left by a manifest write that died
        entries = {name: e for name, e in entries.items() if e is not None}
        for name, entry in sorted(entries.items()):
            self._claim(entry["engine"], name).load_pending(
                name, os.path.join(directory, entry["file"]),
                entry["options"])
            self._owners[name] = entry["engine"]
        self._saved[os.path.abspath(directory)] = entries

    def load_manifest(self, path):
        """Load every object the manifest at ``path`` names; returns
        ``[(name, engine id, rows)]`` in name order. Every entry is
        checked before the first object loads."""
        base = os.path.dirname(path)
        loaded = []
        for name, entry in sorted(self._read_manifest(path).items()):
            table = load_cif(os.path.join(base, entry["file"]))
            self.load(entry["engine"], name, table, entry["options"])
            loaded.append((name, entry["engine"], len(table.rows)))
        return loaded

    def _read_manifest(self, path, journal=False):
        """``{name: {"engine", "file", "options"}}`` from the manifest at
        ``path``, each entry checked as an object this catalog can add; a
        ``journal``'s lines are merged in order, a name may map to null,
        and a torn final line is dropped and truncated away."""
        with open(path, "rb") as fh:
            lines = fh.readlines() if journal else [fh.read()]
        if journal and lines and not lines[-1].endswith(b"\n"):
            os.truncate(path, sum(map(len, lines[:-1])))
            lines.pop()
        merged = {}
        for lineno, line in enumerate(lines, 1):
            where = f"{path}: line {lineno}" if journal else path
            try:
                manifest = json.loads(line.decode("ascii"))
            except ValueError as e:
                raise CatalogError(f"{where}: not a manifest: {e}") from None
            if not isinstance(manifest, dict):
                raise CatalogError(
                    f"{where}: a manifest maps each object name to its entry")
            for name, entry in manifest.items():
                if entry is None and journal:  # a removed name
                    continue
                if not (isinstance(entry, dict)
                        and isinstance(entry.get("engine"), str)
                        and isinstance(entry.get("file"), str)
                        and isinstance(entry.get("options", {}), dict)):
                    raise CatalogError(
                        f"{where}: entry {name!r} needs 'engine' and 'file' "
                        f"strings and optional 'options'")
                entry.setdefault("options", {})
                try:
                    self._claim(entry["engine"], name)
                    _check_load_options(entry["options"])
                except CatalogError as e:
                    raise CatalogError(
                        f"{where}: entry {name!r}: {e}") from None
            merged.update(manifest)
        return merged


def _check_load_options(options):
    """Raise ``CatalogError`` unless, where present, ``key`` is a list of
    column names, ``dims`` a list of ``[name, positive length]`` pairs and
    ``dim_maps`` a list of string-key lists or nulls."""
    key = options.get("key")
    if key is not None and not (
            isinstance(key, list) and all(isinstance(k, str) for k in key)):
        raise CatalogError("'key' must be a list of column names")
    dims = options.get("dims")
    if dims is not None and not (isinstance(dims, list) and all(
            isinstance(d, list) and len(d) == 2 and isinstance(d[0], str)
            and type(d[1]) is int and d[1] > 0 for d in dims)):
        raise CatalogError(
            "'dims' must be a list of [name, positive length] pairs")
    maps = options.get("dim_maps")
    if maps is not None and not (isinstance(maps, list) and all(
            m is None or (isinstance(m, list)
                          and all(isinstance(k, str) for k in m))
            for m in maps)):
        raise CatalogError("'dim_maps' must be a list of key lists or nulls")


def _replace(path, write):
    """Write ``path`` as ``write(tmp)`` then rename ``tmp`` over it, so a
    crash leaves the old file or the new one, never a torn one."""
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _write_object(directory, name, engine_id, table, options):
    """Write ``<name>.cif``; returns its manifest entry."""
    fname = f"{name}.cif"
    _replace(os.path.join(directory, fname), lambda p: save_cif(table, p))
    return {"engine": engine_id, "file": fname, "options": options}


def _write_line(path, manifest, mode="a"):
    """Append, or with mode "w" write, ``manifest`` as one compact line."""
    with open(path, mode, encoding="ascii") as fh:
        fh.write(json.dumps(manifest, separators=(",", ":"), sort_keys=True)
                 + "\n")


def _write_entries(directory, entries):
    """Write the manifest of ``entries``, then delete the journal it
    replaces; returns its path."""
    path = os.path.join(directory, MANIFEST)
    _replace(path, lambda tmp: _write_line(tmp, entries, "w"))
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(directory, JOURNAL))
    return path


def write_manifest(directory, objects):
    """Write each ``(name, engine id, table, load options)``, in the order
    given, as ``<name>.cif`` and the manifest naming them all; returns the
    paths written, the manifest last."""
    os.makedirs(directory, exist_ok=True)
    entries = {name: _write_object(directory, name, eid, table, options)
               for name, eid, table, options in objects}
    return ([os.path.join(directory, e["file"]) for e in entries.values()]
            + [_write_entries(directory, entries)])


def default_catalog():
    """Catalog with the standard three engines: rel, kv, arr."""
    from .relational import RelationalEngine
    from .keyvalue import KeyValueEngine
    from .array import ArrayEngine

    return EngineCatalog(
        [RelationalEngine("rel"), KeyValueEngine("kv"), ArrayEngine("arr")]
    )
