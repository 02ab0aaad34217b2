"""Today's eager ``MonitorDB``, kept as the reference the lazy one in
``polydawg.monitor`` is compared with: it parses and indexes every record
of the log when it opens. Its code is the monitor's as it was before
replay became lazy; the helpers that did not change are imported."""

import os
from collections import defaultdict
from dataclasses import replace
from urllib.parse import unquote

from polydawg.errors import MonitorError
from polydawg.monitor import (
    PerfRecord, USAGE_DIFFERENCE_BOUND, _FIELDS, _fmt, _lowest, _plan_means,
    _weighted, jaccard, usage_differs,
)
from polydawg.planner import Signature


def _parse_line(line, lineno, signatures, texts):
    """The record on one log line. ``signatures`` maps the raw structure,
    objects and constants fields to the Signature built from them, and
    ``texts`` maps raw phase and plan-id fields to one shared str; both
    live for one replay, so each distinct signature is built once."""
    parts = line.split("\t")
    if len(parts) != _FIELDS:
        raise MonitorError(f"log line {lineno}: expected {_FIELDS} fields")
    try:
        key = (parts[2], parts[3], parts[4])
        signature = signatures.get(key)
        if signature is None:
            structure, objects, constants = (unquote(p) for p in key)
            signature = signatures[key] = Signature(
                structure,
                frozenset(unquote(o) for o in objects.split(";") if o),
                tuple(unquote(c) for c in constants.split(";") if c))
        phase, plan_id = texts.get(parts[1]), texts.get(parts[5])
        if phase is None:
            phase = texts[parts[1]] = unquote(parts[1])
        if plan_id is None:
            plan_id = texts[parts[5]] = unquote(parts[5])
        usage = {}
        if parts[7]:
            for pair in unquote(parts[7]).split(","):
                engine, frac = pair.split("=", 1)
                usage[engine] = float(frac)
        return PerfRecord(
            ts=float(unquote(parts[0])), phase=phase, signature=signature,
            plan_id=plan_id, runtime_ms=float(unquote(parts[6])),
            usage=usage,
        )
    except (ValueError, IndexError) as e:
        raise MonitorError(f"log line {lineno}: {e}") from e



class _Bucket:
    """The signatures that share a structure hash, an object set and a
    number of distinct constants, numbered in the order they joined."""

    def __init__(self, structure, objects, size):
        self.structure = structure
        self.objects = objects
        self.size = size
        self.signatures = []  # member -> its signature
        self.history = []  # member -> indexes of its records, oldest first
        self.postings = defaultdict(list)  # constant -> members holding it
        self.latest = None  # the most recently recorded member

    def add(self, signature, constants):
        """Number a new member and return its number."""
        member = len(self.signatures)
        self.signatures.append(signature)
        self.history.append([])
        for constant in constants:
            self.postings[constant].append(member)
        return member

    def bound(self, signature, probe, weights):
        """The highest similarity any member can have to ``signature``,
        whose distinct constants are ``probe``: members share at most
        ``min`` of the two constant counts, out of at least ``max``."""
        most = max(len(probe), self.size)
        return _weighted(weights, self.structure == signature.structure,
                         jaccard(self.objects, signature.objects),
                         min(len(probe), self.size) / most if most else 1.0)

    def shared_counts(self, probe):
        """(common, counts): ``common`` is how many probe constants every
        member holds; ``counts`` maps each member that shares any other
        probe constant to how many of those it shares, and the most recent
        member, which stands in for the members that share none, to its
        count too. Constants every member holds are counted once, not
        walked."""
        common, counts, members = 0, {}, len(self.signatures)
        for constant in probe:
            posting = self.postings.get(constant)
            if posting is None:
                continue
            if len(posting) == members:
                common += 1
                continue
            for member in posting:
                counts[member] = counts.get(member, 0) + 1
        counts.setdefault(self.latest, 0)
        return common, counts


class MonitorDB:
    """Append-only performance log plus the in-memory pending queue.

    ``weights`` are the (structure, objects, constants) similarity
    weights, each non-negative; None means the module defaults.
    """

    def __init__(self, path=None, weights=None):
        self.path = path
        self.weights = weights
        self.records = []
        self._buckets = {}  # (structure, objects, constant count) -> _Bucket
        self._bucket_of = {}  # signature -> (its _Bucket, its member number)
        self.pending = []  # (signature, plan, context) awaiting background run
        self.torn_tail = ""  # the incomplete final line replay dropped
        if path and os.path.exists(path):
            self._replay()

    def _replay(self):
        complete = 0  # characters (ASCII, so bytes) in complete lines
        signatures, texts = {}, {}
        with open(self.path, encoding="ascii", newline="\n") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith("\n"):
                    self.torn_tail = line
                    break
                complete += len(line)
                if line != "\n":
                    self._index(_parse_line(line[:-1], lineno, signatures,
                                            texts))
        if self.torn_tail:
            # the next append must start on a fresh line
            os.truncate(self.path, complete)

    def _index(self, record):
        sig = record.signature
        found = self._bucket_of.get(sig)
        if found is None:
            constants = set(sig.constants)
            key = (sig.structure, sig.objects, len(constants))
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket(*key)
            found = self._bucket_of[sig] = (bucket, bucket.add(sig, constants))
        bucket, member = found
        if record.signature is not bucket.signatures[member]:
            # one Signature object per signature: the one the index holds
            record = replace(record, signature=bucket.signatures[member])
        bucket.history[member].append(len(self.records))
        bucket.latest = member
        self.records.append(record)

    def record(self, record):
        """Index a record and append it durably to the log."""
        if self.path:
            if not self.records:  # the log's directory may not exist yet
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            with open(self.path, "a", encoding="ascii") as fh:
                fh.write(_fmt(record) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        self._index(record)

    # --- lookups -----------------------------------------------------------

    def signatures(self):
        return list(self._bucket_of)

    def records_for(self, signature):
        found = self._bucket_of.get(signature)
        if found is None:
            return []
        bucket, member = found
        return [self.records[i] for i in bucket.history[member]]

    def nearest(self, signature):
        """(signature, similarity) of the closest recorded signature; ties
        go to the signature recorded most recently."""
        probe = set(signature.constants)
        ranked = sorted(
            ((b.bound(signature, probe, self.weights), b)
             for b in self._buckets.values()),
            key=lambda pair: pair[0], reverse=True)
        best = None  # (score, recency, signature)
        for bound, bucket in ranked:
            # '<', not '<=': an equal score can still win on recency
            if best is not None and bound < best[0]:
                break
            common, counts = bucket.shared_counts(probe)
            # members sharing as many constants score the same, so only
            # the most recent of them can win
            by_shared = {}  # shared count -> (recency, member)
            for member, shared in counts.items():
                candidate = (bucket.history[member][-1], member)
                if candidate > by_shared.get(shared, (-1,)):
                    by_shared[shared] = candidate
            same = bucket.structure == signature.structure
            objects = jaccard(bucket.objects, signature.objects)
            for shared, (recency, member) in by_shared.items():
                shared += common
                union = len(probe) + bucket.size - shared
                score = _weighted(self.weights, same, objects,
                                  shared / union if union else 1.0)
                if best is None or (score, recency) > best[:2]:
                    best = (score, recency, bucket.signatures[member])
        if best is None:
            return None, 0.0
        return best[2], best[0]

    def best_plan(self, signature):
        """Plan id with the lowest mean runtime over successful runs; ties
        break to the lexicographically smallest id."""
        return _lowest(_plan_means(self.records_for(signature)))

    def mean_usage(self, signature, plan_id=None):
        """Per-engine arithmetic mean of busy fractions across records,
        optionally restricted to one plan."""
        sums, counts = defaultdict(float), defaultdict(int)
        for rec in self.records_for(signature):
            if plan_id is not None and rec.plan_id != plan_id:
                continue
            for engine, frac in rec.usage.items():
                sums[engine] += frac
                counts[engine] += 1
        return {e: sums[e] / counts[e] for e in sums}

    def best_plan_for_usage(self, signature, current_usage,
                            bound=USAGE_DIFFERENCE_BOUND):
        """Min-mean plan over only the records whose usage snapshot is
        within the large-difference bound of current usage; None when no
        record qualifies."""
        return _lowest(_plan_means(
            rec for rec in self.records_for(signature)
            if not usage_differs(rec.usage, current_usage, bound)))

    # --- pending queue -------------------------------------------------------

    def enqueue(self, signature, plan, context):
        self.pending.append((signature, plan, context))

    def pop_pending(self):
        return self.pending.pop(0) if self.pending else None

    # --- reporting -----------------------------------------------------------

    def dump_lines(self):
        return [_fmt(r) for r in self.records]

    def plan_means(self, structure):
        """Per-plan mean runtimes over the records of every signature
        whose structure hash starts with ``structure``; used by the CLI
        stats command."""
        return _plan_means(rec for rec in self.records
                           if rec.signature.structure.startswith(structure))

    def stats(self):
        """Per-signature summary used by the CLI."""
        out = []
        for sig in self._bucket_of:
            recs = self.records_for(sig)
            ok = [r for r in recs if r.phase != "failed"]
            means = _plan_means(ok)
            out.append({
                "structure": sig.structure[:12],
                "objects": sorted(sig.objects),
                "runs": len(recs),
                "plans": len(means),
                "best_plan": _lowest(means),
                "mean_runtime_ms": (
                    sum(r.runtime_ms for r in ok) / len(ok) if ok else None
                ),
            })
        return out
