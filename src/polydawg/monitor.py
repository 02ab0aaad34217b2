"""Performance history for trained queries.

Every plan execution appends one record to a durable, append-only,
line-oriented log. Each line holds tab-separated fields, each
percent-escaped so tabs/newlines in payloads cannot corrupt framing:

    ts  phase  structure  objects  constants  plan-id  runtime-ms  usage

``objects`` and ``constants`` join their elements with ';'; ``usage`` is
``engine=busyfraction`` pairs joined with ','. Opening a log checks each
line with one pattern, ``_LINE``, and files its raw text under its bucket
(below); a line the pattern refuses goes to ``_parse_line``, which raises
its error or accepts it. A bucket is built when first touched, and a
record parsed when first read, sharing its member's one ``Signature``. A
final line without its newline is an append that was cut short: opening
drops it and truncates the log. Creating the log syncs its directory.

``MonitorDB.nearest`` finds the most similar recorded signature without
scoring every one. Signatures are bucketed by structure hash, object set
and number of distinct constants. A member shares at most the smaller of
its own and the probe's constant counts, out of at least the larger, which
bounds the similarity of every member of a bucket; buckets are visited, and
built, in order of that bound until it falls below the best score found. A
bucket numbers its members in the order they joined, keyed by their raw
constants field, and keeps, per member, its signature and the indexes of
its records, so a lookup counts and compares ints. Inside a bucket an
inverted index from each raw constant to the members holding it gives the
shared-constant count of every member that overlaps the probe. Members
with equal counts score the same, so only the one recorded most recently
can win, and the bucket's most recent member stands in for those that
share no constant beyond the ones every member holds. The result equals
scoring every signature, ties to the most recent included.
"""

import os
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from urllib.parse import quote, unquote

from .errors import MonitorError
from .planner import Signature

# similarity weights: structure match dominates, then object overlap,
# then constant overlap
W_STRUCTURE = 0.6
W_OBJECTS = 0.3
W_CONSTANTS = 0.1
SIMILARITY_THRESHOLD = 0.8
USAGE_DIFFERENCE_BOUND = 0.5

_FIELDS = 8


@dataclass(frozen=True)
class PerfRecord:
    ts: float
    phase: str  # training | production | background | failed
    signature: Signature
    plan_id: str
    runtime_ms: float
    usage: dict  # engine id -> busy fraction over the sampling window


def _esc(text):
    return quote(text, safe="")


def _raw(constants):  # the constants field as the log spells it
    return _esc(";".join(_esc(c) for c in constants))


def _fmt(record):
    sig = record.signature
    fields = [
        repr(record.ts),
        record.phase,
        sig.structure,
        ";".join(_esc(o) for o in sorted(sig.objects)),
        ";".join(_esc(c) for c in sig.constants),
        record.plan_id,
        repr(record.runtime_ms),
        ",".join(f"{e}={record.usage[e]!r}" for e in sorted(record.usage)),
    ]
    return "\t".join(_esc(f) for f in fields)


def _parse_line(line, lineno, texts, signature=None):
    """The record on one log line. ``texts`` maps raw phase and plan-id
    fields to one shared str; ``signature``, when given, is the one the
    line's signature fields spell."""
    parts = line.split("\t")
    if len(parts) != _FIELDS:
        raise MonitorError(f"log line {lineno}: expected {_FIELDS} fields")
    try:
        if signature is None:
            structure, objects, constants = map(unquote, parts[2:5])
            signature = Signature(
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


# A line as ``_fmt`` writes it, capturing its raw structure, objects and
# constants; ``quote`` spells each ASCII constant one way, so raw is a key.
_FLOAT = r"-?(?:[0-9]+(?:\.[0-9]*)?(?:e(?:-|%2B)?[0-9]+)?|inf|nan)"
_BYTE = r"%25(?:[01][0-9A-F]|2[0-9A-CF]|3[A-F]|40|5[B-E]|60|7[B-DF])"
_CONSTANT = rf"(?:[-.0-9A-Z_a-z~]|{_BYTE})[-.0-9A-Z_a-z~]*(?:{_BYTE}" \
    rf"[-.0-9A-Z_a-z~]*)*"
_USAGE = rf"[-.0-9A-Z_a-z~]*%3D{_FLOAT}"
_LINE = re.compile(
    rf"{_FLOAT}\t[^\t]*\t([^\t]*)\t([^\t]*)\t((?:{_CONSTANT}(?:%3B"
    rf"{_CONSTANT})*)?)\t[^\t]*\t{_FLOAT}\t(?:{_USAGE}(?:%2C{_USAGE})*)?\n")


def _key(sig):
    return (sig.structure, sig.objects, len(set(sig.constants)))


def jaccard(a, b):
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _weighted(weights, same_structure, objects, constants):
    ws, wo, wc = weights or (W_STRUCTURE, W_OBJECTS, W_CONSTANTS)
    structure = 1.0 if same_structure else 0.0
    # rounding keeps weight sums exact (0.6 + 0.3 is 0.9, not 0.8999...)
    return round(ws * structure + wo * objects + wc * constants, 12)


def similarity(sig_a, sig_b, weights=None):
    """Weighted signature similarity in [0, 1]."""
    return _weighted(weights, sig_a.structure == sig_b.structure,
                     jaccard(sig_a.objects, sig_b.objects),
                     jaccard(set(sig_a.constants), set(sig_b.constants)))


def _plan_means(records):
    """Mean runtime per plan over the ``records`` that did not fail,
    summed in record order."""
    runtimes = defaultdict(list)
    for rec in records:
        if rec.phase != "failed":
            runtimes[rec.plan_id].append(rec.runtime_ms)
    return {pid: sum(v) / len(v) for pid, v in runtimes.items()}


def _lowest(means):
    """Plan id with the lowest mean, ties to the smallest id; None when
    ``means`` is empty."""
    return min(means, key=lambda pid: (means[pid], pid), default=None)


def usage_differs(usage_a, usage_b, bound=USAGE_DIFFERENCE_BOUND):
    """True when any engine's busy fraction differs by more than bound."""
    for engine in set(usage_a) | set(usage_b):
        if abs(usage_a.get(engine, 0.0) - usage_b.get(engine, 0.0)) > bound:
            return True
    return False


class _Bucket:
    """The signatures that share a structure hash, an object set and a
    number of distinct constants, numbered in the order they joined."""

    def __init__(self, structure, objects, size):
        self.structure = structure
        self.objects = objects
        self.size = size
        self.members = {}  # raw constants field -> member
        self.signatures = []  # member -> its signature, or raw field till read
        self.history = []  # member -> indexes of its records, oldest first
        self.postings = defaultdict(list)  # raw constant -> members holding it
        self.latest = None  # the most recently recorded member
        self.filed = []  # indexes of the records filed at open, not yet added

    def add(self, raw, i, signature=None):
        """Add record ``i`` to the member whose raw constants are ``raw``."""
        member = self.members.get(raw)
        if member is None:
            member = self.members[raw] = len(self.signatures)
            self.signatures.append(signature or raw)
            self.history.append([])
            # raw "" is no constant, or, with size 1, one empty one
            for constant in set(raw.split("%3B")) if raw or self.size else ():
                self.postings[constant].append(member)
        self.history[member].append(i)
        self.latest = member
        return member

    def signature(self, member):
        found = self.signatures[member]
        if isinstance(found, str):
            found = self.signatures[member] = Signature(
                self.structure, self.objects,
                tuple(unquote(c) for c in unquote(found).split(";") if c))
        return found

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
        # log order: each PerfRecord, or the raw line of one not yet read
        self._records = []
        self._buckets = {}  # (structure, objects, constant count) -> _Bucket
        self._texts = {}  # raw phase or plan-id field -> its shared str
        self.pending = []  # (signature, plan, context) awaiting background run
        self.torn_tail = ""  # the incomplete final line replay dropped
        if path and os.path.exists(path):
            self._replay()

    def _replay(self):
        complete = 0  # characters (ASCII, so bytes) in complete lines
        seen = {}  # raw (structure, objects, constant count) -> _Bucket
        with open(self.path, encoding="ascii", newline="\n") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith("\n"):
                    self.torn_tail = line
                    break
                complete += len(line)
                match = _LINE.match(line)
                if match:
                    structure, objects, constants = match.groups()
                    key = (structure, objects, len(set(
                        constants.split("%3B"))) if constants else 0)
                    bucket = seen.get(key)
                    if bucket is None:
                        bucket = seen[key] = self._bucket((unquote(
                            structure), frozenset(o for o in map(
                                unquote, unquote(objects).split(";")) if o),
                            key[2]))
                elif line != "\n":
                    line = _parse_line(line[:-1], lineno, self._texts)
                    bucket = self._bucket(_key(line.signature))
                else:
                    continue
                bucket.filed.append(len(self._records))
                self._records.append(line)
        if self.torn_tail:
            # the next append must start on a fresh line
            os.truncate(self.path, complete)

    def _bucket(self, key):
        return self._buckets.get(key) or self._buckets.setdefault(
            key, _Bucket(*key))

    def _build(self, bucket):
        """``bucket``, with every record filed under it at open added."""
        for i in bucket.filed:
            line = self._records[i]
            bucket.add(line.split("\t", 5)[4] if isinstance(line, str)
                       else _raw(line.signature.constants), i)
        bucket.filed.clear()
        return bucket

    def record(self, record):
        """Index a record and append it durably to the log. The record
        that creates the log syncs its directory too."""
        if self.path:
            directory = os.path.dirname(self.path) or "."
            created = not self._records and not os.path.exists(self.path)
            if created:  # the log's directory may not exist yet
                os.makedirs(directory, exist_ok=True)
            with open(self.path, "a", encoding="ascii") as fh:
                fh.write(_fmt(record) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            if created:  # a power loss must not lose the file
                os.fsync(fd := os.open(directory, os.O_RDONLY))
                os.close(fd)
        sig = record.signature
        self._build(self._bucket(_key(sig))).add(
            _raw(sig.constants), len(self._records), sig)
        self._records.append(record)

    # --- lookups -----------------------------------------------------------

    @property
    def records(self):
        """Every record, in log order."""
        for signature in self.signatures():
            self.records_for(signature)
        return list(self._records)

    def signatures(self):
        """Every recorded signature, in the order of its first record."""
        first = {history[0]: (bucket, member)
                 for bucket in self._buckets.values()
                 for member, history in enumerate(self._build(bucket).history)}
        return [bucket.signature(member)
                for _, (bucket, member) in sorted(first.items())]

    def records_for(self, signature):
        bucket = self._buckets.get(_key(signature))
        member = bucket and self._build(bucket).members.get(
            _raw(signature.constants))
        if member is None:
            return []
        signature, records = bucket.signature(member), self._records
        for i in bucket.history[member]:
            if isinstance(records[i], str):  # the pattern accepted it
                records[i] = _parse_line(records[i][:-1], 0, self._texts,
                                         signature)
            elif records[i].signature is not signature:  # share the member's
                records[i] = replace(records[i], signature=signature)
        return [records[i] for i in bucket.history[member]]

    def nearest(self, signature):
        """(signature, similarity) of the closest recorded signature; ties
        go to the signature recorded most recently."""
        probe = set(_raw(signature.constants).split("%3B")) \
            if signature.constants else set()
        ranked = sorted(
            ((b.bound(signature, probe, self.weights), b)
             for b in self._buckets.values()),
            key=lambda pair: pair[0], reverse=True)
        best = None  # (score, recency, bucket, member)
        for bound, bucket in ranked:
            # '<', not '<=': an equal score can still win on recency
            if best is not None and bound < best[0]:
                break
            common, counts = self._build(bucket).shared_counts(probe)
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
                    best = (score, recency, bucket, member)
        if best is None:
            return None, 0.0
        return best[2].signature(best[3]), best[0]

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
        for sig in self.signatures():
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
