"""Versioned simulator snapshots with bit-identical resume.

A *checkpoint* is a single JSON document capturing the full dynamic state
of a :class:`~repro.sim.gpu.GpuSimulator` mid-run, taken at the top of a
main-loop iteration (the one point where the machine state is
self-consistent).  Because each loop iteration is a pure function of the
iteration-start state, a simulator restored from a checkpoint replays the
remaining iterations *bit-identically*: the resumed run's
:class:`~repro.sim.stats.SimStats` match an uninterrupted run exactly.

The envelope format::

    {
      "schema":         CHECKPOINT_SCHEMA,   # snapshot format version
      "fingerprint":    "<caller tag>",      # e.g. the sweep-run fingerprint
      "config_sha256":  "<config hash>",     # machine-description hash
      "cycle":          <int>,               # simulated cycle of the snapshot
      "payload":        {...},               # dump_state(simulator)
      "payload_sha256": "<payload hash>"     # integrity digest
    }

The payload is written by one generic codec (:func:`dump_state` /
:func:`load_state`) rather than by per-class methods.  Starting from the
simulator it stores, by default, every field of every reachable object,
whether the field sits in ``__slots__`` or an instance ``__dict__``, so a
field added later is stored without anyone having to remember it.  A
class names only the fields it does *not* store, in two class
attributes:

* ``snapshot_static`` — rebuilt at construction or by id lookup: configs,
  instruction streams and blocks, observer and owner references,
  run-loop hooks;
* ``snapshot_derived`` — rebuilt after load by the object's
  ``after_restore()`` method (the DRAM scheduling index, for one).

Restore assigns the stored fields onto a machine built by its normal
constructors: a stored object lands on the live object at the same place
when it has the same class.  Objects created at run time (warps, requests,
buffer entries, table entries) are rebuilt without their constructors,
their unstored fields set to None until an ``after_restore()`` hook
rebuilds them.  One identity memo makes an object held in several places
(a request in an MRQ, the interconnect and a DRAM buffer entry; a warp a
request waits on) restore as one object.  The encoder (:class:`_Encoder`),
like the decoder (:class:`_Decoder`), is a one-pass object whose methods
reach each other through ``self``, so a snapshot write leaves no
reference cycle for the garbage collector.

Payload encoding: scalars are themselves and lists are lists; tuples,
dicts, ordered dicts, sets and deques are one-key objects (``{"t": [...]}``,
``{"d": [k, v, ...]}``, ``{"o": [...]}``, ``{"s": [...]}``,
``{"q": [maxlen, [...]]}``); ``{"r": n}`` refers back to the n-th object
written.  An object held in a field is written by name, ``{"@": class,
field: value, ...}``, so the payload reads like the machine
(``payload["metrics"]["next_sample_cycle"]``); an object held in a
container is written as a row, ``{class: [values...]}``.  The root also
records under ``@layout`` every class's module and stored fields, and the
load path rejects a snapshot whose layout for any class differs from the
running code's, so a layout change never depends on someone remembering a
schema bump.

Static state is deliberately *not* stored: the config, the prefetcher
construction and the instruction streams are all rebuilt
deterministically from the run spec, and the envelope's
``config_sha256`` / ``fingerprint`` fields reject a snapshot loaded
against the wrong machine or workload.  The payload digest is computed
over the canonical JSON encoding of the payload, which Python's ``json``
round-trips exactly (shortest-repr floats; ``Infinity`` allowed), and
that canonical text is what the file holds — any torn or bit-flipped
file fails validation with a structured
:class:`~repro.sim.errors.CheckpointError` instead of corrupting a run.

Writes are atomic (:func:`~repro.sim.artifacts.atomic_write_json`, the
helper the sweep result cache writes through): a crash mid-write leaves
either the previous valid checkpoint or a stray temp file, never a
half-written snapshot at the final path.

Auto-snapshots ride the simulator's run-loop hook list
(:attr:`~repro.sim.gpu.GpuSimulator.hooks`): :func:`attach_checkpointing`
appends a periodic hook, and a run's sentinel flushes that same hook
before a structured exit.  The hook writes through a
:class:`~repro.sim.artifacts.Sink`, the policy every best-effort
artifact shares: the first failed snapshot warns once and stops the
run's auto-snapshots, and the run carries on without crash recovery.
Typical use (what :mod:`repro.harness.runner` does from a
:class:`~repro.harness.sweep.RunOptions` checkpoint directory)::

    tag = fingerprint(spec)
    sim = GpuSimulator(config, factory)
    sim.load_workload(blocks, max_blocks)
    attach_checkpointing(sim, path, interval=50_000, fingerprint=tag)
    result = sim.run(strict=True)        # snapshots every ~50K cycles

    # ... after a crash, in a fresh process:
    envelope = load_checkpoint(path, fingerprint=tag, config=config)
    sim = restore_simulator(envelope, config, factory, blocks, max_blocks)
    result = sim.run(strict=True)        # picks up where the crash hit
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import json
import sys
from collections import OrderedDict, deque
from operator import attrgetter
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.sim.artifacts import Sink, atomic_write_json
from repro.sim.config import GpuConfig
from repro.sim.errors import CheckpointError

#: Snapshot format version.  Bump when the envelope shape or the payload
#: encoding changes; loaders reject snapshots from other versions rather
#: than guessing.  A class's field layout needs no bump: the payload
#: records it and :func:`load_state` checks it.
CHECKPOINT_SCHEMA = 2


def canonical_json(document: object) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace.

    Digests are computed over this encoding so they are independent of
    formatting and key order.  ``allow_nan`` stays on: the throttle
    engine's early-eviction rate can legitimately be ``inf``, and
    Python's codec round-trips it (as ``Infinity``).  Documents are trees
    (a payload's shared objects are memo references), so the encoder's
    cycle check is skipped: it costs a quarter of a snapshot's encode.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), check_circular=False
    )


def payload_digest(payload: Dict) -> str:
    """SHA-256 hex digest of a payload's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def config_fingerprint(config: GpuConfig) -> str:
    """SHA-256 hex digest identifying a machine configuration.

    Computed over the canonical JSON of ``dataclasses.asdict(config)``
    (non-JSON field values stringified), so two configs hash equal iff
    every Table II knob matches — a checkpoint taken on one machine
    description can never silently restore onto another.
    """
    document = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The snapshot codec
# ----------------------------------------------------------------------

#: Types a payload stores as themselves.
_SCALARS = frozenset((int, float, str, bool, type(None)))

#: Container types the codec writes as tagged one-key objects.
_CONTAINERS = frozenset((list, tuple, dict, OrderedDict, set, deque))


def declared_fields(cls: type) -> FrozenSet[str]:
    """Fields ``cls`` and its bases declare unstored (static or derived)."""
    names: set = set()
    for klass in cls.__mro__:
        names.update(vars(klass).get("snapshot_static", ()))
        names.update(vars(klass).get("snapshot_derived", ()))
    return frozenset(names)


def _slot_names(cls: type) -> List[str]:
    """``__slots__`` of ``cls`` and its bases, bases first."""
    return [
        name
        for klass in reversed(cls.__mro__)
        for name in vars(klass).get("__slots__", ())
        if name not in ("__dict__", "__weakref__")
    ]


def stored_fields(obj: object) -> Tuple[str, ...]:
    """Fields of ``obj`` a snapshot stores: all of them minus the declared.

    "All" is the slots of its classes (bases first) followed by its
    instance ``__dict__`` keys in assignment order.  A declared name that
    is no field of ``obj`` raises ``TypeError``, so a rename cannot leave
    a stale declaration behind.
    """
    declared = declared_fields(type(obj))
    names = _slot_names(type(obj)) + list(getattr(obj, "__dict__", ()))
    stale = declared.difference(names)
    if stale:
        raise TypeError(
            f"{type(obj).__qualname__} declares unstored fields it does not "
            f"have: {sorted(stale)}"
        )
    return tuple(n for n in names if n not in declared)


def dump_state(root: object) -> Dict[str, object]:
    """Encode every object reachable from ``root`` as a plain-JSON payload.

    See the module docstring for the encoding.  Objects are memoized by
    identity: the first visit writes the object, later ones write
    ``{"r": n}``, its index in visiting order.  Values the codec cannot
    represent (functions, classes, other builtins) raise ``TypeError``
    naming the type, so an unstorable new field fails loudly.  Fields in
    an instance ``__dict__`` are read through it, which on CPython 3.11
    slows that object's attribute access for good: the simulator's own
    classes use ``__slots__``.
    """
    encoder = _Encoder()
    payload = encoder.instance(root, True)
    payload["@layout"] = encoder.table
    return payload


class _Encoder:
    """One :func:`dump_state` pass: the identity memo and class layouts.

    The mirror of :class:`_Decoder`.  Its methods reach one another
    through ``self``, not as closures over each other, so a pass leaves
    no reference cycle: the encoder and its memo are freed by reference
    counting when the pass returns, and a checkpoint write hands the
    cyclic collector nothing to trace.
    """

    __slots__ = ("memo", "layouts", "table")

    def __init__(self) -> None:
        self.memo: Dict[int, int] = {}
        self.layouts: Dict[type, tuple] = {}
        self.table: Dict[str, list] = {}

    def layout(self, obj: object) -> tuple:
        """Record ``obj``'s class under ``@layout``; return its field reader."""
        cls = type(obj)
        if cls.__module__ == "builtins" or isinstance(obj, type):
            raise TypeError(f"cannot snapshot a {cls.__qualname__} value")
        tag = cls.__qualname__
        table = self.table
        if tag in table:
            raise TypeError(f"two snapshot classes are named {tag!r}")
        fields = stored_fields(obj)
        table[tag] = [cls.__module__, list(fields)]
        # attrgetter returns a tuple only when given two or more names.
        getter = attrgetter(*fields) if len(fields) > 1 else (
            lambda o: tuple(getattr(o, name) for name in fields)
        )
        # Instances that keep fields in a __dict__ are checked one by one
        # (nothing forces two of them to carry the same attributes): the
        # attribute names of this first one are the fast-path reference.
        keys = tuple(obj.__dict__) if cls.__dictoffset__ != 0 else None
        entry = self.layouts[cls] = (tag, fields, getter, keys)
        return entry

    def encode(self, value: object) -> object:
        """Encode a non-scalar: a container, or an object written as a row."""
        kind = type(value)
        if kind not in _CONTAINERS:
            return self.instance(value, False)
        scalars = _SCALARS
        if kind is list:
            return [x if type(x) in scalars else self.encode(x) for x in value]
        if kind is tuple:
            return {"t": [x if type(x) in scalars else self.encode(x) for x in value]}
        if kind is dict or kind is OrderedDict:
            flat: list = []
            append = flat.append
            for key, item in value.items():
                append(key if type(key) in scalars else self.encode(key))
                append(item if type(item) in scalars else self.encode(item))
            return {"d" if kind is dict else "o": flat}
        if kind is set:
            items = sorted(value)
            return {"s": [x if type(x) in scalars else self.encode(x) for x in items]}
        return {"q": [value.maxlen,
                      [x if type(x) in scalars else self.encode(x) for x in value]]}

    def instance(self, obj: object, named: bool) -> object:
        """Encode one object, or a reference to its first encoding."""
        memo = self.memo
        key = id(obj)
        index = memo.get(key)
        if index is not None:
            return {"r": index}
        memo[key] = len(memo)
        entry = self.layouts.get(type(obj))
        if entry is None:
            entry = self.layout(obj)
        tag, fields, getter, keys = entry
        if keys is not None and tuple(obj.__dict__) != keys:
            if stored_fields(obj) != fields:
                raise TypeError(
                    f"{tag} instances differ in fields: {list(fields)} vs "
                    f"{list(stored_fields(obj))}"
                )
        # Field values are dispatched inline, not through a helper: this
        # loop runs once per stored object.  An object held directly in a
        # field is written by name.
        scalars = _SCALARS
        containers = _CONTAINERS
        values = []
        for value in getter(obj):
            kind = type(value)
            if kind in scalars:
                values.append(value)
            elif kind in containers:
                values.append(self.encode(value))
            else:
                values.append(self.instance(value, True))
        if named:
            out: Dict[str, object] = {"@": tag}
            out.update(zip(fields, values))
            return out
        return {tag: values}


def check_layout(table: Dict[str, list]) -> Dict[str, tuple]:
    """Resolve a payload's ``@layout`` table against the running code.

    Returns ``{tag: (class, stored fields, unstored names)}``.  Raises
    :class:`CheckpointError` when a recorded class no longer exists or
    stores other fields than the running class would: a resume rejects
    such a snapshot and cold-starts, and ``repro fsck`` rates it stale.
    The fields of a class that keeps them in an instance ``__dict__``
    are not fixed by the class, so :func:`load_state` checks them per
    instance.  Only classes of the ``repro`` package are imported.
    """
    classes: Dict[str, tuple] = {}
    for tag, (module, fields) in table.items():
        if module.partition(".")[0] == "repro":
            try:
                cls = importlib.import_module(module)
            except ImportError:
                cls = None
        else:
            cls = sys.modules.get(module)
        for part in tag.split("."):
            cls = getattr(cls, part, None)
        if not isinstance(cls, type):
            raise CheckpointError(
                f"snapshot class {module}.{tag} does not exist",
                snapshot={"class": f"{module}.{tag}"},
            )
        declared = declared_fields(cls)
        fields = tuple(fields)
        if cls.__dictoffset__ == 0:
            # Fields fixed by __slots__: check against the class now.
            running = tuple(n for n in _slot_names(cls) if n not in declared)
            _check_fields(tag, fields, running)
        classes[tag] = (cls, fields, declared)
    return classes


def _check_fields(tag: str, recorded: Tuple[str, ...], running: Tuple[str, ...]) -> None:
    """Reject a class whose stored fields differ from the running code's."""
    if recorded != running:
        raise CheckpointError(
            f"field layout of {tag} changed: snapshot stores "
            f"{list(recorded)}, the running code has {list(running)}",
            snapshot={"class": tag, "recorded": list(recorded),
                      "running": list(running)},
        )


def load_state(payload: Dict[str, object], root: object) -> object:
    """Assign a :func:`dump_state` payload onto ``root``; returns ``root``.

    ``root`` and every object the constructors built under it receive
    their stored fields in place; objects with no live counterpart are
    rebuilt without their constructors.  Afterwards every restored object
    that defines ``after_restore()`` is called, in restore order, to
    rebuild what the snapshot does not store.

    Raises :class:`CheckpointError` when the recorded field layout of any
    class differs from the running code's (:func:`check_layout`, before
    anything is assigned), or when the payload is not one
    :func:`dump_state` could have written.  The target is then left
    partially restored and must be discarded.
    """
    try:
        return _Decoder(payload["@layout"]).restore(payload, root)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"snapshot payload cannot be restored: {exc!r}",
            snapshot={"error": repr(exc)},
        ) from exc


class _Decoder:
    """One :func:`load_state` pass: the identity memo and resolved classes."""

    def __init__(self, table: Dict[str, list]) -> None:
        self.memo: List[object] = []
        self.classes = check_layout(table)
        self.restored: List[object] = []

    def restore(self, payload: Dict[str, object], root: object) -> object:
        """Assign ``payload`` onto ``root``, then run the restore hooks."""
        cls = self.classes[payload["@"]][0]
        if type(root) is not cls:
            raise TypeError(f"payload holds a {cls.__qualname__}, not a "
                            f"{type(root).__qualname__}")
        self.instance(payload["@"], payload, root, named=True)
        for obj in self.restored:
            obj.after_restore()
        return root

    def value(self, value: object, live: object = None) -> object:
        """Decode one payload value; ``live`` is what the machine holds there."""
        kind = type(value)
        if kind is list:
            if type(live) is list:
                n = len(live)
                return [
                    self.value(x, live[i] if i < n else None)
                    for i, x in enumerate(value)
                ]
            return [x if type(x) in _SCALARS else self.value(x) for x in value]
        if kind is not dict:
            return value
        if "@" in value:
            return self.instance(value["@"], value, live, named=True)
        ((tag, body),) = value.items()
        if tag == "r":
            return self.memo[body]
        if tag == "t":
            return tuple(self.value(x) for x in body)
        if tag == "d" or tag == "o":
            items = [self.value(x) for x in body]
            pairs = zip(items[0::2], items[1::2])
            return dict(pairs) if tag == "d" else OrderedDict(pairs)
        if tag == "s":
            return {self.value(x) for x in body}
        if tag == "q":
            return deque((self.value(x) for x in body[1]), maxlen=body[0])
        return self.instance(tag, body, live, named=False)

    def instance(self, tag: str, body, live: object, named: bool) -> object:
        """Restore one object onto ``live`` if it has the class, else anew."""
        cls, fields, unstored = self.classes[tag]
        if type(live) is cls:
            obj = live
            if cls.__dictoffset__ != 0:
                _check_fields(tag, fields, stored_fields(obj))
        else:
            obj = cls.__new__(cls)
            for name in unstored:
                setattr(obj, name, None)
            live = None
        self.memo.append(obj)
        if hasattr(cls, "after_restore"):
            self.restored.append(obj)
        values = (body[name] for name in fields) if named else body
        for name, value in zip(fields, values):
            if type(value) in _SCALARS:
                setattr(obj, name, value)
            else:
                current = getattr(obj, name, None) if live is not None else None
                setattr(obj, name, self.value(value, current))
        return obj


def write_checkpoint(
    path: Union[str, Path],
    sim: "object",
    fingerprint: str = "",
    config_sha256: Optional[str] = None,
) -> Path:
    """Snapshot a simulator into a versioned envelope at ``path``.

    The payload is encoded once, canonically; that text is both what the
    digest covers and what the file holds.

    Args:
        path: Destination file (parents created; write is atomic).
        sim: The :class:`~repro.sim.gpu.GpuSimulator` to snapshot.  Its
            ``cycle`` attribute must reflect the current loop cycle (the
            run-loop hook guarantees this).
        fingerprint: Caller-chosen workload tag (e.g. the sweep-run
            fingerprint); validated on load so a snapshot cannot be
            resumed against a different run spec.
        config_sha256: :func:`config_fingerprint` of ``sim.config``, if
            the caller already holds it; computed here otherwise.

    Returns:
        The path written.
    """
    # The payload is a tree of fresh containers that reference counting
    # frees once encoded; with the cyclic collector off meanwhile, its
    # build triggers no collections that would only traverse (and age)
    # it together with every instruction stream in the process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        payload = canonical_json(dump_state(sim))
    finally:
        if collecting:
            gc.enable()
    head = canonical_json({
        "schema": CHECKPOINT_SCHEMA,
        "fingerprint": fingerprint,
        "config_sha256": config_sha256 or config_fingerprint(sim.config),
        "cycle": sim.cycle,
        "payload_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    })
    return atomic_write_json(path, text=head[:-1] + ',"payload":' + payload + "}")


def _reject(path: Path, message: str, **context: object) -> CheckpointError:
    """Build a :class:`CheckpointError` with a structured snapshot."""
    snapshot: Dict = {"path": str(path)}
    snapshot.update(context)
    return CheckpointError(f"checkpoint {path}: {message}", snapshot=snapshot)


def load_checkpoint(
    path: Union[str, Path],
    fingerprint: Optional[str] = None,
    config: Optional[GpuConfig] = None,
) -> Dict:
    """Read and validate a checkpoint envelope.

    Validation order: file readable and parsable → envelope shape →
    schema version → payload digest → workload fingerprint → config
    hash.  Every failure raises :class:`CheckpointError` carrying a
    diagnostic snapshot (path, expected/actual values), which the sweep
    engine records before falling back to a cold start.

    Args:
        path: Checkpoint file to read.
        fingerprint: When given, must equal the envelope's
            ``fingerprint`` field.
        config: When given, its :func:`config_fingerprint` must equal
            the envelope's ``config_sha256`` field.

    Returns:
        The validated envelope dict.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _reject(path, f"unreadable: {exc}", error=str(exc)) from exc
    except UnicodeDecodeError as exc:
        # A torn or overwritten file can contain arbitrary bytes; that is
        # a corrupt snapshot, not a programming error.
        raise _reject(path, f"not UTF-8: {exc}", error=str(exc)) from exc
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise _reject(path, f"not valid JSON: {exc}", error=str(exc)) from exc
    if not isinstance(envelope, dict):
        raise _reject(
            path, "envelope is not an object", found=type(envelope).__name__
        )
    required = (
        "schema",
        "fingerprint",
        "config_sha256",
        "cycle",
        "payload",
        "payload_sha256",
    )
    missing = [key for key in required if key not in envelope]
    if missing:
        raise _reject(path, f"missing envelope fields: {missing}", missing=missing)
    if envelope["schema"] != CHECKPOINT_SCHEMA:
        raise _reject(
            path,
            f"schema version {envelope['schema']!r} != {CHECKPOINT_SCHEMA}",
            found=envelope["schema"],
            expected=CHECKPOINT_SCHEMA,
        )
    if not isinstance(envelope["payload"], dict):
        raise _reject(
            path,
            "payload is not an object",
            found=type(envelope["payload"]).__name__,
        )
    digest = payload_digest(envelope["payload"])
    if digest != envelope["payload_sha256"]:
        raise _reject(
            path,
            "payload digest mismatch (torn or corrupted snapshot)",
            expected=envelope["payload_sha256"],
            actual=digest,
        )
    if fingerprint is not None and envelope["fingerprint"] != fingerprint:
        raise _reject(
            path,
            "workload fingerprint mismatch (snapshot is for a different run)",
            expected=fingerprint,
            actual=envelope["fingerprint"],
        )
    if config is not None:
        expected = config_fingerprint(config)
        if envelope["config_sha256"] != expected:
            raise _reject(
                path,
                "config fingerprint mismatch (snapshot is for a different machine)",
                expected=expected,
                actual=envelope["config_sha256"],
            )
    return envelope


def restore_simulator(
    envelope: Dict,
    config: GpuConfig,
    prefetcher_factory: Optional[object],
    blocks: Sequence[object],
    max_blocks_per_core: int,
    invariants: Optional[bool] = None,
    profiler: Optional[object] = None,
    metrics: Optional[object] = None,
) -> "object":
    """Build a fresh simulator and restore a validated envelope into it.

    Args:
        envelope: Output of :func:`load_checkpoint`.
        config: The machine configuration (must match the one the
            snapshot was taken under; :func:`load_checkpoint` enforces
            this when given the config).
        prefetcher_factory: The same per-core prefetcher factory used by
            the original run (prefetcher *construction parameters* are
            static; only trained table state rides in the payload).
        blocks: The kernel's thread blocks, regenerated from the same
            spec (instruction streams are static and never serialized).
        max_blocks_per_core: Occupancy limit from the kernel spec.
        invariants: Attach invariant checking (None defers to
            ``$REPRO_INVARIANTS``, as at normal construction).
        profiler: Attach a profiler; when the snapshot carries profiler
            counters they are restored so the final profile spans both
            processes.
        metrics: Attach a
            :class:`~repro.sim.telemetry.MetricsRecorder`; when the
            snapshot carries recorder state (window ring, running
            snapshot, next sample boundary) it is restored so the
            resumed run's window series continues bit-identically.

    Returns:
        A :class:`~repro.sim.gpu.GpuSimulator` positioned at the
        snapshot's cycle; calling ``run()`` continues the interrupted
        simulation bit-identically.

    Raises:
        CheckpointError: The payload's field layout differs from the
            running code's (see :func:`load_state`).
    """
    from repro.sim.gpu import GpuSimulator

    sim = GpuSimulator(
        config, prefetcher_factory, invariants=invariants, profiler=profiler,
        metrics=metrics,
    )
    sim.load_workload(blocks, max_blocks_per_core)
    attached = (sim.invariants, sim.profiler, sim.metrics)
    load_state(envelope["payload"], sim)
    # Observer state restores only into an observer this run attached: a
    # snapshot's observer with no live counterpart was rebuilt and is
    # dropped here, and an observer the snapshot lacks starts fresh.
    sim.invariants, sim.profiler, sim.metrics = attached
    return sim


def attach_checkpointing(
    sim: "object", path: Union[str, Path], interval: int, fingerprint: str = ""
) -> Optional["object"]:
    """Arm a simulator to auto-checkpoint every ``interval`` cycles.

    Appends a :class:`~repro.sim.gpu.PeriodicHook` to ``sim.hooks`` whose
    first boundary is strictly past the simulator's current cycle, and
    returns it (a run's sentinel flushes it before a structured exit).
    The run loop then calls :func:`write_checkpoint` at the first loop
    iteration at or past each interval boundary.  ``interval <= 0``
    attaches nothing and returns None.

    Snapshots go through one :class:`~repro.sim.artifacts.Sink`: a
    write that raises ``OSError`` (disk full, quota, permissions) emits
    one ``RuntimeWarning`` and stops further auto-snapshots for this run
    instead of crashing it — crash *recoverability* degrades, the
    simulation itself survives.
    """
    from repro.sim.gpu import PeriodicHook

    if interval <= 0:
        return None
    destination = Path(path)
    sink = Sink("auto-checkpoint")
    # A run's config never changes, so every snapshot shares one hash.
    config_sha256 = config_fingerprint(sim.config)

    def _auto_snapshot(snapshot_sim: "object") -> None:
        sink.attempt(
            write_checkpoint, destination, snapshot_sim,
            fingerprint=fingerprint, config_sha256=config_sha256,
        )

    hook = PeriodicHook(interval, _auto_snapshot, sim.cycle)
    sim.hooks.append(hook)
    return hook
