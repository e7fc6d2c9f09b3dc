"""A finished simulation is freed by reference counting alone.

The simulated machine's object graph must hold no reference cycle: an
owner's back-references (a core's MRQ, a DRAM channel's buffered
prefetch riders, the invariant checker's simulator) are weak proxies,
a snapshot write leaves no encoder cycle, and the profile and metrics
documents go through ``json``'s C encoder (the pure-Python one, which
an ``indent`` selects, leaves its closures behind).  Otherwise every
dead machine of a long sweep stays resident until a full collection.
Each case runs :func:`run_spec`, drops the result, and asserts that the
run left nothing at all for the cyclic collector.
"""

import gc
import types

import pytest

from repro.harness.runner import HARDWARE_SCHEMES, make_spec, run_spec
from repro.harness.sweep import RunOptions

#: Small enough for ~40 runs in a few seconds; large enough that MT-HWP
#: still has prefetch entries buffered in DRAM when the last warp retires.
SCALE = 0.03


def _defined_in(obj):
    """Module and name of the function ``obj`` is, or of its class."""
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or "", obj.__qualname__
    return type(obj).__module__, type(obj).__qualname__


def _garbage(spec, options):
    """The classes and functions of what the run left for the cyclic
    collector."""
    gc.collect()
    # Collections during the run then traverse only what it allocates.
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_spec(spec, options)
        gc.collect()
        found = {_defined_in(obj) for obj in gc.garbage}
        return sorted(f"{module}.{name}" for module, name in found)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()


@pytest.mark.parametrize("throttle", [False, True], ids=["static", "throttled"])
@pytest.mark.parametrize("hardware", sorted(HARDWARE_SCHEMES))
def test_hardware_scheme_run_leaves_no_cycle(hardware, throttle):
    spec = make_spec("monte", hardware=hardware, throttle=throttle, scale=SCALE)
    assert _garbage(spec, RunOptions()) == []


@pytest.mark.parametrize("software", ["register", "stride", "ip", "mt-swp"])
def test_software_scheme_run_leaves_no_cycle(software):
    spec = make_spec("monte", software=software, scale=SCALE)
    assert _garbage(spec, RunOptions()) == []


def _observer_options(tmp_path):
    """Each observer's RunOptions fields, at short intervals."""
    return {
        "invariants": {"invariants": True},
        "profile": {"profile_dir": tmp_path / "profiles"},
        "metrics": {"metrics_dir": tmp_path / "metrics", "metrics_interval": 500},
        "checkpoints": {"checkpoint_dir": tmp_path / "ckpt",
                        "checkpoint_interval": 1000},
        "heartbeats": {"heartbeat_dir": tmp_path / "hb",
                       "heartbeat_interval": 0.001},
    }


@pytest.mark.parametrize(
    "observer",
    ["invariants", "profile", "metrics", "checkpoints", "heartbeats", "all"],
)
def test_observed_run_leaves_no_cycle(observer, tmp_path):
    fields = _observer_options(tmp_path)
    if observer == "all":
        options = RunOptions(**{k: v for f in fields.values() for k, v in f.items()})
    else:
        options = RunOptions(**fields[observer])
    spec = make_spec("monte", hardware="mt-hwp", throttle=True, scale=SCALE)
    assert _garbage(spec, options) == []
    if observer in ("checkpoints", "all"):
        # The run wrote snapshots (and removed the last one on completion).
        assert (tmp_path / "ckpt").is_dir()
