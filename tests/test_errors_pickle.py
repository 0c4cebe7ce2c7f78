"""Every exception class in ``repro`` survives a pickle round trip.

Typed failures cross process boundaries: a pool worker's error is
pickled back to the parent (``run_map``), and the run farm caches
failures.  An exception whose ``__init__`` needs more than the formatted
message must rebuild from its own arguments, or unpickling raises
``TypeError`` (or garbles the message) in the parent.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.core.reliability import DeliveryFailed
from repro.engine.simulator import Interrupt, StuckError, StuckReport
from repro.network import Packet, PacketKind
from repro.runtime.errors import PeerDead, RuntimeTimeout
from repro.service.client import FarmError

#: Sample instances for classes whose constructor takes more than a
#: message; every other class is built as ``cls("boom")``.
SAMPLES = {
    RuntimeTimeout: lambda: RuntimeTimeout("cts", 2, 125_000.0),
    PeerDead: lambda: PeerDead("recv", 3, 5.0),
    DeliveryFailed: lambda: DeliveryFailed(
        Packet(kind=PacketKind.DSM_PAGE, src_node=0, dst_node=1,
               channel_id=1, handler_key=0x21, payload_bytes=4096), 9),
    StuckError: lambda: StuckError(
        "application deadlock: ['app1'] never finished (t=12.0 ns)",
        StuckReport(12.0, ["node1 dsm: page 3 from node 0"])),
    FarmError: lambda: FarmError(404, "no such job"),
    Interrupt: lambda: Interrupt("preempted"),
}


def _exception_classes():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for _name, obj in inspect.getmembers(module, inspect.isclass):
            if (issubclass(obj, BaseException)
                    and obj.__module__.startswith("repro.")):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return sorted(found.items())


def _same(a, b):
    """Structural equality for attributes without their own ``__eq__``."""
    if type(a) is not type(b):
        return False
    if a == b:
        return True
    if hasattr(a, "__dict__"):
        return (a.__dict__.keys() == b.__dict__.keys()
                and all(_same(a.__dict__[k], b.__dict__[k])
                        for k in a.__dict__))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return False


CLASSES = _exception_classes()


def test_walk_finds_the_typed_errors():
    names = {cls.__name__ for _q, cls in CLASSES}
    assert {"RuntimeTimeout", "PeerDead", "DeliveryFailed", "StuckError",
            "CollectiveError", "TopologyError"} <= names


@pytest.mark.parametrize("cls", [c for _q, c in CLASSES],
                         ids=[q for q, _c in CLASSES])
def test_exception_pickle_round_trip(cls):
    exc = SAMPLES.get(cls, lambda: cls("boom"))()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert _same(back, exc)


def test_stuck_error_keeps_its_report():
    exc = SAMPLES[StuckError]()
    back = pickle.loads(pickle.dumps(exc))
    assert back.report.at_ns == 12.0
    assert back.report.waits == ["node1 dsm: page 3 from node 0"]
    assert str(back).count("outstanding waits") == 1
