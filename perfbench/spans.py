"""Span tracing of xorcode's public functions, installed from outside the library.

``Tracer`` wraps each listed function and rebinds every ``xorcode`` module
attribute that holds it (the defining module, the package, and modules that
imported it by name such as ``network.decode`` or ``codec.invert``), so
internal calls are caught too. Spans stay in memory as
``[name, start, end, parent, op, error, nbytes]`` and are written out once at
the end. A listed function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _encoded_bytes(result) -> int:
    return sum(len(p.payload) for p in result)


def _decoded_bytes(result) -> int:
    return len(result.packets) * result.packet_len


# module.function -> payload-byte counter of its result, or None.
TRACED = {
    "latin.find_nonsingular_rectangle": None,
    "latin.jm_generate": None,
    "latin.block_incidence": None,
    "gf2.determinant": None,
    "gf2.invert": None,
    "gf2.in_rowspan": None,
    "codec.make_scheme": None,
    "codec.encode": _encoded_bytes,
    "codec.decode": _decoded_bytes,
    "codec.serialize_packet": None,
    "codec.deserialize_packet": None,
    "codec.decodable_indexes": None,
    "network.parse_network": None,
    "network.max_flow": None,
    "network.edge_disjoint_paths": None,
    "network.build_schedule": None,
    "network.validate_schedule": None,
    "network.simulate": None,
    "security.audit": None,
    "security.check_condition": None,
    "security.min_eavesdrop_paths": None,
}

NAME, START, END, PARENT, OP, ERROR, NBYTES = range(7)


class Tracer:
    """Context manager: rebinds the traced functions on enter, restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for name, m in sys.modules.items()
                   if name == "xorcode" or name.startswith("xorcode.")]
        self.absent = []
        for qualname, nbytes in TRACED.items():
            module_name, attr = qualname.split(".")
            fn = getattr(sys.modules.get(f"xorcode.{module_name}"), attr, None)
            if fn is None:
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, fn, nbytes)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()

    def _wrap(self, qualname, fn, nbytes):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qualname, clock(), 0.0, stack[-1] if stack else -1, self.op, None, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # re-raised; a timeout must end its spans too
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if nbytes is not None:
                span[NBYTES] = nbytes(result)
            return result

        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def summarize(spans, first: int = 0) -> dict:
    """Per function: calls, self and total seconds, payload bytes and error counts.

    Only spans from index ``first`` on are counted; parents may lie before it.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                               "bytes": 0, "errors": defaultdict(int)})
    for i in range(first, len(spans)):
        span = spans[i]
        entry = out[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[i]
        entry["bytes"] += span[NBYTES]
        if span[ERROR]:
            entry["errors"][span[ERROR]] += 1
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    count = 0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        count += parent >= 0
    return count
