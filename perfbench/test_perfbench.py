"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads
import xorcode as xc


@pytest.fixture(scope="module")
def stream():
    wl = workloads.Stream(1)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def multicast():
    wl = workloads.Multicast(1)
    wl.setup()
    return wl


def test_generators_are_deterministic_per_seed(stream, multicast):
    again, other = workloads.Stream(1), workloads.Stream(2)
    again.setup()
    other.setup()
    assert again.plan == stream.plan != other.plan
    assert again.schemes == stream.schemes

    again, other = workloads.Multicast(1), workloads.Multicast(2)
    again.setup()
    other.setup()
    assert (again.sessions, again.plan, again.blocks) == (multicast.sessions, multicast.plan, multicast.blocks)
    assert again.designs == multicast.designs
    assert other.sessions != multicast.sessions

    design, again, other = workloads.Design(1), workloads.Design(1), workloads.Design(2)
    for wl in (design, again, other):
        wl.setup()
    assert design.plan == again.plan != other.plan


def test_corrupted_decode_counts_as_failed(stream, monkeypatch):
    decode = xc.decode

    def flip_one_byte(packets, n, original_len=None):
        block = decode(packets, n, original_len=original_len)
        first = bytes([block.packets[0][0] ^ 1]) + block.packets[0][1:]
        return xc.SourceBlock((first,) + block.packets[1:], block.packet_len, block.original_len)

    monkeypatch.setattr(xc, "decode", flip_one_byte)
    loop = run.Loop(stream, seconds=60, max_ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)
    assert "recovered bytes differ" in loop.reasons[0]


def test_triangle_counts_only_when_rejected(multicast, monkeypatch):
    first_triangle = next(
        i for i, s in enumerate(multicast.plan) if multicast.sessions[s][-1] is None
    )
    loop = run.Loop(multicast, seconds=60, max_ops=first_triangle + 1)
    assert (loop.attempted, loop.failed) == (first_triangle + 1, 0)

    build_schedule = xc.build_schedule

    def accept_triangle(net, n):
        return None if "a" in net.nodes else build_schedule(net, n)

    monkeypatch.setattr(xc, "build_schedule", accept_triangle)
    loop = run.Loop(multicast, seconds=60, max_ops=first_triangle + 1)
    assert (loop.attempted, loop.failed) == (first_triangle + 1, 1)
    assert "triangle" in loop.reasons[0]


def test_op_over_the_cap_counts_as_timed_out(monkeypatch):
    class Slow:
        def op(self, i):
            time.sleep(10)

    monkeypatch.setattr(run, "OP_CAP_S", 0.05)
    loop = run.Loop(Slow(), seconds=60, max_ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)
    assert "timed out" in loop.reasons[0]
    assert loop.seconds < 2


def test_tracer_rebinds_imported_names_and_reports_absent(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "gf2.no_such_function", None)
    original = xc.codec.decode
    with spans.Tracer() as tracer:
        assert xc.network.decode is xc.codec.decode is xc.decode is not original
        assert xc.codec.invert is xc.gf2.invert
        xc.find_nonsingular_rectangle(8, seed=1)
    assert xc.network.decode is original
    assert tracer.absent == ["gf2.no_such_function"]
    summary = spans.summarize(tracer.spans)
    search = summary["latin.find_nonsingular_rectangle"]
    assert search["calls"] == 1
    assert search["self_s"] < search["total_s"]
    walks = spans.count_under(tracer.spans, "latin.jm_generate", "latin.find_nonsingular_rectangle")
    assert walks == summary["latin.jm_generate"]["calls"] >= 1


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
