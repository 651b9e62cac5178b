import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    EXAMPLE_SQUARE,
    FIG2_TEXT,
    FIG3_TEXT,
    L5X12,
    SHORT_HEADER_SCHEDULE,
    TABLE1_SCHEDULE,
    TWO_PATH_SCHEDULE,
)
from xorcode import (
    MODE_BALANCED_DECODE,
    LatinRectangle,
    PathPartition,
    build_schedule,
    check_condition,
    format_schedule,
    make_scheme,
    min_eavesdrop_paths,
    parse_network,
    parse_schedule_partitions,
    split_upper,
)
import xorcode
from xorcode.cli import build_parser, main

EXAMPLE_RECT = split_upper(EXAMPLE_SQUARE, 3)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_design(tmp_path, capsys):
    out = tmp_path / "design"
    code, stdout, _ = run(capsys, "gen", "-n", "4", "--seed", "7", "-o", str(out))
    assert code == 0
    assert stdout.splitlines()[0] == "seed=7 n=4 k=3"
    rect = LatinRectangle.from_text((out / "rectangle.txt").read_text())
    assert rect.k == 3 and rect.n == 4
    assert (out / "incidence.txt").exists() and (out / "inverse.txt").exists()


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen", "-n", "6", "--seed", "3", "-o", str(a))
    run(capsys, "gen", "-n", "6", "--seed", "3", "-o", str(b))
    for name in ("rectangle.txt", "incidence.txt", "inverse.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_even_k_is_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "-n", "4", "-k", "2", "-o", str(tmp_path))
    assert code == 1
    assert "even" in err


def test_gen_full_square_is_domain_error(tmp_path, capsys):
    out = tmp_path / "design"
    code, stdout, err = run(capsys, "gen", "-n", "9", "-k", "9", "-o", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: row count 9 fills the square")
    assert not out.exists()


def test_gen_trivial_order(tmp_path, capsys):
    code, stdout, _ = run(capsys, "gen", "-n", "1", "-o", str(tmp_path))
    assert code == 0 and "n=1 k=1" in stdout


def test_encode_decode_roundtrip(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    payload = bytes(range(256)) * 3 + b"tail"
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    coded = tmp_path / "coded"
    code, stdout, _ = run(
        capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(coded)
    )
    assert code == 0 and "n=4 k=3 mode=direct" in stdout
    packets = sorted(str(p) for p in coded.glob("packet_*.bin"))
    assert len(packets) == 4
    out = tmp_path / "out.bin"
    code, stdout, _ = run(
        capsys, "decode", "-m", str(coded / "manifest.txt"), "-o", str(out), *packets
    )
    assert code == 0
    assert out.read_bytes() == payload


def test_encode_headers_match_design(tmp_path, capsys):
    from xorcode import deserialize_packet

    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    src = tmp_path / "four.bin"
    src.write_bytes(b"abcd")
    coded = tmp_path / "coded"
    run(capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(coded))
    headers = [
        deserialize_packet((coded / f"packet_{i}.bin").read_bytes()).header
        for i in range(1, 5)
    ]
    assert headers == [(1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4)]


def test_encode_empty_input_fails(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    code, _, err = run(capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(tmp_path))
    assert code == 1 and "empty" in err


def test_decode_with_missing_packet_lists_recoverable(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    src = tmp_path / "input.bin"
    src.write_bytes(b"0123456789")
    coded = tmp_path / "coded"
    run(capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(coded))
    packets = sorted(str(p) for p in coded.glob("packet_*.bin"))[:3]
    code, _, err = run(
        capsys, "decode", "-m", str(coded / "manifest.txt"), "-o", str(tmp_path / "x"), *packets
    )
    assert code == 1 and "recoverable" in err


def test_decode_corrupted_packet_is_parse_error(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    src = tmp_path / "input.bin"
    src.write_bytes(b"0123456789")
    coded = tmp_path / "coded"
    run(capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(coded))
    packets = sorted(coded.glob("packet_*.bin"))
    packets[0].write_bytes(packets[0].read_bytes()[:-2])
    code, _, err = run(
        capsys,
        "decode",
        "-m", str(coded / "manifest.txt"),
        "-o", str(tmp_path / "x"),
        *(str(p) for p in packets),
    )
    assert code == 2 and "truncated" in err


def test_decode_inflated_manifest_length_fails(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    src = tmp_path / "input.bin"
    src.write_bytes(b"0123456789")
    coded = tmp_path / "coded"
    run(capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(coded))
    manifest = coded / "manifest.txt"
    head, rest = manifest.read_text().split("\n", 1)
    manifest.write_text(head.rsplit(" ", 1)[0] + " 1000000\n" + rest)
    out = tmp_path / "out.bin"
    packets = sorted(str(p) for p in coded.glob("packet_*.bin"))
    code, stdout, err = run(capsys, "decode", "-m", str(manifest), "-o", str(out), *packets)
    assert code == 1 and "exceeds" in err and "recovered" not in stdout
    assert not out.exists()


@pytest.mark.parametrize("length", [10, 996])
def test_decode_deflated_manifest_length_fails(tmp_path, capsys, length):
    # 1000 bytes in 4 packets of 250 bytes: split_payload gives exactly that
    # packet length for original_len 997..1000, so 996 and below would cut
    # the output short.
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(250)) * 4)
    coded = tmp_path / "coded"
    run(capsys, "encode", "-r", str(rect_file), "-i", str(src), "-o", str(coded))
    manifest = coded / "manifest.txt"
    head, rest = manifest.read_text().split("\n", 1)
    manifest.write_text(f"{head.rsplit(' ', 1)[0]} {length}\n{rest}")
    out = tmp_path / "out.bin"
    packets = sorted(str(p) for p in coded.glob("packet_*.bin"))
    code, stdout, err = run(capsys, "decode", "-m", str(manifest), "-o", str(out), *packets)
    assert code == 1 and "recovered" not in stdout
    assert f"original_len {length} is below the 997..1000 bytes" in err
    assert not out.exists()
    # The shortest length the packets can carry still decodes.
    manifest.write_text(f"{head.rsplit(' ', 1)[0]} 997\n{rest}")
    code, stdout, _ = run(capsys, "decode", "-m", str(manifest), "-o", str(out), *packets)
    assert code == 0 and out.read_bytes() == src.read_bytes()[:997]


# SHA-256 of the concatenated packet files and of the manifest. The design
# comes from the seeded walk, so a change of its length or its draws re-pins them.
GOLDEN_ENCODE = {
    "direct": (
        "71ece3cbb49e4a48ccee2e638df60292ef1fcdcdcf93b85f97f27baf75691cb6",
        "88588cf003e37be138078e6e6b9f00ffebbcbefa14bf563da05a3452ac45ea96",
    ),
    "balanced_decode": (
        "b1b5a9c0c1d6829cc8d303fbfddcb71e735b166e248351bb255160f38cb02334",
        "2a293c3f519c820b13e166bc88832746b12c4a994726c3024b46f183846d1b1e",
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_ENCODE))
def test_gen_encode_golden_output(tmp_path, capsys, mode):
    design = tmp_path / "design"
    assert run(capsys, "gen", "-n", "12", "-k", "5", "--seed", "3", "-o", str(design))[0] == 0
    src = tmp_path / "input.bin"
    src.write_bytes(bytes((i * 37 + 11) % 256 for i in range(1000)))
    coded = tmp_path / "coded"
    code, _, _ = run(
        capsys, "encode", "-r", str(design / "rectangle.txt"), "--mode", mode,
        "-i", str(src), "-o", str(coded),
    )
    assert code == 0
    blob = b"".join(p.read_bytes() for p in sorted(coded.glob("packet_*.bin")))
    digests = (
        hashlib.sha256(blob).hexdigest(),
        hashlib.sha256((coded / "manifest.txt").read_bytes()).hexdigest(),
    )
    assert digests == GOLDEN_ENCODE[mode]


# SHA-256 of schedule.txt and report.txt from the README's simulate example
# (its network is FIG3_TEXT).
GOLDEN_SIMULATE = (
    "006b6a04d7247761df88f12e44228cac645fc9ab80e274137b764a9e9176aaf8",
    "857b05d6dcf3553c194af52197aa6df1b87e6b4cea8a3f3a03809e4bf0a733e7",
)


def test_simulate_readme_golden_output(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    out = tmp_path / "sim"
    code, stdout, _ = run(
        capsys, "simulate", "--network", str(net_file), "-n", "12",
        "--mode", "balanced_decode", "-o", str(out),
    )
    assert code == 0
    report = (out / "report.txt").read_text()
    assert report in stdout
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("schedule.txt", "report.txt")
    )
    assert digests == GOLDEN_SIMULATE


def test_readme_library_quick_start():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


GOLDEN_SCHEDULES = {
    "fig2": (FIG2_TEXT, 4, (
        "n 4\nrequested_n 4\nphases 2\nmaxflow 2\n"
        "sink t1\npath s u1 t1 : 1 2\npath s u2 t1 : 3 4\n"
        "sink t2\npath s u1 t2 : 1 2\npath s u3 t2 : 3 4\n"
        "sink t3\npath s u1 t3 : 1 2\npath s u3 t3 : 3 4\n"
        "sink t4\npath s u2 t4 : 3 4\npath s u4 t4 : 1 2\n"
        "sink t5\npath s u2 t5 : 3 4\npath s u4 t5 : 1 2\n"
        "sink t6\npath s u3 t6 : 3 4\npath s u4 t6 : 1 2\n"
    )),
    "fig3": (FIG3_TEXT, 12, (
        "n 12\nrequested_n 12\nphases 4\nmaxflow 3\n"
        "sink t1\npath s u1 t1 : 1 2 3 4\npath s u2 t1 : 5 6 7 8\npath s u3 t1 : 9 10 11 12\n"
        "sink t2\npath s u1 t2 : 1 2 3 4\npath s u2 t2 : 5 6 7 8\npath s u3 t2 : 9 10 11 12\n"
    )),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULES))
def test_format_schedule_golden(name):
    text, n, expected = GOLDEN_SCHEDULES[name]
    net = parse_network(text)
    assert format_schedule(build_schedule(net, n)) == expected


def test_simulate_with_rectangle_file(tmp_path, capsys):
    # The README's network and design.
    design = tmp_path / "design"
    assert run(capsys, "gen", "-n", "12", "-k", "5", "--seed", "3", "-o", str(design))[0] == 0
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    args = ["simulate", "--network", str(net_file), "-o", str(tmp_path / "sim"), "--rectangle"]
    code, stdout, _ = run(capsys, *args, str(design / "rectangle.txt"), "-n", "12")
    assert code == 0 and "summary sinks=2 decoded=2" in stdout
    code, _, err = run(capsys, *args, str(design / "rectangle.txt"), "-n", "6")
    assert code == 1 and "scheme carries 12 packets, schedule delivers 6" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n1 2\n")
    code, _, err = run(capsys, *args, str(bad), "-n", "12")
    assert code == 2 and err.startswith("error: ") and "column 1 repeats" in err


def test_simulate_wrong_decode_exits_1(tmp_path, capsys, corrupt_decode):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    out = tmp_path / "sim"
    code, stdout, _ = run(capsys, "simulate", "--network", str(net_file), "-n", "12", "-o", str(out))
    assert code == 1
    report = (out / "report.txt").read_text()
    assert report in stdout
    assert "sink=t1 decode=fail phases_needed=4\n" in report
    assert report.endswith("summary sinks=2 decoded=0\n")


def test_simulate_fig2(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG2_TEXT)
    out = tmp_path / "sim"
    code, stdout, _ = run(
        capsys, "simulate", "--network", str(net_file), "-n", "4", "-o", str(out)
    )
    assert code == 0
    assert "summary sinks=6 decoded=6" in stdout
    assert (out / "schedule.txt").exists() and (out / "report.txt").exists()


def test_simulate_fig3_balanced_12(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    out = tmp_path / "sim"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--network", str(net_file),
        "-n", "12",
        "--mode", "balanced_decode",
        "-o", str(out),
    )
    assert code == 0
    assert "phases=4" in stdout and "summary sinks=2 decoded=2" in stdout


def test_simulate_chain_three_phases(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text("source s\nsink t\nedge s a\nedge a t\n")
    code, stdout, _ = run(
        capsys, "simulate", "--network", str(net_file), "-n", "3", "-o", str(tmp_path / "sim")
    )
    assert code == 0 and "phases=3" in stdout


def test_simulate_never_searches(tmp_path, capsys, monkeypatch):
    # At odd n the search keeps about e/n of its samples, so at n = 101 its
    # default 64 fail for about one seed in five; simulate needs no search.
    def no_search(*args, **kwargs):
        raise AssertionError("simulate ran the design search")

    monkeypatch.setattr("xorcode.latin.find_nonsingular_rectangle", no_search)
    net_file = tmp_path / "net.txt"
    net_file.write_text("source s\nsink t\nedge s a\nedge a t\n")
    code, stdout, _ = run(
        capsys, "simulate", "--network", str(net_file), "-n", "101", "-o", str(tmp_path / "sim")
    )
    assert code == 0
    assert stdout.splitlines()[0] == "n=101 k=99 mode=direct"
    assert "sink=t decode=ok phases_needed=101\n" in stdout


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "simulate", "--network", str(net_file), "-n", "12", "-o", str(a))
    run(capsys, "simulate", "--network", str(net_file), "-n", "12", "-o", str(b))
    for name in ("schedule.txt", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_reports_padding(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    code, stdout, _ = run(
        capsys, "simulate", "--network", str(net_file), "-n", "10", "-o", str(tmp_path / "sim")
    )
    assert code == 0 and "padding=2" in stdout


def test_simulate_infeasible_topology(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(
        "source s\nsink t1\nsink t2\nsink t3\n"
        "edge s a\nedge s b\nedge s c\n"
        "edge a t1\nedge b t1\nedge a t2\nedge c t2\nedge b t3\nedge c t3\n"
    )
    code, _, err = run(
        capsys, "simulate", "--network", str(net_file), "-n", "4", "-o", str(tmp_path / "sim")
    )
    assert code == 1 and "schedule" in err


def test_audit_routing_example(tmp_path, capsys):
    rect_file = tmp_path / "l5x12.txt"
    rect_file.write_text(L5X12.to_text())
    code, stdout, _ = run(
        capsys,
        "audit",
        "-r", str(rect_file),
        "--mode", "balanced_decode",
        "--partition", "3,10,7,2;8,4,11,9;1,6,5,12",
    )
    assert code == 0
    assert "condition=true min_paths=3" in stdout


def test_audit_from_schedule_file(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    sim = tmp_path / "sim"
    run(capsys, "simulate", "--network", str(net_file), "-n", "12", "-o", str(sim))
    rect_file = tmp_path / "l5x12.txt"
    rect_file.write_text(L5X12.to_text())
    code, stdout, _ = run(
        capsys,
        "audit",
        "-r", str(rect_file),
        "--schedule", str(sim / "schedule.txt"),
        "--sink", "t1",
    )
    assert code == 0
    seqs = parse_schedule_partitions((sim / "schedule.txt").read_text())["t1"]
    partition = ";".join(",".join(map(str, seq)) for seq in seqs)
    assert run(capsys, "audit", "-r", str(rect_file), "--partition", partition) == (0, stdout, "")
    scheme = make_scheme(L5X12, MODE_BALANCED_DECODE)
    report = min_eavesdrop_paths(scheme, PathPartition.from_sequences(seqs))
    assert stdout == report.summary_line() + "\n"
    code, stdout, err = run(
        capsys, "audit", "-r", str(rect_file), "--schedule", str(sim / "schedule.txt"),
        "--sink", "nosuch",
    )
    assert (code, stdout) == (2, "") and "sink 'nosuch' not found in schedule" in err


def test_audit_schedule_proves_each_sink_once(tmp_path, capsys, partition_proofs):
    # The reader proves each sink's row once, and the audit uses it as it is.
    sched_file = tmp_path / "schedule.txt"
    sched_file.write_text(TABLE1_SCHEDULE)
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    code, stdout, _ = run(
        capsys, "audit", "-r", str(rect_file), "--schedule", str(sched_file), "--sink", "t2"
    )
    assert code == 0 and stdout.startswith("condition=")
    assert len(partition_proofs) == 6  # one per sink


def test_audit_all_on_one_path_leaks(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    code, stdout, _ = run(
        capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", "1,2,3,4"
    )
    assert code == 0 and "min_paths=1" in stdout


def test_direct_mode_audit_uses_the_inverse(tmp_path, capsys):
    # The paper's column test holds for this design and partition, but in
    # direct mode E^-1 is B^-1, and one tapped path exposes source 7.
    code, _, _ = run(capsys, "gen", "-n", "12", "-k", "5", "--seed", "3", "-o", str(tmp_path))
    assert code == 0
    rect_file = tmp_path / "rectangle.txt"
    sets = ((1, 2, 3, 4, 6, 9), (5, 7, 8, 10, 11, 12))
    partition = ";".join(",".join(map(str, s)) for s in sets)
    code, stdout, _ = run(
        capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", partition
    )
    assert code == 0
    assert stdout == "condition=false min_paths=1 witness_paths=1 exposed=7\n"
    rect = LatinRectangle.from_text(rect_file.read_text())
    assert check_condition(rect, PathPartition.from_sequences(sets))


def test_malformed_audit_partition_is_parse_error(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    for partition in ("1,2;3,4;", "1,2;;3,4", "1,2; ;3,4"):
        code, _, err = run(
            capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", partition
        )
        assert code == 2 and "empty partition chunk" in err, partition
    for partition in ("1,+2;3,4", "1,2;3,-4", "1,2;3,1_0", "0,1;2,3", "1,2;3,x"):
        code, _, err = run(
            capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", partition
        )
        assert code == 2 and "bad partition chunk" in err, partition
    sched_file = tmp_path / "schedule.txt"
    sched_file.write_text("n 4\nrequested_n 4\nphases 2\nmaxflow 2\nsink t1\n")
    code, _, err = run(capsys, "audit", "-r", str(rect_file), "--schedule", str(sched_file))
    assert code == 2 and "no path lines" in err
    sched_file.write_text(
        "n 4\nrequested_n 4\nphases 2\nmaxflow 2\nsink t1\npath : 1 2\npath s : 3 4\n"
    )
    code, _, err = run(capsys, "audit", "-r", str(rect_file), "--schedule", str(sched_file))
    assert code == 2 and "line 6: path needs at least two nodes" in err


def test_audit_partition_field_without_an_index_is_parse_error(tmp_path, capsys):
    # Paths are separated by ';' and packet indexes by ','; a ',' needs an
    # index on each side, as a ';' does. Whitespace still separates indexes.
    rect_file = tmp_path / "l5x12.txt"
    rect_file.write_text(L5X12.to_text())
    audit = ("audit", "-r", str(rect_file), "--partition")
    good = run(capsys, *audit, "3,10,7,2;8,4,11,9;1,6,5,12")
    assert good[0] == 0
    for partition in ("3 10 7 2;8 4 11 9;1 6 5 12", "3, 10 ,7,2;8,4,11,9 ; 1,6,5,12"):
        assert run(capsys, *audit, partition) == good, partition
    for partition in (
        "3,,10,7,2;8,4,11,9;1,6,5,12",
        ",3,10,7,2;8,4,11,9;1,6,5,12",
        "3,10,7,2,;8,4,11,9;1,6,5,12",
        "3,10,7,2;8,4, ,11,9;1,6,5,12",
    ):
        code, stdout, err = run(capsys, *audit, partition)
        assert (code, stdout) == (2, ""), partition
        assert err == f"error: empty partition chunk or field in {partition!r}\n"


def test_audit_repeated_packet_in_path_is_domain_error(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    code, _, err = run(
        capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", "1,1,2,2;3,3,4,4"
    )
    assert (code, err) == (1, "error: packet sets do not partition 1..8\n")
    sched_file = tmp_path / "schedule.txt"
    sched_file.write_text(
        "n 4\nrequested_n 4\nphases 4\nmaxflow 2\nsink t1\n"
        "path s u1 t1 : 1 2 1 2\npath s u2 t1 : 3 4 3 4\n"
    )
    # The file's headers say 4 packets, but 2 paths of 4 phases carry 8.
    code, _, err = run(capsys, "audit", "-r", str(rect_file), "--schedule", str(sched_file))
    assert code == 2 and "error: n=4 is not phases*maxflow=8" in err


def test_audit_schedule_headers_must_match_paths(tmp_path, capsys):
    # Headers that disagree with the paths below them make a malformed file.
    rect_file = tmp_path / "l5x12.txt"
    rect_file.write_text(L5X12.to_text())
    sched_file = tmp_path / "schedule.txt"
    for text, message in (
        (SHORT_HEADER_SCHEDULE, "sink t1: needs 3 paths of 2 packets each"),
        (TWO_PATH_SCHEDULE, "sink t1: needs 3 paths of 4 packets each"),
    ):
        sched_file.write_text(text)
        code, out, err = run(capsys, "audit", "-r", str(rect_file), "--schedule", str(sched_file))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # missing -n
    assert exc.value.code == 2
    code, _, err = run(capsys, "decode", "-m", str(tmp_path / "nope.txt"), "-o", "x", "y")
    assert code == 2
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(L5X12.to_text())
    # a path that is not UTF-8 text, is a directory, or is a file where a directory goes
    manifest = tmp_path / "manifest.bin"
    manifest.write_bytes(b"\xff\xfe not utf-8\n")
    code, _, err = run(capsys, "decode", "-m", str(manifest), "-o", str(tmp_path / "x"), str(rect_file))
    assert code == 2 and err.startswith("error: ") and "utf-8" in err
    code, _, err = run(capsys, "audit", "-r", str(tmp_path), "--partition", "1,2;3,4")
    assert code == 2 and err.startswith("error: ") and "Is a directory" in err
    code, _, err = run(capsys, "gen", "-n", "4", "-o", str(rect_file))
    assert code == 2 and err.startswith("error: ") and "File exists" in err
    sched_file = tmp_path / "schedule.txt"
    fig3 = parse_network(FIG3_TEXT)
    sched_file.write_text(format_schedule(build_schedule(fig3, 12)))
    partition = ["--partition", "3,10,7,2;8,4,11,9;1,6,5,12"]
    for extra in (
        [],  # neither schedule nor partition
        ["--schedule", str(sched_file)] + partition,
        partition + ["--sink", "nosuch"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "-r", str(rect_file)] + extra)
        assert exc.value.code == 2, extra
    for args in (
        ["gen", "-n", "0"],
        ["gen", "-n", "12", "-k", "0"],
        ["gen", "-n", "12", "-k", "-3"],
        ["gen", "-n", "12", "-k", "13"],
        ["gen", "-n", "4", "--auto"],
        ["gen", "-n", "6", "--max-retries", "0"],
        ["gen", "-n", "6", "--moves", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args + ["-o", str(tmp_path)])
        assert exc.value.code == 2, args
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-n", "abc", "-o", str(tmp_path)])
    assert exc.value.code == 2 and "not an integer: 'abc'" in capsys.readouterr().err


def test_packet_count_above_u16_is_usage_error(tmp_path, capsys, monkeypatch):
    # A packet index is a u16 on the wire, so -n above 65535 stops at the
    # argument parser, before any walk or schedule.
    def never(*args, **kwargs):
        raise AssertionError("ran past the argument parser")

    monkeypatch.setattr("xorcode.latin.find_nonsingular_rectangle", never)
    monkeypatch.setattr("xorcode.network.build_schedule", never)
    net_file = tmp_path / "net.txt"
    net_file.write_text("source s\nsink t\nedge s t\n")
    for args in (
        ["gen", "-n", "65536", "-o", str(tmp_path)],
        ["simulate", "--network", str(net_file), "-n", "65536", "-o", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "must be at most 65535, the u16 packet" in err, args
    # With maxflow 2, simulate pads n=65535 up to 65536 packets: still a usage
    # error, caught once the schedule is built and before any design or scheme.
    monkeypatch.undo()
    monkeypatch.setattr("xorcode.codec.make_scheme", never)
    net_file.write_text("source s\nsink t\nedge s t\nedge s t\n")
    code = main(["simulate", "--network", str(net_file), "-n", "65535", "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and "-n/--packets 65535 pads to 65536 packets, above 65535" in err
    assert not (tmp_path / "schedule.txt").exists()
    # 65535 itself parses; -k keeps the plain positive-int check.
    args = build_parser().parse_args(["gen", "-n", "65535", "-k", "70001"])
    assert (args.packets, args.rows) == (65535, 70001)


def test_encode_rejects_a_rectangle_above_u16(tmp_path, capsys, monkeypatch):
    # encode takes n from its rectangle file, so it checks the u16 limit once
    # the rectangle loads, before any scheme, and writes nothing.
    def never(*args, **kwargs):
        raise AssertionError("ran past the rectangle check")

    monkeypatch.setattr("xorcode.codec.make_scheme", never)
    rect_file, data_file = tmp_path / "rect.txt", tmp_path / "data.bin"
    rect_file.write_text("1 65536\n" + " ".join(map(str, range(1, 65537))) + "\n")
    data_file.write_bytes(b"payload")
    out = tmp_path / "coded"
    code, stdout, err = run(
        capsys, "encode", "-r", str(rect_file), "-i", str(data_file), "-o", str(out)
    )
    assert code == 2 and stdout == ""
    assert err == "error: rectangle n=65536 is above 65535, the u16 packet index limit\n"
    assert not out.exists()


def test_empty_rectangle_file_is_parse_error(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text("0 0\n")
    data = tmp_path / "msg.bin"
    data.write_bytes(b"hello")
    code, _, err = run(
        capsys, "encode", "-r", str(rect_file), "-i", str(data), "-o", str(tmp_path)
    )
    assert code == 2 and "rectangle" in err


def test_non_latin_rectangle_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 4\n1 2 3 4\n1 2 3 4\n")
    data = tmp_path / "msg.bin"
    data.write_bytes(b"hello")
    for args in (
        ["encode", "-r", str(bad), "-i", str(data), "-o", str(tmp_path / "coded")],
        ["audit", "-r", str(bad), "--partition", "1,2;3,4"],
    ):
        code, _, err = run(capsys, *args)
        assert code == 2 and err.startswith("error: ") and "column 1 repeats" in err, args
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    coded = tmp_path / "coded"
    assert run(capsys, "encode", "-r", str(rect_file), "-i", str(data), "-o", str(coded))[0] == 0
    manifest = coded / "manifest.txt"
    first, second = (" ".join(map(str, row)) for row in EXAMPLE_RECT.cells[:2])
    manifest.write_text(manifest.read_text().replace(second, first))  # row 1 twice
    packets = sorted(str(p) for p in coded.glob("packet_*.bin"))
    code, _, err = run(capsys, "decode", "-m", str(manifest), "-o", str(tmp_path / "out"), *packets)
    assert code == 2 and err.startswith("error: ") and "column 1 repeats" in err


def test_bad_network_file_is_parse_error(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text("source s\nsink t\nwormhole s t\n")
    code, _, err = run(
        capsys, "simulate", "--network", str(net_file), "-n", "2", "-o", str(tmp_path)
    )
    assert code == 2 and "bad directive" in err


def run_under_c_locale(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess under the C locale with UTF-8 mode off,
    where the locale's encoding is ASCII."""
    src = str(Path(xorcode.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "xorcode.cli", *args], env=env, capture_output=True, timeout=60
    )


def test_text_files_are_utf8_under_the_c_locale(tmp_path):
    # The CLI still reads a UTF-8 schedule whose first sink is named "t\u00e9".
    net = parse_network(FIG3_TEXT.replace("t1", "t\u00e9"))
    sched_file = tmp_path / "schedule.txt"
    sched_file.write_bytes(format_schedule(build_schedule(net, 12)).encode("utf-8"))
    rect_file = tmp_path / "l5x12.txt"
    rect_file.write_bytes(L5X12.to_text().encode("utf-8"))
    proc = run_under_c_locale(
        "audit", "-r", str(rect_file), "--mode", "balanced_decode", "--schedule", str(sched_file)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"condition=")


def test_stdout_is_utf8_under_the_c_locale(tmp_path):
    # simulate prints its report, which names the sink "t\u00e9", as UTF-8,
    # the encoding of the report file it writes.
    net_file = tmp_path / "net.txt"
    net_file.write_bytes(FIG3_TEXT.replace("t1", "t\u00e9").encode("utf-8"))
    out = tmp_path / "sim"
    proc = run_under_c_locale("simulate", "--network", str(net_file), "-n", "12", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    report = (out / "report.txt").read_bytes()
    assert "t\u00e9".encode("utf-8") in report and report in proc.stdout
