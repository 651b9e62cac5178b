import hashlib

import pytest

from conftest import EXAMPLE_SQUARE, FIG2_TEXT, FIG3_TEXT, L5X12
from xorcode import (
    LatinRectangle,
    PathPartition,
    build_schedule,
    check_condition,
    format_schedule,
    parse_network,
    split_upper,
)
from xorcode.cli import main

EXAMPLE_RECT = split_upper(EXAMPLE_SQUARE, 3)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_design(tmp_path, capsys):
    out = tmp_path / "design"
    code, stdout, _ = run(capsys, "gen", "-n", "4", "--seed", "7", "-o", str(out))
    assert code == 0
    assert "n=4 k=3" in stdout and "nonsingular=true" in stdout
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


# SHA-256 of the concatenated packet files and of the manifest, computed
# before the encoder converted each source once and used the complement form.
GOLDEN_ENCODE = {
    "direct": (
        "b4ebda6f0bb72072e834c771558bee5deebd3403ad1f5eea89dd047a9a073b3b",
        "ec08a8bcb9934776e66ae42dbc112517283068fd6485e446652401b31872cf6b",
    ),
    "balanced_decode": (
        "69805eb6b5478b40493c4b21c21668b2217b3cba1cb895cd7ae6a8df3f398e36",
        "82ef42c5420e0829d9a66355e44a864bc63450ed9031575ff764fd2ec6682b1c",
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
        capsys, "simulate", "--network", str(net_file), "-n", "12", "--seed", "5",
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
    assert format_schedule(net, build_schedule(net, n)) == expected


def test_simulate_fig2(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG2_TEXT)
    out = tmp_path / "sim"
    code, stdout, _ = run(
        capsys, "simulate", "--network", str(net_file), "-n", "4", "--seed", "7", "-o", str(out)
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
        "--seed", "5",
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


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text(FIG3_TEXT)
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "simulate", "--network", str(net_file), "-n", "12", "--seed", "9", "-o", str(a))
    run(capsys, "simulate", "--network", str(net_file), "-n", "12", "--seed", "9", "-o", str(b))
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
    run(capsys, "simulate", "--network", str(net_file), "-n", "12", "--seed", "2", "-o", str(sim))
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
    assert "min_paths=" in stdout


def test_audit_all_on_one_path_leaks(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text(EXAMPLE_RECT.to_text())
    code, stdout, _ = run(
        capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", "1,2,3,4"
    )
    assert code == 0 and "min_paths=1" in stdout


def test_direct_mode_audit_uses_the_inverse(tmp_path, capsys):
    # The paper's column test holds for this design and partition, but in
    # direct mode E^-1 is B^-1, and one tapped path exposes sources 8 and 10.
    code, _, _ = run(capsys, "gen", "-n", "12", "-k", "5", "--seed", "3", "-o", str(tmp_path))
    assert code == 0
    rect_file = tmp_path / "rectangle.txt"
    partition = "1,2,3,4,5,6;7,8,9,10,11,12"
    code, stdout, _ = run(
        capsys, "audit", "-r", str(rect_file), "--mode", "direct", "--partition", partition
    )
    assert code == 0
    assert stdout == "condition=false min_paths=1 witness_paths=1 exposed=8,10\n"
    rect = LatinRectangle.from_text(rect_file.read_text())
    assert check_condition(rect, PathPartition.from_sequences([range(1, 7), range(7, 13)]))


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


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # missing -n
    assert exc.value.code == 2
    code, _, err = run(capsys, "decode", "-m", str(tmp_path / "nope.txt"), "-o", "x", "y")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["audit", "-r", "rect.txt"])  # neither schedule nor partition
    assert exc.value.code == 2
    for args in (
        ["gen", "-n", "0"],
        ["gen", "-n", "12", "-k", "0"],
        ["gen", "-n", "12", "-k", "-3"],
        ["gen", "-n", "12", "-k", "13"],
        ["gen", "-n", "4", "--auto"],
        ["gen", "-n", "6", "--max-retries", "0"],
        ["gen", "-n", "6", "--moves", "0"],
        ["simulate", "--network", "net.txt", "-n", "4", "--packet-len", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args + ["-o", str(tmp_path)])
        assert exc.value.code == 2, args


def test_empty_rectangle_file_is_parse_error(tmp_path, capsys):
    rect_file = tmp_path / "rect.txt"
    rect_file.write_text("0 0\n")
    data = tmp_path / "msg.bin"
    data.write_bytes(b"hello")
    code, _, err = run(
        capsys, "encode", "-r", str(rect_file), "-i", str(data), "-o", str(tmp_path)
    )
    assert code == 2 and "rectangle" in err


def test_bad_network_file_is_parse_error(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text("source s\nsink t\nwormhole s t\n")
    code, _, err = run(
        capsys, "simulate", "--network", str(net_file), "-n", "2", "-o", str(tmp_path)
    )
    assert code == 2 and "bad directive" in err
