#!/usr/bin/env bash
# Run the README's CLI quick start with the `xorcode` command on PATH, in a
# fresh temporary directory, and check what it prints and writes: the decoded
# file equals the input, simulate prints the design's n and k, each sink
# decodes after the expected phases, both audits print their expected lines,
# and a malformed audit partition exits 2 with nothing on stdout.
# Exits non-zero on the first difference.
#
# Usage: bash scripts/cli_quick_start.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

expect() {  # expect <expected line> <command...>
    local want=$1 got
    shift
    got=$("$@")
    echo "$got"
    if [ "$got" != "$want" ]; then
        echo "expected: $want" >&2
        exit 1
    fi
}

xorcode gen -n 12 -k 5 --seed 3 -o design
python3 -c 'import sys; sys.stdout.buffer.write(bytes(range(256)) * 5)' > msg.bin
xorcode encode -r design/rectangle.txt --mode balanced_decode -i msg.bin -o coded
xorcode decode -m coded/manifest.txt -o out.bin coded/packet_*.bin
cmp msg.bin out.bin

cat > net.txt <<'NET'
# three relays, each feeding both sinks
source s
sink t1
sink t2

edge s u1
edge s u2
edge s u3
edge u1 t1
edge u1 t2
edge u2 t1
edge u2 t2
edge u3 t1
edge u3 t2
NET
xorcode simulate --network net.txt -n 12 --mode balanced_decode -o sim | tee sim.log
expect "n=12 k=11 mode=balanced_decode" head -n 1 sim.log
for t in t1 t2; do
    expect "sink=$t decode=ok phases_needed=4" grep "^sink=$t decode=" sim/report.txt
done
expect "summary sinks=2 decoded=2" tail -n 1 sim/report.txt

expect "condition=false min_paths=2 witness_paths=1,2 exposed=2" \
    xorcode audit -r design/rectangle.txt --mode balanced_decode \
    --schedule sim/schedule.txt --sink t1
expect "condition=false min_paths=2 witness_paths=1,2 exposed=4" \
    xorcode audit -r design/rectangle.txt --mode balanced_decode \
    --partition '3,10,7,2;8,4,11,9;1,6,5,12'
# A ',' with no packet index on one side is a parse error: exit 2, stdout empty.
status=0
xorcode audit -r design/rectangle.txt --partition '3,,10,7,2;8,4,11,9;1,6,5,12' \
    > bad.out 2> bad.err || status=$?
if [ "$status" != 2 ] || [ -s bad.out ] || ! grep -q '^error: ' bad.err; then
    echo "malformed --partition: exit $status, stdout $(wc -c < bad.out) bytes" >&2
    exit 1
fi
echo "README CLI quick start: all outputs as expected"
