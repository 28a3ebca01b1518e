#!/bin/sh
# End-to-end smoke of the served volume: `hvraid serve` on a temp unix
# socket over a file-backed volume, a scripted client proving byte
# identity through the line protocol, a Prometheus stats scrape, a clean
# SHUTDOWN (drain + flush), then fsck over the directory must exit 0.
set -eu

CARGO=${CARGO:-cargo}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/hvraid-serve-smoke.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
SOCK="$TMP/hvraid.sock"
VOL="$TMP/vol"

$CARGO build -q --release -p hvraid
HV=target/release/hvraid

P=5
ELEMENT=16
"$HV" serve --socket "$SOCK" --dir "$VOL" --p $P --stripes 4 --element $ELEMENT &
SERVE_PID=$!

i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: socket never appeared" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done

# Two elements of payload; the read-back and the single-element re-read
# must return exactly the written bytes (EXPECT aborts non-zero if not).
PAYLOAD=deadbeefcafef00d1122334455667788
cat > "$TMP/client.txt" <<EOF
HELLO smoke writer
WRITE 0 $PAYLOAD$PAYLOAD
READ 0 2
EXPECT $PAYLOAD$PAYLOAD
FLUSH
READ 1 1
EXPECT $PAYLOAD
QUIT
EOF
"$HV" connect --socket "$SOCK" --script "$TMP/client.txt"

"$HV" stats --socket "$SOCK" > "$TMP/stats.txt"
grep -q '^hvraid_service_ops_total' "$TMP/stats.txt"
# The cache holds what the script touched: more than nothing, and no more
# than its resident stripes could (HV: (p - 1)(p - 3) data elements each).
BYTES=$(sed -n 's/^hvraid_cache_resident_bytes //p' "$TMP/stats.txt")
STRIPES=$(sed -n 's/^hvraid_cache_resident_stripes //p' "$TMP/stats.txt")
if [ "${BYTES:-0}" -le 0 ] || [ "$BYTES" -gt $((STRIPES * (P - 1) * (P - 3) * ELEMENT)) ]; then
    echo "serve-smoke: $BYTES cached bytes in $STRIPES resident stripes" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi

printf 'HELLO smoke2 reader\nSHUTDOWN\n' > "$TMP/down.txt"
"$HV" connect --socket "$SOCK" --script "$TMP/down.txt"

# The serve process must exit cleanly once SHUTDOWN lands.
wait "$SERVE_PID"

# The shutdown flush must leave the on-disk array parity-consistent.
"$HV" fsck --dir "$VOL"
echo "serve-smoke: OK"
