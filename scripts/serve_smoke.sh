#!/bin/sh
# End-to-end smoke of the served volume: `hvraid serve` on a temp unix
# socket over a file-backed volume, two concurrent scripted clients
# proving byte identity through the line protocol, a Prometheus stats
# scrape, a clean SHUTDOWN (final flush), then fsck over the directory
# must exit 0, and serving the directory again under another code's
# flags must announce the volume it holds. Last, a SHUTDOWN whose final
# flush cannot write the undo journal must answer ERR naming that file
# and make serve exit non-zero, and the directory must still fsck clean.
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
wait_for_socket() { # <socket>
    i=0
    while [ ! -S "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: socket never appeared" >&2
            kill "$SERVE_PID" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
}

"$HV" serve --socket "$SOCK" --dir "$VOL" --p $P --stripes 4 --element $ELEMENT &
SERVE_PID=$!
wait_for_socket "$SOCK"

# Two clients at once, on disjoint stripes, so their sessions contend
# for the volume lock over the socket. Each writes two elements of its
# own payload ten times; every read-back and the single-element re-read
# after a FLUSH must return exactly its bytes (EXPECT aborts non-zero).
client_script() { # <tenant> <first element> <one element of payload>
    echo "HELLO $1 writer"
    for _ in 1 2 3 4 5 6 7 8 9 10; do
        printf 'WRITE %s %s%s\nREAD %s 2\nEXPECT %s%s\n' "$2" "$3" "$3" "$2" "$3" "$3"
    done
    printf 'FLUSH\nREAD %s 1\nEXPECT %s\nQUIT\n' "$(($2 + 1))" "$3"
}
client_script smoke 0 deadbeefcafef00d1122334455667788 > "$TMP/client.txt"
client_script smoke-b 16 0123456789abcdeffedcba9876543210 > "$TMP/client-b.txt"
"$HV" connect --socket "$SOCK" --script "$TMP/client-b.txt" > "$TMP/client-b.log" &
CLIENT_B=$!
"$HV" connect --socket "$SOCK" --script "$TMP/client.txt"
wait "$CLIENT_B"
cat "$TMP/client-b.log"

"$HV" stats --socket "$SOCK" > "$TMP/stats.txt"
grep -q '^hvraid_service_ops_total' "$TMP/stats.txt"
# The healing counters are rendered, by these names, and a fault-free run
# healed nothing.
grep -q '^hvraid_io_retries_total 0$' "$TMP/stats.txt"
grep -q '^hvraid_io_latent_repairs_total 0$' "$TMP/stats.txt"
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

# Reopened under other flags, the server serves the directory's own
# volume, and its banner says so.
"$HV" serve --socket "$TMP/again.sock" --dir "$VOL" --code rdp --p 7 2> "$TMP/again.err" &
SERVE_PID=$!
wait_for_socket "$TMP/again.sock"
"$HV" connect --socket "$TMP/again.sock" --script "$TMP/down.txt"
wait "$SERVE_PID"
if ! grep -q "(HV Code p=$P)" "$TMP/again.err"; then
    echo "serve-smoke: the reopened volume's banner is wrong:" >&2
    cat "$TMP/again.err" >&2
    exit 1
fi

# A failing last flush: one unflushed element, and a directory where the
# journal's temp file must go, so the flush cannot begin its journal.
"$HV" serve --socket "$TMP/fail.sock" --dir "$VOL" 2> /dev/null &
SERVE_PID=$!
wait_for_socket "$TMP/fail.sock"
printf 'HELLO smoke3 writer\nWRITE 0 00112233445566778899aabbccddeeff\n' > "$TMP/dirty.txt"
"$HV" connect --socket "$TMP/fail.sock" --script "$TMP/dirty.txt" > /dev/null
mkdir "$VOL/undo.journal.tmp"
if "$HV" connect --socket "$TMP/fail.sock" --script "$TMP/down.txt" 2> "$TMP/fail.err"; then
    echo "serve-smoke: SHUTDOWN over an unwritable journal succeeded" >&2
    exit 1
fi
if ! grep -q "^SHUTDOWN -> ERR .*I/O error on the volume's undo.journal" "$TMP/fail.err"; then
    echo "serve-smoke: the failed flush is reported wrong:" >&2
    cat "$TMP/fail.err" >&2
    exit 1
fi
if wait "$SERVE_PID"; then
    echo "serve-smoke: serve exited 0 after its last flush failed" >&2
    exit 1
fi
rmdir "$VOL/undo.journal.tmp"
"$HV" fsck --dir "$VOL"
echo "serve-smoke: OK"
