#!/bin/sh
# Protocol-v2 end-to-end check against the real schedule_service binary:
# id= tags round-trip onto response lines, cancel lines are accepted (an
# unknown id answers code=bad_request), failures carry machine-readable
# codes, and parse errors do not abort the stream. Then the input
# handling: comment/blank lines answer nothing, an unterminated final
# line is answered, ping/stats answer, --input reads a regular file,
# --max-pending paces without changing the answers, and a 0xB3 first
# byte is plain bad text. Run by CTest as schedule_service_protocol_v2
# with the binary path as $1.
set -eu

bin="$1"

out=$(printf '%s\n' \
    'random:60:1 Liu 1 id=7' \
    'random:60:1 NoSuchAlgo 2 id=8' \
    'cancel id=99' \
    'this is not a request' \
    'random:60:1 Liu 4' \
    | "$bin")

echo "$out"

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

echo "$out" | grep -q '^ok id=7 .*algo=Liu .*p=1' \
    || fail "id=7 did not round-trip onto its ok line"
echo "$out" | grep -q '^error id=8 code=unknown_algorithm' \
    || fail "unknown algorithm did not answer code=unknown_algorithm"
echo "$out" | grep -q '^error code=bad_request cancel id=99' \
    || fail "cancel of an unknown id did not answer code=bad_request"
echo "$out" | grep -q '^error code=bad_request request line must be' \
    || fail "the malformed line did not answer code=bad_request"
# No cache= assertion here: with concurrent drain jobs either Liu
# request can win in-flight leadership and report the miss (unit tests
# pin p-normalized hits deterministically); the protocol claim is only
# that the line answers.
echo "$out" | grep -q '^ok tree=.*algo=Liu p=4 ' \
    || fail "the second Liu request was not answered"
[ "$(echo "$out" | wc -l)" -eq 5 ] \
    || fail "expected exactly one response line per input line"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Comment and blank lines answer nothing; the request between them does.
out=$(printf '%s\n' '# a comment' '' '   ' 'random:60:1 Liu 1 # trailing' \
    | "$bin")
[ "$(echo "$out" | wc -l)" -eq 1 ] \
    || fail "comment/blank lines must produce no answer: $out"
echo "$out" | grep -q '^ok tree=.*algo=Liu p=1 ' \
    || fail "the commented request was not answered: $out"

# A final line without its newline is still answered.
out=$(printf 'ping id=3\nrandom:60:2 Liu 2' | "$bin")
echo "$out" | grep -q '^pong id=3$' || fail "ping id=3 did not answer pong"
echo "$out" | grep -q '^ok tree=.*algo=Liu p=2 ' \
    || fail "the unterminated final line was not answered: $out"

# stats answers one line of integer counters.
out=$(printf 'stats\n' | "$bin")
[ "$(echo "$out" | wc -l)" -eq 1 ] || fail "stats must answer one line"
echo "$out" | grep -Eq '^stats( [a-z0-9_]+=[0-9]+)+$' \
    || fail "stats did not answer integer counters: $out"
echo "$out" | grep -q ' lines=' || fail "stats lacks the lines counter: $out"

# --input reads a regular file.
printf '%s\n' 'random:60:1 Liu 1 id=1' 'ping id=2' > "$workdir/in.txt"
out=$("$bin" --input "$workdir/in.txt")
echo "$out" | grep -q '^ok id=1 ' || fail "--input FILE was not served: $out"
echo "$out" | grep -q '^pong id=2$' || fail "--input FILE lost the ping"

# The window bounds how much is in flight, never what is answered:
# 500 distinct untagged requests come back byte-identical at 1 and 256.
i=0
while [ "$i" -lt 500 ]; do
    echo "random:30:$i ParSubtrees 2"
    i=$((i + 1))
done > "$workdir/many.txt"
"$bin" --max-pending 1 --input "$workdir/many.txt" > "$workdir/w1.txt"
"$bin" --max-pending 256 --input "$workdir/many.txt" > "$workdir/w256.txt"
[ "$(wc -l < "$workdir/w1.txt")" -eq 500 ] \
    || fail "--max-pending 1 did not answer all 500 lines"
cmp -s "$workdir/w1.txt" "$workdir/w256.txt" \
    || fail "--max-pending 1 and 256 answered differently"

# A line that opens with the v3 magic byte is still a text request here.
out=$(printf '\263TS3 Liu 1\n' | "$bin")
[ "$(echo "$out" | wc -l)" -eq 1 ] || fail "0xB3 line must answer one line"
echo "$out" | grep -q '^error code=bad_request ' \
    || fail "a 0xB3 line did not answer a text bad_request: $out"

echo "protocol v2 OK"
