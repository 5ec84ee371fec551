#!/usr/bin/env bash
# Byte-identity sweep for cssamed: starts `cssamed --socket=... ARGS`,
# then sends every example program through `cssamec --connect` under
# every deterministic option-table mode, twice (pass 2 answers from the
# warm cache). Each remote run must print exactly the standalone run's
# stdout and stderr and exit with its code. Between the passes every
# child of the daemon is SIGKILLed: a no-op for a standalone daemon, the
# chaos step for a --fleet gateway (pass 2 must come back byte-identical,
# first from the fallback path, then from restarted workers).
#
# The modes cover the option table row by row, proving its CLI -> JSON
# -> RunOptions round trip. --stats stays out: its phase lines are
# wall-clock times, which no two runs share.
#
# usage (from the repository root, after building cssamec and cssamed):
#   .github/scripts/byte_identity_sweep.sh [cssamed args...]
set -euo pipefail

cssamec=./build/examples/cssamec
sock=$(mktemp -u /tmp/cssamed-sweep.XXXXXX.sock)
./build/examples/cssamed --socket="$sock" "$@" &
daemon=$!
trap 'kill -TERM "$daemon" 2>/dev/null || true' EXIT
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ]

modes=("" "--csan" "--vrange" "--races" "--csan --vrange" "--dump-form"
       "--dump-pfg" "--tso" "--points-to" "--explore" "--explore --no-dpor"
       "--no-cssame --dump-form" "--run 3 --memory-model=tso" "--opt"
       "--fix")
work=$(mktemp -d)
requests=0
for pass in 1 2; do
  for mode in "${modes[@]}"; do
    for f in examples/programs/*.cp; do
      lcode=0
      # shellcheck disable=SC2086  # $mode is a word list
      "$cssamec" $mode "$f" >"$work/local.out" 2>"$work/local.err" ||
        lcode=$?
      rcode=0
      # shellcheck disable=SC2086
      "$cssamec" --connect="$sock" $mode "$f" \
        >"$work/remote.out" 2>"$work/remote.err" || rcode=$?
      cmp "$work/local.out" "$work/remote.out"
      cmp "$work/local.err" "$work/remote.err"
      [ "$lcode" = "$rcode" ] ||
        { echo "exit $lcode != $rcode: $mode $f"; exit 1; }
      requests=$((requests + 1))
    done
  done
  if [ "$pass" = 1 ]; then pkill -KILL -P "$daemon" || true; fi
done
rm -rf "$work"
echo "byte-identical requests: $requests"
[ "$requests" -ge 50 ]
trap - EXIT
kill -TERM "$daemon"
wait "$daemon"
