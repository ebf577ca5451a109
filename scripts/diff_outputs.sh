#!/usr/bin/env bash
# Behaviour oracle for refactors: runs two `rtlsat` binaries over the
# golden corpus (tests/golden/MANIFEST) and diffs what they print, with
# wall-clock fields masked.
#
#   scripts/diff_outputs.sh <parent-rtlsat> <change-rtlsat>
#
# Seven sets:
#   1. every single goal under hdpll, hdpll-s and hdpll-sp, with and
#      without --no-preproc: exit code, stdout, the --trace file and the
#      --stats-json record;
#   2. every multi-goal line as one session under the same engines, with
#      and without --no-preproc, run with --stats --trace: exit code,
#      stdout, stderr and the trace;
#   3. every goal of the corpus under the same engines, each sent twice
#      in a row (a cache miss, then a hit), as one
#      `serve --session-cache 4` stream;
#   4. every single goal under all five engines with
#      --fallback --check --stats: exit code, stdout and stderr;
#   5. every goal of the corpus under all five engines, its netlist
#      inline, as one plain `serve` stream (no session cache);
#   6. every goal of the corpus under all five engines with
#      "fallback":true,"check":true, as one plain `serve` stream;
#   7. one `serve --max-line-bytes 512` stream of lines the service
#      rejects (a blank line, malformed JSON, an oversized line, an
#      unknown goal, a non-Boolean goal, an unknown engine) among valid
#      requests, with and without --no-telemetry. No --metrics-every:
#      metrics records carry wall-clock fields.
# Masked: search_time_ms, learn_time_ms, time_ms and file in records,
# and the millisecond columns and search/learn times of --stats.
#
# Exits 0 when the outputs agree, 1 (printing a unified diff) when they
# do not, 2 on a usage error.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 <parent-rtlsat> <change-rtlsat>" >&2
  exit 2
fi
golden=$(cd "$(dirname "$0")/../tests/golden" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tmp=$work/tmp
engines="hdpll hdpll-s hdpll-sp"
all_engines="$engines eager lazy"

mask() {
  sed -E \
    -e 's/"(search_time_ms|learn_time_ms|time_ms)":[0-9.]+/"\1":_/g' \
    -e 's/"file":"[^"]*"/"file":_/g' \
    -e 's/[0-9]+\.[0-9]+ ms/_ ms/g' \
    -e 's/^(c (search|learn)_time +).*/\1_/'
}

# `<file> <goal-list>` per MANIFEST line; multi-goal lines (tokens
# `goal=verdict`) become one comma-separated list.
corpus() {
  grep -v -e '^#' -e '^[[:space:]]*$' "$golden/MANIFEST" | while read -r file rest; do
    case $rest in
      *=*) goals=$(for t in $rest; do printf '%s,' "${t%%=*}"; done) ;;
      *) goals=${rest%% *}, ;;
    esac
    echo "$file ${goals%,}"
  done
}

# A netlist file as one JSON string body.
inline() {
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$1" | awk '{ printf "%s\\n", $0 }'
}

# requests <engines> <source: file|inline> <copies> <extra JSON members>:
# one serve request per corpus goal and engine, <copies> times each.
requests() {
  local n=0 file goals engine goal src
  while read -r file goals; do
    if [ "$2" = inline ]; then
      src="\"netlist\":\"$(inline "$golden/$file")\""
    else
      src="\"file\":\"$golden/$file\""
    fi
    for engine in $1; do
      for goal in ${goals//,/ }; do
        for _ in $(seq "$3"); do
          n=$((n + 1))
          printf '{"id":"%s",%s,"goal":"%s","engine":"%s"%s}\n' \
            "$n" "$src" "$goal" "$engine" "$4"
        done
      done
    done
  done < <(corpus)
}

# The seventh set's stream: every kind of line the service answers with
# an `error` record (or skips, for the blank line), between two valid
# requests.
bad_lines() {
  local ok="\"file\":\"$golden/adder_sat.rtl\""
  printf '{"id":"v1",%s,"goal":"goal"}\n\n' "$ok"
  echo '{"id":"broken", this is not json'
  printf '{"id":"big","file":"%0600d"}\n' 0
  printf '{"id":"nope",%s,"goal":"nope"}\n' "$ok"
  printf '{"id":"word",%s,"goal":"s"}\n' "$ok"
  printf '{"id":"engine",%s,"goal":"goal","engine":"frobnicator"}\n' "$ok"
  printf '{"id":"v2","file":"%s","goal":"goal"}\n' "$golden/adder_unsat.rtl"
}

# run <side> <binary>: writes everything <binary> prints to $work/<side>.
run() {
  local out=$work/$1 bin=$2 file goals engine pre code tag
  mkdir -p "$out"
  while read -r file goals; do
    for engine in $engines; do
      for pre in "" --no-preproc; do
        tag=$file.$goals.$engine${pre:+.raw}
        code=0
        rm -f "$tmp.trace" "$tmp.json"
        case $goals in
          *,*)
            "$bin" "$golden/$file" "$goals" --engine "$engine" $pre --stats \
              --trace "$tmp.trace" >"$tmp.out" 2>"$tmp.err" || code=$?
            { echo "exit $code"; cat "$tmp.out"; echo "-- stderr"; mask <"$tmp.err"
              echo "-- trace"; cat "$tmp.trace"; } >"$out/$tag"
            ;;
          *)
            "$bin" "$golden/$file" "$goals" --engine "$engine" $pre \
              --trace "$tmp.trace" --stats-json "$tmp.json" >"$tmp.out" 2>/dev/null || code=$?
            { echo "exit $code"; cat "$tmp.out"; echo "-- trace"; cat "$tmp.trace"
              echo "-- stats-json"; mask <"$tmp.json"; } >"$out/$tag"
            ;;
        esac
      done
    done
    case $goals in *,*) continue ;; esac
    for engine in $all_engines; do
      code=0
      "$bin" "$golden/$file" "$goals" --engine "$engine" --fallback --check --stats \
        >"$tmp.out" 2>"$tmp.err" || code=$?
      { echo "exit $code"; cat "$tmp.out"; echo "-- stderr"; mask <"$tmp.err"; } \
        >"$out/$file.$goals.$engine.fallback-check"
    done
  done < <(corpus)
  requests "$engines" file 2 "" >"$tmp.requests"
  "$bin" serve --session-cache 4 <"$tmp.requests" 2>/dev/null | mask >"$out/serve-session-cache.jsonl"
  requests "$all_engines" inline 1 "" >"$tmp.requests"
  "$bin" serve <"$tmp.requests" 2>/dev/null | mask >"$out/serve-inline.jsonl"
  requests "$all_engines" file 1 ',"fallback":true,"check":true' >"$tmp.requests"
  "$bin" serve <"$tmp.requests" 2>/dev/null | mask >"$out/serve-fallback-check.jsonl"
  bad_lines >"$tmp.requests"
  "$bin" serve --max-line-bytes 512 <"$tmp.requests" 2>/dev/null | mask >"$out/serve-bad-lines.jsonl"
  "$bin" serve --max-line-bytes 512 --no-telemetry <"$tmp.requests" 2>/dev/null |
    mask >"$out/serve-bad-lines-no-telemetry.jsonl"
}

run parent "$1"
run change "$2"
if diff -ru "$work/parent" "$work/change"; then
  echo "no difference: $(find "$work/change" -type f | wc -l) output files agree"
else
  exit 1
fi
