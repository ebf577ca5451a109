#!/usr/bin/env bash
# Behaviour oracle for refactors: runs two `rtlsat` binaries over the
# golden corpus (tests/golden/MANIFEST) and diffs what they print, with
# wall-clock fields masked.
#
#   scripts/diff_outputs.sh <parent-rtlsat> <change-rtlsat>
#
# Three sets, each under the engines hdpll, hdpll-s and hdpll-sp:
#   1. every single goal, with and without --no-preproc: exit code,
#      stdout, the --trace file and the --stats-json record;
#   2. every multi-goal line as one session, with and without
#      --no-preproc, run with --stats --trace: exit code, stdout,
#      stderr and the trace;
#   3. every goal of the corpus, each sent twice in a row (a cache miss,
#      then a hit), as one `serve --session-cache 4` stream.
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
  done < <(corpus)
  local n=0 goal
  while read -r file goals; do
    for engine in $engines; do
      for goal in ${goals//,/ }; do
        for _ in 1 2; do
          n=$((n + 1))
          printf '{"id":"%s","file":"%s","goal":"%s","engine":"%s"}\n' \
            "$n" "$golden/$file" "$goal" "$engine"
        done
      done
    done
  done < <(corpus) >"$tmp.requests"
  "$bin" serve --session-cache 4 <"$tmp.requests" 2>/dev/null | mask >"$out/serve.jsonl"
}

run parent "$1"
run change "$2"
if diff -ru "$work/parent" "$work/change"; then
  echo "no difference: $(find "$work/change" -type f | wc -l) output files agree"
else
  exit 1
fi
