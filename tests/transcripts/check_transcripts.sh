#!/usr/bin/env bash
# Golden transcripts of the `same` front ends: each case runs the CLI (or a
# session script) in a fresh directory and compares its stdout, exit codes
# and every CSV/JSON it writes against `<case>.txt` in the transcript
# directory. Only wall-time fields are masked (the session `time ...` line);
# every path is relative to the case directory, so no temp prefix leaks in.
#
# usage: check_transcripts.sh <same> <assets-dir> <transcript-dir> [--update]
#   --update rewrites the transcripts instead of comparing against them.
set -u

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <same> <assets-dir> <transcript-dir> [--update]" >&2
  exit 2
fi
SAME_BIN=$(realpath "$1")
ASSETS=$(realpath "$2")
GOLDEN=$(realpath "$3")
UPDATE=${4:-}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
failures=0

# `same <args>` inside a case: echoes the command, runs it with stderr
# dropped and records its exit code.
same() {
  echo "\$ same $*"
  "$SAME_BIN" "$@" 2>/dev/null
  echo "[exit $?]"
}

# run_case <name> <shell snippet>: the snippet runs in the case directory,
# where `assets` and `inputs` link to the model assets and to this
# transcript directory (for the inputs it holds).
run_case() {
  local name=$1 script=$2
  local dir=$WORK/$name
  mkdir -p "$dir"
  ln -s "$ASSETS" "$dir/assets"
  ln -s "$GOLDEN" "$dir/inputs"
  {
    (cd "$dir" && eval "$script")
    # Every written CSV/JSON artefact; heartbeats carry wall-clock stamps.
    (cd "$dir" && find . -maxdepth 1 -type f \( -name '*.csv' -o -name '*.json' \) \
                      ! -name '*.heartbeat.json' | LC_ALL=C sort) |
      while read -r file; do
        echo "--- ${file#./}"
        cat "$dir/$file"
      done
  } | sed -E 's/^time fingerprint .*/time <masked>/' > "$WORK/$name.txt"

  if [[ $UPDATE == --update ]]; then
    cp "$WORK/$name.txt" "$GOLDEN/$name.txt"
  elif ! diff -u "$GOLDEN/$name.txt" "$WORK/$name.txt"; then
    echo "FAIL: transcript '$name' differs" >&2
    failures=$((failures + 1))
  fi
}

FMEA="fmea assets/power_supply.mdl --reliability assets/reliability_workbook --goals CS1,MC1"
BRAKE="assets/brake_chain.ssam --component BrakeChain"
SEARCH="sm-search $BRAKE --catalogue inputs/brake_catalogue.csv"

run_case fmea_jobs1 "same $FMEA --jobs 1 --out fmeda.csv"
run_case fmea_jobs4 "same $FMEA --jobs 4 --out fmeda.csv"
run_case fmea_sm_jobs1 "same $FMEA --sm-model --jobs 1 --out fmeda.csv"
run_case fmea_sm_jobs4 "same $FMEA --sm-model --jobs 4 --out fmeda.csv"
# A journal written without --sm-model must not be replayed under it: the
# second run's CSV equals fmea_sm_jobs1's.
run_case fmea_sm_after_plain_journal "
  same $FMEA --jobs 1 --journal c.journal > /dev/null
  same $FMEA --sm-model --jobs 1 --journal c.journal --out fmeda.csv"
run_case merge_journals "
  same $FMEA --sm-model --shard 0/2 --journal shard0.journal
  same $FMEA --sm-model --shard 1/2 --journal shard1.journal
  same merge-journals shard0.journal shard1.journal --out merged.csv"
run_case graph_fmea "same graph-fmea $BRAKE --out fmeda.csv"
run_case fta "same fta $BRAKE --out cutsets.csv"
run_case sm_search_front "same $SEARCH --out front.csv --json front.json"
run_case sm_search_target "same $SEARCH --target-asil B"
run_case sm_search_optimal "same $SEARCH --target-asil B --optimal"
run_case impact "same impact assets/brake_chain.ssam Sensor"
run_case validate "same validate assets/brake_chain.ssam"
# A NaN distribution read from the model file fails the range rule.
run_case validate_nan "
  sed 's/value=\"0.6\"/value=\"nan\"/' assets/brake_chain.ssam > nan.ssam
  same validate nan.ssam"
run_case monitor "same monitor assets/brake_chain.ssam"
run_case session "same session < inputs/session_script.txt"

if [[ $failures -ne 0 ]]; then
  echo "$failures transcript(s) differ" >&2
  exit 1
fi
echo "all transcripts match"
