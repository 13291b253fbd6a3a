#!/usr/bin/env bash
# Write the shadowsim report of every canned scenario, so two commits'
# reports can be compared file by file:
#   OUT_DIR/<spec>.json = shadowsim SPEC --json --seed 1
# for each examples/*.scn and perfbench/population.scn (which it only
# reads). SEEDS="1 2 3" adds OUT_DIR/<spec>.seed<N>.json for every other
# seed listed.
#
# Usage:
#   bench/scn_reports.sh OUT_DIR [build-dir]   (default: build-rel)
#       Builds shadowsim in Release mode first, then writes the reports.
#   bench/scn_reports.sh --compare PARENT_BUILD CHANGE_BUILD OUT_DIR
#       Runs each build's tools/shadowsim (built beforehand) over this
#       checkout's specs into OUT_DIR/parent and OUT_DIR/change, prints a
#       diff of every report that differs, and exits 1 if any differs.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SEEDS="${SEEDS:-1}"

# write_reports SHADOWSIM OUT_DIR
write_reports() {
  mkdir -p "$2"
  for spec in "$ROOT"/examples/*.scn "$ROOT"/perfbench/population.scn; do
    for seed in $SEEDS; do
      name="$(basename "$spec" .scn)"
      [[ "$seed" == 1 ]] || name="$name.seed$seed"
      "$1" "$spec" --json --seed "$seed" > "$2/$name.json"
      echo "wrote $2/$name.json"
    done
  done
}

if [[ "${1:-}" == "--compare" ]]; then
  if [[ $# -ne 4 ]]; then
    echo "usage: $0 --compare PARENT_BUILD CHANGE_BUILD OUT_DIR" >&2
    exit 2
  fi
  OUT="$4"
  write_reports "$2/tools/shadowsim" "$OUT/parent"
  write_reports "$3/tools/shadowsim" "$OUT/change"
  differ=0
  for report in "$OUT"/parent/*.json; do
    name="$(basename "$report")"
    if ! diff -u "$report" "$OUT/change/$name"; then
      echo "DIFFERS: $name"
      differ=1
    fi
  done
  exit "$differ"
fi

if [[ $# -lt 1 ]]; then
  echo "usage: $0 OUT_DIR [build-dir] | --compare PARENT_BUILD CHANGE_BUILD OUT_DIR" >&2
  exit 2
fi
BUILD="${2:-$ROOT/build-rel}"
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" --target shadowsim -j"$(nproc)" > /dev/null
write_reports "$BUILD/tools/shadowsim" "$1"
