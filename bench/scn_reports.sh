#!/usr/bin/env bash
# Write the shadowsim report of every canned scenario, so two commits'
# reports can be diffed file by file:
#   OUT_DIR/<spec>.json = shadowsim SPEC --json --seed 1
# for each examples/*.scn and perfbench/population.scn (which it only
# reads). Builds shadowsim in Release mode first.
#
# Usage: bench/scn_reports.sh OUT_DIR [build-dir]   (default: build-rel)
# Compare two trees: run it in each, then `diff -r OUT_A OUT_B`.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 OUT_DIR [build-dir]" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$1"
BUILD="${2:-$ROOT/build-rel}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" --target shadowsim -j"$(nproc)" > /dev/null

mkdir -p "$OUT"
for spec in "$ROOT"/examples/*.scn "$ROOT"/perfbench/population.scn; do
  name="$(basename "$spec" .scn)"
  "$BUILD/tools/shadowsim" "$spec" --json --seed 1 > "$OUT/$name.json"
  echo "wrote $OUT/$name.json"
done
