#!/usr/bin/env bash
# Reachability audit: every mcdc:: function that mcdc_lib defines must be
# kept by some binary the repository runs, or be listed with its reason in
# tools/reach_allowlist.txt. A function that only tests call is dead weight.
#
#   tools/reach_audit.sh [BUILD_DIR]     (default: build-reach)
#
# Builds perfbench/ (which pulls in the root build) at -O0 with
# -ffunction-sections and --gc-sections, links the roots (mcdc_bench, the
# CLI, bench_diff, mcdc_lint and every bench/ and examples/ program; google
# benchmark must be installed for bench_micro_core), then compares the
# library's defined functions (nm, T/W) with those the roots keep. -O0
# keeps inlining from dropping live functions out of the roots.
# Header-inline functions are not covered: the library emits only the ones
# its own code calls, so one that only tests call is invisible here.
#
# Prints each unreached function by full signature, marked `allowed` when
# its qualified name is on the list; exits 1 if any is not.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-reach}"

cmake -S "$ROOT/perfbench" -B "$BUILD_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
roots=(mcdc_bench mcdc bench_diff mcdc_lint)
for src in "$ROOT"/bench/*.cpp "$ROOT"/examples/*.cpp; do
  roots+=("$(basename "$src" .cpp)")
done
cmake --build "$BUILD_DIR" --target "${roots[@]}" >/dev/null

# Functions in namespace mcdc (members and local lambdas included).
mcdc_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[KV]*4mcdc/ {print $3}' | c++filt | sort -u
}
bins=("$BUILD_DIR/mcdc_bench")
for t in "${roots[@]:1}"; do bins+=("$BUILD_DIR/mcdc/$t"); done
allowed="$(sed 's/#.*//; s/[[:space:]]*$//; /^$/d' "$ROOT/tools/reach_allowlist.txt")"
status=0
while IFS= read -r sig; do
  if grep -qxF "${sig%%(*}" <<<"$allowed"; then
    echo "allowed: $sig"
  else
    echo "UNREACHED: $sig"
    status=1
  fi
done < <(comm -23 <(mcdc_functions "$BUILD_DIR/mcdc/libmcdc_lib.a") \
                  <(mcdc_functions "${bins[@]}"))
exit "$status"
