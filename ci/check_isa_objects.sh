#!/usr/bin/env bash
# ISA translation-unit guard (ctest isa_tu_guard; docs/execution.md).
#
# The AVX2 / AVX-512 batch-engine TUs are the only objects compiled with
# -mavx2 / -mavx512f.  Any inline or template function they share with a
# baseline object is emitted as a weak (COMDAT) copy in both, and the
# linker may keep either copy — so an AVX copy could end up on a
# baseline path and fault on a CPU without the ISA.  This script lists
# the weak functions each ISA object shares with the baseline objects
# and fails if the ISA object's copy of any of them contains a VEX/EVEX
# instruction (a mnemonic starting with `v`, or ymm/zmm/opmask
# operands).
#
# Usage: ci/check_isa_objects.sh OBJECT...
#   An argument may hold several ';'-separated paths (a CMake list, as
#   $<TARGET_OBJECTS:...> expands).  ISA objects are recognised by name
#   (batch_engine_avx2.cpp.o, batch_engine_avx512.cpp.o); every other
#   object counts as baseline.
# Exit: 0 clean, 1 a shared copy holds wide code, 77 skipped (nm or
# objdump missing, or no ISA object given).
set -euo pipefail

for tool in nm objdump; do
  if ! command -v "$tool" > /dev/null; then
    echo "skipped: $tool not found"
    exit 77
  fi
done

isa=()
base=()
for arg in "$@"; do
  IFS=';' read -ra objs <<< "$arg"
  for obj in "${objs[@]}"; do
    case "$(basename "$obj")" in
      batch_engine_avx2.cpp.o | batch_engine_avx512.cpp.o) isa+=("$obj") ;;
      *) base+=("$obj") ;;
    esac
  done
done
if [ "${#isa[@]}" -eq 0 ]; then
  echo "skipped: no ISA objects given"
  exit 77
fi

# Weak function symbols an object defines (mangled, one per line).
weak_functions() {
  nm --defined-only "$@" | awk 'NF == 3 && $2 == "W" { print $3 }' | sort -u
}

base_weak="$(mktemp)"
trap 'rm -f "$base_weak"' EXIT
if [ "${#base[@]}" -gt 0 ]; then
  weak_functions "${base[@]}" > "$base_weak"
fi

status=0
for obj in "${isa[@]}"; do
  shared=0
  while read -r sym; do
    [ -n "$sym" ] || continue
    shared=$((shared + 1))
    wide="$(objdump -d --no-show-raw-insn --disassemble="$sym" "$obj" |
      awk -F'\t' 'NF >= 2 && $1 ~ /^ *[0-9a-f]+:$/ {
                    if ($2 ~ /^v/ || $2 ~ /%[yz]mm|%k[0-7]/) print "    " $2
                  }')"
    if [ -n "$wide" ]; then
      echo "FAIL $(basename "$obj"): shared weak $sym holds wide code:"
      echo "$wide" | head -5
      status=1
    fi
  done < <(comm -12 <(weak_functions "$obj") "$base_weak")
  echo "$(basename "$obj"): $shared weak functions shared with baseline objects"
done
exit "$status"
