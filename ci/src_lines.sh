#!/usr/bin/env bash
# Counts the non-blank lines of the C++ sources under src/ (*.cpp and
# *.hpp), the size measure each change reports its net delta in, and
# likewise of examples/ (*.cpp, *.hpp) and bench/ (*.cpp, *.hpp, *.py).
#
#   ci/src_lines.sh        prints the working tree's counts
#   ci/src_lines.sh REF    also prints the counts at git REF and the
#                          working tree's deltas against it, e.g.
#                          `ci/src_lines.sh HEAD` before committing a
#                          change, `ci/src_lines.sh HEAD~1` after.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

ref=""
if [[ $# -ge 1 ]]; then
  ref=$1
  git rev-parse --verify --quiet "${ref}^{commit}" > /dev/null ||
    { echo "src_lines.sh: unknown git ref '${ref}'" >&2; exit 2; }
fi

total_now=0
total_old=0
# report DIR EXT...: prints DIR's count (and its delta against REF).
report() {
  local dir=$1
  shift
  local names=() specs=() ext
  for ext in "$@"; do
    names+=(-o -name "*.${ext}")
    specs+=("${dir}/*.${ext}")
  done
  local now
  now=$(find "${dir}" -type f \( "${names[@]:1}" \) -exec cat {} + |
    grep -c '[^[:space:]]' || true)
  echo "${dir}/ non-blank lines: ${now}"
  total_now=$((total_now + now))
  [[ -n "${ref}" ]] || return 0
  # git grep over a tree prints REF:path:count per file.
  local old
  old=$(git grep -c '[^[:space:]]' "${ref}" -- "${specs[@]}" |
    awk -F: '{ n += $NF } END { print n + 0 }')
  echo "${dir}/ non-blank lines at ${ref}: ${old}"
  printf '%s/ delta against %s: %+d\n' "${dir}" "${ref}" $((now - old))
  total_old=$((total_old + old))
}

report src cpp hpp
report examples cpp hpp
report bench cpp hpp py
if [[ -n "${ref}" ]]; then
  printf 'src/+examples/+bench/ delta against %s: %+d\n' "${ref}" \
    $((total_now - total_old))
fi
