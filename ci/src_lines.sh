#!/usr/bin/env bash
# Counts the non-blank lines of the C++ sources under src/ (*.cpp and
# *.hpp), the size measure each change reports its net delta in.
#
#   ci/src_lines.sh        prints the working tree's count
#   ci/src_lines.sh REF    also prints the count at git REF and the
#                          working tree's delta against it, e.g.
#                          `ci/src_lines.sh HEAD` before committing a
#                          change, `ci/src_lines.sh HEAD~1` after.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

now=$(find src -type f \( -name '*.cpp' -o -name '*.hpp' \) -exec cat {} + |
  grep -c '[^[:space:]]' || true)
echo "src/ non-blank lines: ${now}"
if [[ $# -ge 1 ]]; then
  ref=$1
  git rev-parse --verify --quiet "${ref}^{commit}" > /dev/null ||
    { echo "src_lines.sh: unknown git ref '${ref}'" >&2; exit 2; }
  # git grep over a tree prints REF:path:count per file.
  old=$(git grep -c '[^[:space:]]' "${ref}" -- 'src/*.cpp' 'src/*.hpp' |
    awk -F: '{ n += $NF } END { print n + 0 }')
  echo "src/ non-blank lines at ${ref}: ${old}"
  printf 'src/ delta against %s: %+d\n' "${ref}" $((now - old))
fi
