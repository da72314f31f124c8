#!/usr/bin/env bash
# Line counts of every src/ subdirectory at a base commit and in the
# working tree, with the delta — the net line change a PR reports.
#
#   tools/loc_delta.sh [BASE]
#
# BASE defaults to the merge base of HEAD and origin/main (or HEAD when
# there is no origin/main). Counts cover *.h and *.cc files; untracked
# files in the working tree count too.
set -euo pipefail

cd "$(dirname "$0")/.."

BASE="${1:-$(git merge-base HEAD origin/main 2>/dev/null ||
  git rev-parse HEAD)}"

# Lines under src/$1 at $BASE.
count_base() {
  git ls-tree -r --name-only "$BASE" -- "src/$1" |
    grep -E '\.(h|cc)$' |
    while read -r f; do git show "$BASE:$f"; done | wc -l
}

# Lines under src/$1 in the working tree.
count_tree() {
  find "src/$1" -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
    xargs -0 -r cat | wc -l
}

printf '%-12s %8s %8s %8s\n' dir base tree delta
total_base=0
total_tree=0
for dir in $( (git ls-tree -d --name-only "$BASE" src/;
               find src -mindepth 1 -maxdepth 1 -type d) |
             sed 's|^src/||' | sort -u); do
  b=0
  t=0
  git cat-file -e "$BASE:src/$dir" 2>/dev/null && b=$(count_base "$dir")
  [ -d "src/$dir" ] && t=$(count_tree "$dir")
  printf '%-12s %8d %8d %+8d\n' "$dir" "$b" "$t" $((t - b))
  total_base=$((total_base + b))
  total_tree=$((total_tree + t))
done
printf '%-12s %8d %8d %+8d\n' total "$total_base" "$total_tree" \
  $((total_tree - total_base))
