#!/bin/sh
# Prints the net src/ line delta of HEAD against a base revision, as
# "src/: +added -deleted = net lines". The base defaults to the merge base
# of HEAD with origin/main.
#
#   tools/src_line_delta.sh [base-rev]
set -eu
base=${1:-$(git merge-base HEAD origin/main)}
git diff --numstat "$base" HEAD -- src/ |
  awk '{ add += $1; del += $2 }
       END { printf "src/: +%d -%d = %+d lines\n", add, del, add - del }'
