#!/bin/sh
# figures.sh TPDBT: regenerate the golden figure tables twice — from a
# fresh sweep of every suite member at 200k guest instructions per
# stage, and from the same sweep read back from its checkpoints — into
# fresh.txt and resumed.txt.  The read-back must resume every member.
set -e
tpdbt=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$tpdbt" sweep --max-steps 200000 --jobs 1 --checkpoint "$dir/ckpt" \
  > fresh.txt 2> "$dir/fresh.err"
"$tpdbt" sweep --max-steps 200000 --jobs 1 --checkpoint "$dir/ckpt" \
  > resumed.txt 2> "$dir/resumed.err"
members=$(grep -c '^running ' "$dir/fresh.err")
resumed=$(grep -c ': resumed$' "$dir/resumed.err" || true)
if [ "$resumed" -ne "$members" ]; then
  echo "figures.sh: read back $resumed of $members members" >&2
  cat "$dir/resumed.err" >&2
  exit 1
fi
