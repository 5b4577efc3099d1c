#!/bin/sh
# report.sh TPDBT: write the text of `report` and `analyze` over three
# mcf profiles into report.out -- T, a threshold-20 profile of 200k
# guest instructions; A, a full-run AVEP at the same budget; and S, a
# 50k-instruction flat profile -- each command under a `$` header line.
set -e
tpdbt=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
profile() {
  "$tpdbt" profile mcf -t "$1" --max-steps "$2" --out-dir "$dir/$3" \
    > /dev/null 2> "$dir/$3.err" || { cat "$dir/$3.err" >&2; exit 1; }
}
profile 20 200000 t
profile 0 200000 a
profile 0 50000 s
t=$dir/t/mcf.prof
a=$dir/a/mcf.prof
s=$dir/s/mcf.prof
{
  echo '$ tpdbt report T'
  "$tpdbt" report "$t"
  echo '$ tpdbt report T --avep A'
  "$tpdbt" report "$t" --avep "$a"
  echo '$ tpdbt analyze T A'
  "$tpdbt" analyze "$t" "$a"
  echo '$ tpdbt analyze S A'
  "$tpdbt" analyze "$s" "$a"
} > report.out
