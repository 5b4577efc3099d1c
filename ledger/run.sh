#!/usr/bin/env bash
# Build the ledger and the tpdbt daemon it drives, then run one workload.
# Run from the repository root:
#
#   bash ledger/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error, so the last line of standard
# output is the ledger's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . ./ledger/ledger.exe ./bin/tpdbt.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
