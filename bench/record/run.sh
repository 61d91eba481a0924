#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload in this
# process; run from the repository root:
#
#   bash bench/record/run.sh --workload table2-max --seed 1 --seconds 45 --trace 0
#
# The last line of standard output is the JSON result (see main.ml).
# Without the repository's libraries beside it the build fails, and so
# does this script, before any result is printed.
set -euo pipefail
exec dune exec --root . --display quiet bench/record/main.exe -- one "$@"
