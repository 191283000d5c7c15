#!/usr/bin/env bash
# Tier-1 verification: the full test suite plus the docs freshness
# check (regenerating docs/EXPERIMENTS.md, docs/ABLATIONS.md and
# docs/PERF_HISTORY.md must produce no diff).
#
# CI's verify matrix and local pre-push share this entry point:
#
#   ./scripts/verify.sh          # tests + docs freshness
#   ./scripts/verify.sh --fast   # tests only (matrix jobs / quick loops;
#                                # docs freshness is version-independent
#                                # and runs once on the full entry)
#   ./scripts/verify.sh --cov    # tests under pytest-cov with the
#                                # line-coverage floor from pyproject
#                                # (fail_under = 85; the CI full entry)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
COV=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --cov) COV=1 ;;
    *) echo "usage: $0 [--fast] [--cov]" >&2; exit 2 ;;
  esac
done

# No-op where the package is pip-installed (CI); lets uninstalled
# checkouts run the suite straight from the source tree.
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

PYTEST_ARGS=(-x -q)
if [[ "$COV" -eq 1 ]]; then
  # Coverage config (source, fail_under) lives in pyproject.toml.
  PYTEST_ARGS+=(--cov --cov-report=term-missing:skip-covered)
fi

python -m pytest "${PYTEST_ARGS[@]}"
if [[ "$FAST" -eq 0 ]]; then
  python benchmarks/generate_experiments_md.py --check
  python benchmarks/generate_ablations_md.py --check
  python benchmarks/generate_perf_history_md.py --check
fi
