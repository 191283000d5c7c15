#!/usr/bin/env bash
# Tier-1 verification: the full test suite, which also regenerates
# every committed artifact (results/conformance.json,
# results/ablation.json, the generated docs, the table digests) and
# compares its bytes.
#
# CI's verify matrix and local pre-push share this entry point:
#
#   ./scripts/verify.sh          # the test suite
#   ./scripts/verify.sh --cov    # under pytest-cov with the
#                                # line-coverage floor from pyproject
#                                # (fail_under = 85; one CI entry)
set -euo pipefail
cd "$(dirname "$0")/.."

COV=0
for arg in "$@"; do
  case "$arg" in
    --cov) COV=1 ;;
    *) echo "usage: $0 [--cov]" >&2; exit 2 ;;
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

# The wall time of the whole pytest process, printed pass or fail:
# pytest's own summary line is read before its exit-time cleanup of
# old temporary directories, which can take longer than the tests.
start_ns=$(date +%s%N)
status=0
python -m pytest "${PYTEST_ARGS[@]}" || status=$?
wall_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
printf 'tier-1 process wall time: %d.%03d s (exit %d)\n' \
  $((wall_ms / 1000)) $((wall_ms % 1000)) "$status"
exit "$status"
