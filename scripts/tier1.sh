#!/usr/bin/env sh
# Tier-1 tests: the full suite, then the same suite under `python -O`, where
# `assert` statements are dropped, so the self-checks that must survive
# optimisation are exercised too.  Exits non-zero if either run fails.
#
#     scripts/tier1.sh [extra pytest arguments]

cd "$(dirname "$0")/.." || exit 2
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0
echo "== python -m pytest"
python -m pytest -q --continue-on-collection-errors "$@" || status=1
echo "== python -O -m pytest"
python -O -m pytest -q --continue-on-collection-errors "$@" || status=1
exit $status
