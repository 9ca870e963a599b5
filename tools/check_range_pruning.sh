#!/usr/bin/env bash
# Range-query smoke, run by the CI `release` job after bench_query_server
# and runnable locally:
#
#   tools/check_range_pruning.sh [path/to/BENCH_server.json]
#
# Asserts the range phase of bench_query_server held its invariants on the
# Month-scale dataset: the value-form range aggregate answered exactly like
# the equivalent set enumeration, and the cached range aggregate survived an
# outside-the-window publish as a revalidated hit.

set -u
bench_json="${1:-build/BENCH_server.json}"

if [[ ! -f "${bench_json}" ]]; then
  echo "check_range_pruning: ${bench_json} not found (run bench_query_server first)" >&2
  exit 1
fi

python3 - "${bench_json}" <<'EOF'
import json, sys

path = sys.argv[1]
results = json.load(open(path))["results"]
rows = [r for r in results if r.get("range_dim")]
if not rows:
    sys.exit("check_range_pruning: no rows with a range phase in " + path)
# Prefer the Month row (the acceptance scale); otherwise the largest dataset.
row = next((r for r in rows if r.get("dataset") == "Month"),
           max(rows, key=lambda r: r.get("tuples", 0)))
print(f"check_range_pruning: {row['dataset']} range({row['range_dim']}): "
      f"answers_match={row['range_answers_match']}, "
      f"reval_hit={row['range_reval_hit']}")
failures = []
if not row["range_answers_match"]:
    failures.append("range aggregate disagrees with the set enumeration")
if not row["range_reval_hit"]:
    failures.append("cached range aggregate was not revalidated across "
                    "an outside-the-window publish")
if failures:
    sys.exit("check_range_pruning: FAIL — " + "; ".join(failures))
EOF
