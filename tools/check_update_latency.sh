#!/usr/bin/env bash
# Update-latency smoke, run by the CI `release` job after bench_query_server
# and runnable locally:
#
#   tools/check_update_latency.sh [path/to/BENCH_server.json]
#
# Asserts that the incremental delta-merge publish beats a from-scratch
# CubeUpdater::Rebuild of the same batch by at least 10x on the Month-scale
# dataset. An incremental publish is O(batch x depth) and the rebuild is
# O(history), so a whole-cube walk
# that comes back into the publish path pulls the ratio under the floor.
# Prints both numbers either way; on a regression it fails loudly with them.
# SCDWARF_MIN_UPDATE_SPEEDUP overrides the required ratio (default 10).

set -u
bench_json="${1:-build/BENCH_server.json}"
min_speedup="${SCDWARF_MIN_UPDATE_SPEEDUP:-10}"

if [[ ! -f "${bench_json}" ]]; then
  echo "check_update_latency: ${bench_json} not found (run bench_query_server first)" >&2
  exit 1
fi

python3 - "${bench_json}" "${min_speedup}" <<'EOF'
import json, sys

path, min_speedup = sys.argv[1], float(sys.argv[2])
results = json.load(open(path))["results"]
rows = [r for r in results if "update_full_ms" in r]
if not rows:
    sys.exit("check_update_latency: no rows with update_full_ms in " + path)
# Prefer the Month row (the acceptance scale); otherwise the largest dataset.
row = next((r for r in rows if r.get("dataset") == "Month"),
           max(rows, key=lambda r: r.get("tuples", 0)))
inc, full = row["update_ms"], row["update_full_ms"]
speedup = full / inc if inc > 0 else 0.0
print(f"check_update_latency: {row['dataset']} ({row.get('tuples', '?')} tuples): "
      f"incremental {inc:.2f} ms vs full rebuild {full:.2f} ms "
      f"({speedup:.1f}x, required >= {min_speedup:.1f}x)")
if speedup < min_speedup:
    sys.exit(f"check_update_latency: FAIL — incremental publish ({inc:.2f} ms) "
             f"does not beat the full rebuild ({full:.2f} ms) by the required "
             f"{min_speedup:.1f}x on {row['dataset']}")
EOF
