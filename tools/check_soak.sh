#!/usr/bin/env bash
# Fleet soak gate, run by the CI `release` job after the benchmarks and
# runnable locally:
#
#   tools/check_soak.sh [path/to/build-dir]
#
# Runs bench/soak_fleet for SCDWARF_SOAK_SECONDS (default 45): an in-process
# publisher spooling epochs every 2 s, 2 real scdwarf_replica processes
# following the spool purely by polling, a router in front, session threads
# churning a differentially-checked mixed workload — while a killer SIGKILLs
# and respawns replicas and a corrupter drops broken files into the spool.
#
# Fails on ANY differential mismatch, on a one-shot p99 over
# SCDWARF_SOAK_P99_BOUND_US (default 200000), and unless at least
# SCDWARF_SOAK_MIN_KILLS (default 3) kills were survived with every restart
# provably catching up to the newest spooled epoch via the spool. The soak
# row is merged into BENCH_server.json next to the benchmark rows.

set -u
build_dir="${1:-build}"
seconds="${SCDWARF_SOAK_SECONDS:-45}"
min_kills="${SCDWARF_SOAK_MIN_KILLS:-3}"
p99_bound_us="${SCDWARF_SOAK_P99_BOUND_US:-200000}"

if [[ ! -x "${build_dir}/bench/soak_fleet" ]]; then
  echo "check_soak: ${build_dir}/bench/soak_fleet not found (build first)" >&2
  exit 1
fi

# Kill cadence sized so the requested minimum is comfortably exceeded in the
# window, with time left after the last respawn for the catch-up proof.
kill_ms=$(( (seconds * 1000) / (min_kills + 2) ))

(
  cd "${build_dir}"
  ./bench/soak_fleet \
      --duration-s="${seconds}" \
      --replicas=2 \
      --sessions=4 \
      --publish-ms=2000 \
      --kill-ms="${kill_ms}" \
      --corrupt-ms=5000 \
      --p99-bound-us="${p99_bound_us}"
) || { echo "check_soak: FAIL — soak_fleet exited nonzero" >&2; exit 1; }

python3 - "${build_dir}/BENCH_server.json" "${min_kills}" "${p99_bound_us}" <<'EOF'
import json, sys

path, min_kills, p99_bound = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
results = json.load(open(path))["results"]
rows = [r for r in results if "soak_kills" in r]
if not rows:
    sys.exit("check_soak: no soak row in " + path)
row = rows[-1]
print(f"check_soak: {row['soak_duration_s']:.0f}s, "
      f"{row['soak_requests']} one-shots + {row['soak_cursor_drains']} drains "
      f"over {row['soak_epochs']} epochs; kills {row['soak_kills']}, "
      f"catch-ups {row['soak_catchups']}, corruptions "
      f"{row['soak_corruptions']}; mismatches {row['soak_mismatches']}; "
      f"p99 {row['soak_p99_us']:.0f}us (bound {p99_bound:.0f}us)")
if row["soak_mismatches"] != 0:
    sys.exit(f"check_soak: FAIL — {row['soak_mismatches']} differential "
             f"mismatch(es); the fleet returned a wrong answer")
if row["soak_kills"] < min_kills:
    sys.exit(f"check_soak: FAIL — only {row['soak_kills']} kill(s) injected "
             f"(required >= {min_kills}); soak too short or killer stalled")
if row["soak_catchups"] < row["soak_restarts"]:
    sys.exit(f"check_soak: FAIL — {row['soak_restarts']} restart(s) but only "
             f"{row['soak_catchups']} caught up to the newest spooled epoch "
             f"via polling alone")
if row["soak_requests"] <= 0 or row["soak_cursor_drains"] <= 0:
    sys.exit("check_soak: FAIL — workload recorded no checked answers")
if p99_bound > 0 and row["soak_p99_us"] > p99_bound:
    sys.exit(f"check_soak: FAIL — one-shot p99 {row['soak_p99_us']:.0f}us "
             f"over bound {p99_bound:.0f}us")
EOF
