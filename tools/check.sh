#!/usr/bin/env bash
# Full verification matrix for the tree. Runs every leg even when an
# earlier one fails and prints one PASS/FAIL line per leg at the end:
#
#   release   RelWithDebInfo, -Werror, full ctest suite (incl. lint)
#   lint      structural lint only (fast re-check; subset of release)
#   asan      AddressSanitizer build + full suite
#   ubsan     UndefinedBehaviorSanitizer build + full suite
#   tsan      ThreadSanitizer build + full suite
#   lockrank  Debug build with CLARENS_LOCK_RANK_CHECK=ON + full suite
#             (runtime lock-hierarchy detector armed on every test)
#   cluster   federation cluster tests (head + storage nodes) in the
#             release, asan and tsan builds — the federation acceptance
#             gate, runnable on its own without the full suites. Includes
#             the fault-injection pass: a storage node killed mid-workload
#             (zero failed client reads, re-replication restores the
#             target) and an on-disk bit-flip that replica.fsck must
#             detect and repair. Node kill + bit-flip run in all three
#             builds; the EIO write-fault hooks additionally fire in
#             asan/tsan, whose presets set CLARENS_FAULT_INJECTION=ON
#             (plain release compiles the hook sites out)
#   tidy      clang -Wthread-safety over the annotated lock layer
#             (compile only; skipped when clang++ is not installed)
#   perfbench python3 perfbench/smoke_test.py: every benchmark workload
#             (fed_race included) in smoke mode — small inputs, one
#             round, every output check on — untraced and traced. Builds
#             into .bench_build/
#
# Usage: tools/check.sh [leg...]     (default: all legs)
# Environment: JOBS=N parallelism (default: nproc).

set -u
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
LOG_DIR=build-logs
mkdir -p "$LOG_DIR"

RESULTS=()
FAILED=0

note() { printf '== %s\n' "$*"; }

record() { # record <status> <leg> [detail]
  RESULTS+=("$(printf '%-5s %-8s %s' "$1" "$2" "${3:-}")")
  [ "$1" = FAIL ] && FAILED=1
}

# build_and_test <leg> <preset> <builddir> [extra cmake args...]
build_and_test() {
  local leg="$1" preset="$2" dir="$3"
  shift 3
  local log="$LOG_DIR/$leg.log"
  note "$leg: configure + build + ctest ($dir)"
  if cmake --preset "$preset" "$@" >"$log" 2>&1 &&
     cmake --build "$dir" -j "$JOBS" >>"$log" 2>&1 &&
     ctest --test-dir "$dir" --output-on-failure -j "$JOBS" >>"$log" 2>&1; then
    record PASS "$leg"
  else
    record FAIL "$leg" "(log: $log)"
  fi
}

leg_release() { build_and_test release default build -DCLARENS_WERROR=ON; }
leg_asan()    { build_and_test asan  asan  build-asan;  }
leg_ubsan()   { build_and_test ubsan ubsan build-ubsan; }
leg_tsan()    { build_and_test tsan  tsan  build-tsan;  }
leg_lockrank(){ build_and_test lockrank lockrank build-lockrank; }

leg_lint() {
  local log="$LOG_DIR/lint.log"
  note "lint: structural lint over src/ tools/ tests/ + lock-doc drift"
  if cmake --preset default >"$log" 2>&1 &&
     cmake --build build -j "$JOBS" --target clarens_lint >>"$log" 2>&1 &&
     ./build/tools/clarens_lint src tools tests >>"$log" 2>&1 &&
     ./build/tools/clarens_lint --check-lock-doc docs/CONCURRENCY.md \
       >>"$log" 2>&1; then
    record PASS lint
  else
    record FAIL lint "(log: $log)"
  fi
}

leg_cluster() {
  # Federation acceptance: head + storage nodes, redirect I/O, and the
  # self-healing fault pass — storage node killed mid-workload (zero
  # failed client reads, replication target restored) and a bit-flipped
  # replica that replica.fsck detects and repairs byte-identically.
  # Must hold under plain release, AddressSanitizer and ThreadSanitizer;
  # asan/tsan additionally arm the compiled-in EIO write-fault hooks.
  local log="$LOG_DIR/cluster.log" ok=1
  note "cluster: federation_cluster_test (release + asan + tsan)"
  : >"$log"
  local pair preset dir
  for pair in "default build" "asan build-asan" "tsan build-tsan"; do
    preset=${pair% *}
    dir=${pair#* }
    printf '== cluster[%s] ==\n' "$dir" >>"$log"
    if ! { cmake --preset "$preset" >>"$log" 2>&1 &&
           cmake --build "$dir" -j "$JOBS" --target federation_cluster_test \
             >>"$log" 2>&1 &&
           ctest --test-dir "$dir" -R '^federation_cluster_test$' \
             --output-on-failure >>"$log" 2>&1; }; then
      ok=0
    fi
  done
  if [ "$ok" -eq 1 ]; then record PASS cluster; else
    record FAIL cluster "(log: $log)"
  fi
}

leg_tidy() {
  local log="$LOG_DIR/tidy.log"
  if ! command -v clang++ >/dev/null 2>&1; then
    note "tidy: SKIP - clang++ not installed (the thread-safety"
    note "tidy: attributes expand to nothing under GCC, so there is"
    note "tidy: nothing to compile-check on this machine)"
    record SKIP tidy "(clang++ not installed)"
    return
  fi
  note "tidy: clang -Wthread-safety (compile only)"
  if cmake --preset tidy >"$log" 2>&1 &&
     cmake --build build-tidy -j "$JOBS" >>"$log" 2>&1; then
    record PASS tidy
  else
    record FAIL tidy "(log: $log)"
  fi
}

leg_perfbench() {
  local log="$LOG_DIR/perfbench.log"
  note "perfbench: benchmark smoke test (every workload, smoke mode)"
  if python3 perfbench/smoke_test.py >"$log" 2>&1; then
    record PASS perfbench
  else
    record FAIL perfbench "(log: $log)"
  fi
}

LEGS=("$@")
[ ${#LEGS[@]} -eq 0 ] && LEGS=(release lint asan ubsan tsan lockrank cluster tidy perfbench)

for leg in "${LEGS[@]}"; do
  case "$leg" in
    release|lint|asan|ubsan|tsan|lockrank|cluster|tidy|perfbench) "leg_$leg" ;;
    *) record FAIL "$leg" "(unknown leg)" ;;
  esac
done

printf '\n===== check.sh summary =====\n'
for line in "${RESULTS[@]}"; do printf '%s\n' "$line"; done
exit $FAILED
