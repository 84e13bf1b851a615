#!/usr/bin/env bash
#===- scripts/ci.sh - tier-1 verification, twice ---------------------------===#
#
# Part of the ELFies reproduction project.
# SPDX-License-Identifier: MIT
#
# Runs the tier-1 verify in three configurations:
#   1. default build        -> full ctest suite, then the pipeline
#                              benchmark self-test (pipebench/selftest.py)
#   2. sanitized build      -> full ctest suite under ELFIE_SANITIZE
#   3. TSan build           -> the multi-threaded replay/JIT suites, the
#                              store suite (helper-thread chunk reads) and
#                              the simulator suites (the input digest's
#                              helper thread on saves and resumes) under
#                              -fsanitize=thread (data-race detection)
# then invokes the JIT lockstep acceptance suite standalone via its ctest
# label (`ctest -L jit`), so a JIT regression is called out by name even
# when the full suites already covered it, and finishes with a non-fatal
# size report (the line count of src/) and a non-fatal clang-tidy lane
# (scripts/lint.sh) over the default tree's compile database.
#
# Usage: scripts/ci.sh [jobs]
#   ELFIE_SANITIZE   sanitizer list for pass 2 (default: address,undefined)
#   ELFIE_CI_DIR     build root (default: <repo>/build-ci)
#
#===------------------------------------------------------------------------===#

set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${1:-$(nproc)}"
SAN="${ELFIE_SANITIZE:-address,undefined}"
ROOT="${ELFIE_CI_DIR:-$REPO/build-ci}"

run_pass() { # <name> <build-dir> <timeout> [extra cmake args...]
  local Name="$1" Dir="$2" Timeout="$3"
  shift 3
  echo "==== [$Name] configure + build ===="
  cmake -B "$Dir" -S "$REPO" "$@"
  cmake --build "$Dir" -j "$JOBS"
  echo "==== [$Name] ctest ===="
  ctest --test-dir "$Dir" -j "$JOBS" --timeout "$Timeout" \
    --output-on-failure
}

# Pass 1: tier-1 verify, default configuration (with the compile database
# the lint lane consumes).
run_pass default "$ROOT/default" 120 -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

# JSON syntax lives in support/Json: a quoted key spelled out in C++
# source elsewhere means a hand-rolled emitter has come back.
echo "==== [json] no hand-rolled JSON outside support/Json ===="
if grep -rnE '\\"[A-Za-z_%0-9]+\\":' "$REPO/src" --include=*.cpp \
    --include=*.h; then
  echo "ci.sh: hand-rolled JSON found (use support/Json's JsonWriter)"
  exit 1
fi

# The perfle report line has one emitter and one parser, both in
# src/core (core::parsePerfle): its literal prefix spelled out anywhere
# else under src/ or bench/ means a second parser has come back.
echo "==== [perfle] no perfle line format outside src/core ===="
if grep -rn 'elfie-perf:' "$REPO/src" "$REPO/bench" |
    grep -v '^[^:]*/src/core/'; then
  echo "ci.sh: perfle line format outside src/core (use core::parsePerfle)"
  exit 1
fi

# One all-zero guest page, vm::zeroPage(): pinball zero records and the
# address space recognise a zero page by that pointer, so a second
# zero-initialised GuestPageSize array (initialiser possibly on the next
# line) would split the rule.
echo "==== [zero-page] no all-zero guest page outside vm/Memory.cpp ===="
if grep -rlzP '(\[(vm::)?GuestPageSize\]|,\s*(vm::)?GuestPageSize>\s*\w+)\s*=?\s*\{\s*0?\s*\}' \
    "$REPO/src" --include=*.cpp --include=*.h |
    grep -v '/src/vm/Memory\.cpp$'; then
  echo "ci.sh: a second all-zero guest page (use vm::zeroPage())"
  exit 1
fi

# The sidecar's component table has one spelling,
# sim::simStateComponentTable: the per-core id format spelled out
# anywhere else under src/ means a second table has come back.
echo "==== [simstate-ids] no component-id format outside sim/SimState.cpp ===="
if grep -rn '"core%u"' "$REPO/src" |
    grep -v '^[^:]*/src/sim/SimState\.cpp:'; then
  echo "ci.sh: sidecar component ids outside sim/SimState.cpp (use" \
    "sim::simStateComponentTable)"
  exit 1
fi

# A cache keeps each set's tags in recency order, a TLB is a Cache whose
# lines are pages, and SimStats counts hits, misses and mispredicts: an
# LRU stamp or clock, a TLB class or a structure's own event counter
# means state the sidecar would carry for nothing has come back
# (DESIGN.md §16.1).
echo "==== [sim-structures] no LRU clock, TLB class or shadow counters in sim/ ===="
if grep -rnE '\bLRUStamp\b|\bclass TLB\b|\bClock\b|\b(hits|misses|evictions|lookups|mispredicts)\(\)' \
    "$REPO/src/sim"; then
  echo "ci.sh: an LRU clock, TLB class or shadow counter in src/sim (keep" \
    "sets in recency order, build TLBs as Caches, count in SimStats)"
  exit 1
fi

# A guest block has one record, its DecodedBlock, which carries the
# JIT's compiled entry: a PC-keyed block map, a page index, an
# uncompilable set or a find(PC) lookup in the JIT means a second record
# of which blocks exist has come back (DESIGN.md §12, "One block map").
echo "==== [block-map] no second block map in vm/JitCache ===="
if grep -nE '\b(ByPC|PageIndex|Uncompilable)\b|\bfind\(uint64_t' \
    "$REPO/src/vm/JitCache.h" "$REPO/src/vm/JitCache.cpp"; then
  echo "ci.sh: a block map in vm/JitCache (record compiled code on the" \
    "DecodedBlock and look blocks up in the DecodeCache)"
  exit 1
fi

# The sidecar verdicts are the simulator's: an EFAULT.SIMSTATE.* code
# spelled anywhere under src/ but sim/ means a second checker of the
# sidecar or the warm-up budget has come back.
echo "==== [simstate-verdicts] no EFAULT.SIMSTATE code outside sim/ ===="
if grep -rnE '"EFAULT\.SIMSTATE\.[A-Z]+"' "$REPO/src" |
    grep -v '^[^:]*/src/sim/'; then
  echo "ci.sh: sidecar verdicts outside src/sim (use sim::SimStateFile" \
    "and sim::checkWarmupBudget)"
  exit 1
fi

# An artifact has one identity, store::artifactRoot (the root over its
# chunk list, DESIGN.md §15.2): a whole-image SHA-256 under src/, or any
# hashing spelled out in everify's STORE or SIMSTATE pass, means a second
# identity (and a second pass over every byte) has come back.
echo "==== [artifact-identity] one identity per artifact: store::artifactRoot ===="
if grep -rn 'Sha256::digest(Image' "$REPO/src" ||
    grep -n 'Sha256' "$REPO/src/analyze/StorePass.cpp" \
      "$REPO/src/analyze/SimStatePass.cpp"; then
  echo "ci.sh: an artifact identity other than store::artifactRoot" \
    "(use store::artifactRoot, or the manifest's root)"
  exit 1
fi

# A Block observer's onBlock calls arrive from the block log after a whole
# compiled chain ran (DESIGN.md §12), so a stop it requested could not
# land where it asked: a file under src/ outside the VM that declares
# Block granularity, or its .h/.cpp twin, must not call requestStop.
echo "==== [block-observers] no requestStop in a Block observer ===="
BLOCK_STOPS=0
for F in $(grep -rlE 'Granularity::Block\b' "$REPO/src" --include=*.cpp \
    --include=*.h | grep -v '/src/vm/'); do
  if grep -nH 'requestStop' "${F%.*}.h" "${F%.*}.cpp" 2>/dev/null; then
    BLOCK_STOPS=1
  fi
done
if [ "$BLOCK_STOPS" -ne 0 ]; then
  echo "ci.sh: a Block observer calls requestStop (stop the VM from an" \
    "Events or BlockAccesses observer, or with VM::stopAt)"
  exit 1
fi

# An observer sees execution as blocks or events (DESIGN.md §12), and
# granularity() is pure virtual, so the compiler makes every observer
# state it. A per-instruction hook written without `override` would still
# compile and never fire: none may be named under src/, tests/ or bench/.
echo "==== [observer-granularity] no per-instruction observer hooks ===="
if grep -rnE 'Granularity::Instruction|onInstruction|onMemoryAccess|onControlTransfer' \
    "$REPO/src" "$REPO/tests" "$REPO/bench"; then
  echo "ci.sh: a per-instruction observer hook (use onBlock," \
    "onRetiredBlock or the events)"
  exit 1
fi

# Pipeline benchmark self-test, once, on the default configuration: tiny
# inputs through the driver's end-to-end correctness checks (exact capture
# lengths, clean JIT replay, bit-identical cold/resumed SimStats) with the
# JIT on in every stage. Its build tree goes under the CI root.
echo "==== [pipebench] selftest ===="
(cd "$REPO" && CARGO_TARGET_DIR="$ROOT/pipebench" python3 pipebench/selftest.py)

# Pass 2: tier-1 verify, sanitized. Separate tree so object files never
# mix; sanitized tests run slower, hence the larger per-test timeout. A
# UBSan report aborts the test instead of only printing.
run_pass "sanitize=$SAN" "$ROOT/sanitize" 240 "-DELFIE_SANITIZE=$SAN" \
  "-DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined"

# Pass 3: data-race detection. TSan cannot combine with ASan, so it gets
# its own tree; the race surface is the multi-threaded capture/replay/JIT
# machinery plus the two places src/ starts threads (loadArtifact's chunk
# readers, esim's sidecar input digest), so run those suites rather than
# the full matrix.
echo "==== [tsan] configure + build ===="
cmake -B "$ROOT/tsan" -S "$REPO" -DELFIE_SANITIZE=thread
cmake --build "$ROOT/tsan" -j "$JOBS"
echo "==== [tsan] MT replay/JIT suites ===="
ctest --test-dir "$ROOT/tsan" -j "$JOBS" --timeout 360 \
  -R 'Jit|Replay|DecodeCache|MultiThread|Thread|Clone|Atomic' \
  --output-on-failure
echo "==== [tsan] store and simulator suites ===="
"$ROOT/tsan/tests/store/store_tests"
"$ROOT/tsan/tests/sim/simstate_tests"
"$ROOT/tsan/tests/sim/sim_golden_tests"
"$ROOT/tsan/tests/sim/sim_tests"

# JIT acceptance suite standalone (all trees carry the label).
echo "==== [jit label] lockstep differential suite ===="
ctest --test-dir "$ROOT/default" -L jit --timeout 120 --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L jit --timeout 240 --output-on-failure
ctest --test-dir "$ROOT/tsan" -L jit --timeout 360 --output-on-failure

# Campaign-service suite standalone (label `service`): the efleetd
# protocol/daemon end-to-end tests plus the seeded chaos episodes, in the
# default and sanitized trees. Chaos episodes spawn a real daemon and
# worker subprocesses, hence the larger timeouts.
echo "==== [service label] efleetd + chaos suite ===="
ctest --test-dir "$ROOT/default" -L service --timeout 600 \
  --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L service --timeout 900 \
  --output-on-failure

# Artifact-store suite standalone (label `store`): the SHA-256 KATs, pool
# semantics, kill-mid-GC recovery, and the efault chunk-corruption sweep,
# in the default and sanitized trees. The sweeps drive real subprocesses,
# hence the larger timeouts.
echo "==== [store label] estore integrity + crash-recovery suite ===="
ctest --test-dir "$ROOT/default" -L store --timeout 600 \
  --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L store --timeout 900 \
  --output-on-failure

# Simulator suite standalone (label `simstate`): the timing model and
# front-end tests, SimComponent round trips, the EFAULT.SIMSTATE.*
# fail-closed taxonomy, the cold-vs-save-vs-resume bit-identity matrix,
# the warm-mirror pin, the checkpoint-index regression pin, and the esim
# result goldens, in the default and sanitized trees.
echo "==== [simstate label] warmup-checkpoint suite ===="
ctest --test-dir "$ROOT/default" -L simstate --timeout 600 \
  --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L simstate --timeout 900 \
  --output-on-failure

# Validation-loop suite standalone (label `points`): the src/points
# region-set library (the pinned sim-based result, native retired counts,
# coverage and the alternate fallback, one-pass capture), in the default
# and sanitized trees.
echo "==== [points label] region-set validation suite ===="
ctest --test-dir "$ROOT/default" -L points --timeout 120 \
  --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L points --timeout 120 \
  --output-on-failure

# Opcode-table suite standalone (label `isa`): the EG64 table rows, the
# disassembly and assembler-diagnostic goldens, and the assemble-of-
# disassemble round trip, in the default and sanitized trees.
echo "==== [isa label] opcode table + assembler suite ===="
ctest --test-dir "$ROOT/default" -L isa --timeout 120 \
  --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L isa --timeout 120 \
  --output-on-failure

# Analysis suite standalone (label `analyze`): the everify passes and the
# CFG/dataflow subsystem, in the default and sanitized trees (PERM
# compares pages through views into the section bytes).
echo "==== [analyze label] everify passes + CFG recovery + dataflow suite ===="
ctest --test-dir "$ROOT/default" -L analyze --timeout 120 \
  --output-on-failure
ctest --test-dir "$ROOT/sanitize" -L analyze --timeout 240 \
  --output-on-failure

# Size lane: the line count of src/, tracked from run to run (the design
# aim is the same behaviour from less code). Informational only.
echo "==== [size] src/ line count (non-fatal) ===="
find "$REPO/src" \( -name '*.cpp' -o -name '*.h' \) -print0 |
  xargs -0 cat | wc -l || true

# Lint lane: clang-tidy findings are reported but do not fail CI (and the
# lane is skipped entirely when clang-tidy is not installed).
echo "==== [lint] clang-tidy (non-fatal) ===="
"$REPO/scripts/lint.sh" "$ROOT/default" || true

echo "==== ci.sh: all passes green ===="
